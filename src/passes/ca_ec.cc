#include "passes/ca_ec.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common/logging.hh"
#include "pauli/clifford.hh"
#include "passes/twirling.hh"
#include "sim/timeline.hh"

namespace casq {

namespace {

constexpr double kTwoPi = 6.28318530717958647692;

double
angleOf(double rate_mhz, double tau_ns)
{
    return kTwoPi * rate_mhz * tau_ns * 1e-3;
}

/** Role of a qubit inside a two-qubit echoed gate. */
enum class EcRole
{
    Idle,
    Control,
    Target,
};

/** Toggling-frame sign of a role at time t within a gate of
 *  duration d (t beyond d means the qubit has gone idle). */
int
signAt(EcRole role, double t, double d)
{
    if (d <= 0.0 || t >= d)
        return 1;
    switch (role) {
      case EcRole::Control:
        return t < d / 2.0 ? 1 : -1;
      case EcRole::Target: {
        const int quarter = std::min(3, int(t / (d / 4.0)));
        return (quarter % 2 == 0) ? 1 : -1;
      }
      case EcRole::Idle:
        return 1;
    }
    return 1;
}

/** Per-qubit gate context within one layer. */
struct QubitContext
{
    EcRole role = EcRole::Idle;
    double gateDuration = 0.0;
    const Instruction *gate = nullptr; //!< 2q gate or nullptr
    bool driven = false;               //!< any physical gate
    bool measuring = false;            //!< readout in progress
};

/** Integrated sign functions of a pair over one layer. */
struct PairIntegrals
{
    double fzz = 0.0; //!< integral of s_p * s_q dt (ns)
    double fp = 0.0;  //!< integral of s_p dt
    double fq = 0.0;  //!< integral of s_q dt
};

PairIntegrals
integratePair(const QubitContext &cp, const QubitContext &cq,
              double layer_duration)
{
    PairIntegrals out;
    const bool same_gate = cp.gate != nullptr && cp.gate == cq.gate;
    std::vector<double> cuts{0.0, layer_duration};
    for (const QubitContext *c : {&cp, &cq}) {
        if (c->gateDuration > 0.0) {
            for (int k = 1; k <= 4; ++k) {
                const double t = c->gateDuration * k / 4.0;
                if (t < layer_duration)
                    cuts.push_back(t);
            }
        }
    }
    std::sort(cuts.begin(), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const double x = cuts[i], y = cuts[i + 1];
        if (y - x <= 1e-9)
            continue;
        const double mid = (x + y) / 2.0;
        // Intra-gate coupling is calibrated into the gate itself.
        if (same_gate && mid < cp.gateDuration)
            continue;
        const int sp = signAt(cp.role, mid, cp.gateDuration);
        const int sq = signAt(cq.role, mid, cq.gateDuration);
        out.fzz += sp * sq * (y - x);
        out.fp += sp * (y - x);
        out.fq += sq * (y - x);
    }
    return out;
}

/** Classification of a 1q gate for commuting Z errors through. */
enum class ZCommutation
{
    Commutes,      //!< diagonal gates
    AntiCommutes,  //!< X / Y Paulis
    Blocks,        //!< anything else: flush required
};

ZCommutation
zCommutation(Op op)
{
    if (opIsDiagonal(op))
        return ZCommutation::Commutes;
    if (op == Op::X || op == Op::Y)
        return ZCommutation::AntiCommutes;
    return ZCommutation::Blocks;
}

/**
 * Emission target of the walk, which produces, in order, an
 * interleaving of the input layers (possibly with absorbed gate
 * parameters) and freshly synthesized compensation layers.  The sink
 * splices that stream into the lowered flat segments: untouched
 * input layers pass their existing segment through verbatim,
 * absorbed layers and compensation layers are lowered through the
 * pipeline's TranspileCache (per-instruction lowering equals
 * whole-circuit lowering, see transpileToNative()).
 */
class FlatSink
{
  public:
    FlatSink(std::vector<std::vector<Instruction>> segments,
             std::size_t num_qubits, std::size_t num_clbits,
             TranspileCache *native)
        : _segments(std::move(segments)),
          _numQubits(num_qubits),
          _numClbits(num_clbits),
          _native(native)
    {
        _out.reserve(_segments.size());
    }

    /** A compensation layer synthesized by the walk. */
    void
    emitComp(Layer &&layer)
    {
        _out.push_back(lower(std::move(layer.insts)));
    }

    /**
     * Input layer `index` after commute-through; `modified` is true
     * when absorption rewrote a gate parameter in `working`.
     */
    void
    emitInput(std::size_t index, const Layer &working,
              bool modified)
    {
        if (modified)
            _out.push_back(lower(working.insts));
        else
            _out.push_back(std::move(_segments[index]));
    }

    /** Rejoin the output segments with the inter-layer barriers. */
    Circuit
    take()
    {
        Circuit out(_numQubits, _numClbits);
        for (std::size_t s = 0; s < _out.size(); ++s) {
            for (Instruction &inst : _out[s])
                out.append(std::move(inst));
            if (s + 1 < _out.size())
                out.barrier();
        }
        return out;
    }

  private:
    std::vector<std::vector<Instruction>> _segments;
    std::vector<std::vector<Instruction>> _out;
    std::size_t _numQubits;
    std::size_t _numClbits;
    TranspileCache *_native;

    std::vector<Instruction>
    lower(std::vector<Instruction> insts)
    {
        return _native ? _native->lower(insts) : insts;
    }
};

/**
 * Implementation object carrying the walk state of Algorithm 2,
 * over a sequence of (borrowed) pre-lowering layers, emitting through
 * a FlatSink.  The walk consumes no randomness.  Internal linkage:
 * the public pass object wrapping applyCaEcFlat() is
 * casq::CaEcFlatPass (passes/builtin.hh).
 */
class CaEcWalk
{
  public:
    CaEcWalk(const std::vector<const Layer *> &layers,
             std::size_t num_qubits, const Backend &backend,
             const CaecOptions &options, CaecScope scope,
             CaecStats *stats, FlatSink &sink,
             ConjugationTable &tables)
        : _layers(layers),
          _numQubits(num_qubits),
          _backend(backend),
          _opts(options),
          _compensateZ(scope != CaecScope::ZzOnly),
          _idleContexts(scope != CaecScope::ActiveOnly),
          _stark(scope == CaecScope::All),
          _stats(stats),
          _sink(sink),
          _err1q(num_qubits, 0.0),
          _tables(tables)
    {
    }

    void
    walk()
    {
        for (std::size_t index = 0; index < _layers.size();
             ++index) {
            Layer working = *_layers[index]; // params may change
            _modified = false;
            commuteThrough(working);
            emitPending();
            _sink.emitInput(index, working, _modified);
            accumulate(working);
            handleDynamic(working);
        }
        flushAll();
        emitPending();
    }

  private:
    const std::vector<const Layer *> &_layers;
    std::size_t _numQubits;
    const Backend &_backend;
    const CaecOptions &_opts;
    const bool _compensateZ;  //!< discharge single-qubit Z errors
    const bool _idleContexts; //!< pairs with an idle qubit
    const bool _stark;        //!< AC Stark shifts on spectators
    CaecStats *_stats;
    FlatSink &_sink;

    std::vector<double> _err1q;
    std::map<QubitPair, double> _err2q;
    std::vector<Instruction> _pendingComp; //!< emitted before layer

    ConjugationTable &_tables;
    bool _modified = false; //!< current layer absorbed an angle

    void
    bump(int CaecStats::*field)
    {
        if (_stats)
            ++(_stats->*field);
    }

    /** Queue a virtual rz compensation for the pending layer. */
    void
    flushZ(std::uint32_t q)
    {
        const double err = _err1q[q];
        _err1q[q] = 0.0;
        if (!_compensateZ || std::abs(err) < _opts.minAngle)
            return;
        Instruction rz(Op::RZ, {q}, {-err});
        rz.tag = InstTag::Compensation;
        _pendingComp.push_back(std::move(rz));
        bump(&CaecStats::insertedRz);
    }

    /** Queue an explicit rzz compensation (pulse stretched). */
    void
    flushZz(const QubitPair &pair)
    {
        auto it = _err2q.find(pair);
        if (it == _err2q.end())
            return;
        const double err = it->second;
        _err2q.erase(it);
        if (std::abs(err) < _opts.minAngle)
            return;
        Instruction rzz(Op::RZZ, {pair.a, pair.b}, {-err});
        rzz.tag = InstTag::Compensation;
        _pendingComp.push_back(std::move(rzz));
        bump(&CaecStats::insertedRzz);
    }

    void
    flushAllOn(std::uint32_t q)
    {
        flushZ(q);
        std::vector<QubitPair> pairs;
        for (const auto &[pair, err] : _err2q)
            if (pair.contains(q))
                pairs.push_back(pair);
        for (const auto &pair : pairs)
            flushZz(pair);
    }

    void
    flushAll()
    {
        for (std::uint32_t q = 0; q < _numQubits; ++q)
            flushZ(q);
        std::vector<QubitPair> pairs;
        for (const auto &[pair, err] : _err2q)
            pairs.push_back(pair);
        for (const auto &pair : pairs)
            flushZz(pair);
    }

    /** Emit queued compensations as layers before the current one. */
    void
    emitPending()
    {
        if (_pendingComp.empty())
            return;
        Layer rz_layer{LayerKind::OneQubit, {}};
        Layer rzz_layer{LayerKind::TwoQubit, {}};
        std::set<std::uint32_t> used;
        for (auto &inst : _pendingComp) {
            if (inst.op == Op::RZ) {
                rz_layer.insts.push_back(std::move(inst));
            } else {
                // Two-qubit compensations must not overlap within
                // one layer; spill into extra layers if needed.
                bool clash = false;
                for (auto q : inst.qubits)
                    clash |= used.count(q) > 0;
                if (clash) {
                    _sink.emitComp(std::move(rzz_layer));
                    rzz_layer = Layer{LayerKind::TwoQubit, {}};
                    used.clear();
                }
                for (auto q : inst.qubits)
                    used.insert(q);
                rzz_layer.insts.push_back(std::move(inst));
            }
        }
        if (!rz_layer.insts.empty())
            _sink.emitComp(std::move(rz_layer));
        if (!rzz_layer.insts.empty())
            _sink.emitComp(std::move(rzz_layer));
        _pendingComp.clear();
    }

    /**
     * Phase A: carry pending errors through the layer, flushing
     * compensations in front of anything non-commuting and
     * absorbing ZZ into matching absorber gates.
     */
    void
    commuteThrough(Layer &layer)
    {
        switch (layer.kind) {
          case LayerKind::OneQubit:
            commuteThrough1q(layer);
            break;
          case LayerKind::TwoQubit:
            commuteThrough2q(layer);
            break;
          case LayerKind::Dynamic:
            commuteThroughDynamic(layer);
            break;
        }
    }

    void
    commuteThrough1q(const Layer &layer)
    {
        for (const Instruction &inst : layer.insts) {
            if (inst.op == Op::Delay)
                continue;
            const std::uint32_t q = inst.qubits[0];
            switch (zCommutation(inst.op)) {
              case ZCommutation::Commutes:
                break;
              case ZCommutation::AntiCommutes:
                _err1q[q] = -_err1q[q];
                for (auto &[pair, err] : _err2q)
                    if (pair.contains(q))
                        err = -err;
                break;
              case ZCommutation::Blocks:
                flushAllOn(q);
                bump(&CaecStats::flushedEarly);
                break;
            }
        }
    }

    void
    commuteThrough2q(Layer &layer)
    {
        for (Instruction &inst : layer.insts) {
            if (!opIsTwoQubitGate(inst.op))
                continue;
            const std::uint32_t a = inst.qubits[0];
            const std::uint32_t b = inst.qubits[1];

            // Absorb a pending ZZ error on exactly this pair into
            // an absorber gate: can / rzz (paper Fig. 1c-d).
            auto it = _err2q.find(QubitPair(a, b));
            if (it != _err2q.end() &&
                std::abs(it->second) >= _opts.minAngle) {
                if (inst.op == Op::Can) {
                    inst.params[2] += it->second / 2.0;
                    _err2q.erase(it);
                    _modified = true;
                    bump(&CaecStats::absorbedIntoGates);
                } else if (inst.op == Op::RZZ) {
                    inst.params[0] -= it->second;
                    _err2q.erase(it);
                    _modified = true;
                    bump(&CaecStats::absorbedIntoGates);
                }
            }

            transformThroughGate(inst, a, b);
        }
    }

    /**
     * Transform remaining pending errors on (a, b) through the
     * gate using its Pauli conjugation table; flush anything whose
     * image is not Z-type.
     */
    void
    transformThroughGate(const Instruction &inst, std::uint32_t a,
                         std::uint32_t b)
    {
        // Pending errors on other qubits coupled to a or b cannot
        // be commuted through a two-qubit gate unless Z on the
        // shared endpoint is preserved.
        const bool diagonal = opIsDiagonal(inst.op);

        // Gather pending Z-type errors supported inside {a, b}.
        const double za = _err1q[a];
        const double zb = _err1q[b];
        auto it = _err2q.find(QubitPair(a, b));
        const double zz = it != _err2q.end() ? it->second : 0.0;

        if (diagonal) {
            // Everything commutes; external pairs fine too.
            return;
        }

        const Conjugation2Q &table =
            _tables.of2q(instructionUnitary(inst));

        // External pairs (a or b with a third qubit): survive only
        // if Z on the endpoint maps to +- Z on the same endpoint.
        auto z_preserved = [&](std::uint32_t endpoint) {
            const Pauli2 p = endpoint == a
                                 ? Pauli2{PauliOp::Z, PauliOp::I}
                                 : Pauli2{PauliOp::I, PauliOp::Z};
            const auto image = table.conjugate(p);
            if (!image)
                return 0;
            if (image->pauli == p)
                return image->sign;
            return 0;
        };
        const int keep_a = z_preserved(a);
        const int keep_b = z_preserved(b);
        std::vector<QubitPair> to_flush;
        for (auto &[pair, err] : _err2q) {
            const bool hits_a = pair.contains(a);
            const bool hits_b = pair.contains(b);
            if (pair == QubitPair(a, b) || (!hits_a && !hits_b))
                continue;
            const int keep = hits_a ? keep_a : keep_b;
            if (keep == 0)
                to_flush.push_back(pair);
            else
                err *= keep;
        }
        for (const auto &pair : to_flush) {
            flushZz(pair);
            bump(&CaecStats::flushedEarly);
        }

        // Internal errors: map the three Z-type generators through
        // the gate and rebin; flush anything non-Z first.
        struct Gen
        {
            Pauli2 pauli;
            double angle;
        };
        std::vector<Gen> gens;
        if (std::abs(za) > 0.0)
            gens.push_back(Gen{{PauliOp::Z, PauliOp::I}, za});
        if (std::abs(zb) > 0.0)
            gens.push_back(Gen{{PauliOp::I, PauliOp::Z}, zb});
        if (std::abs(zz) > 0.0)
            gens.push_back(Gen{{PauliOp::Z, PauliOp::Z}, zz});
        if (gens.empty())
            return;

        auto is_z_type = [](const Pauli2 &p) {
            return (p.op0 == PauliOp::I || p.op0 == PauliOp::Z) &&
                   (p.op1 == PauliOp::I || p.op1 == PauliOp::Z);
        };
        bool all_z = true;
        std::vector<std::optional<SignedPauli2>> images;
        for (const auto &g : gens) {
            auto image = table.conjugate(g.pauli);
            if (!image || !is_z_type(image->pauli))
                all_z = false;
            images.push_back(image);
        }
        if (!all_z) {
            // Flush everything on this pair in front of the gate.
            flushZ(a);
            flushZ(b);
            flushZz(QubitPair(a, b));
            bump(&CaecStats::flushedEarly);
            return;
        }
        _err1q[a] = 0.0;
        _err1q[b] = 0.0;
        _err2q.erase(QubitPair(a, b));
        for (std::size_t k = 0; k < gens.size(); ++k) {
            const Pauli2 &img = images[k]->pauli;
            const double angle = gens[k].angle * images[k]->sign;
            if (img.op0 == PauliOp::Z && img.op1 == PauliOp::Z)
                _err2q[QubitPair(a, b)] += angle;
            else if (img.op0 == PauliOp::Z)
                _err1q[a] += angle;
            else if (img.op1 == PauliOp::Z)
                _err1q[b] += angle;
            // II image: global phase, nothing to do.
        }
    }

    void
    commuteThroughDynamic(const Layer &layer)
    {
        for (const Instruction &inst : layer.insts) {
            if (inst.isConditional()) {
                for (auto q : inst.qubits) {
                    flushAllOn(q);
                    bump(&CaecStats::flushedEarly);
                }
            }
        }
    }

    /** Layer duration consistent with the ASAP scheduler. */
    double
    layerDuration(const Layer &layer) const
    {
        double d = 0.0;
        for (const auto &inst : layer.insts)
            d = std::max(d, _backend.durations().of(inst));
        if (layer.kind == LayerKind::Dynamic) {
            bool has_meas = false, has_cond = false;
            for (const auto &inst : layer.insts) {
                has_meas |= inst.op == Op::Measure;
                has_cond |= inst.isConditional();
            }
            if (has_meas && has_cond) {
                d = _backend.durations().measure +
                    _backend.durations().feedforward +
                    _backend.durations().oneQubit;
            }
            if (_opts.assumedDynamicIdleNs >= 0.0)
                d = _opts.assumedDynamicIdleNs;
        }
        return d;
    }

    QubitContext
    contextOf(const Layer &layer, std::uint32_t q) const
    {
        QubitContext ctx;
        for (const auto &inst : layer.insts) {
            if (!inst.actsOn(q))
                continue;
            if (opIsTwoQubitGate(inst.op) &&
                isEchoedTwoQubitOp(inst.op)) {
                ctx.gate = &inst;
                ctx.gateDuration = _backend.durations().of(inst);
                ctx.role = inst.qubits[0] == q ? EcRole::Control
                                               : EcRole::Target;
                ctx.driven = true;
            } else if (inst.op == Op::Measure) {
                ctx.measuring = true;
            } else if (opIsUnitary(inst.op) &&
                       !opIsVirtual(inst.op)) {
                ctx.driven = true;
                ctx.gateDuration = _backend.durations().of(inst);
            }
            break;
        }
        return ctx;
    }

    /** Phase C: accumulate the layer's own coherent errors. */
    void
    accumulate(const Layer &layer)
    {
        const double tau = layerDuration(layer);
        if (tau <= 1e-9)
            return;

        std::vector<QubitContext> ctx(_numQubits);
        for (std::uint32_t q = 0; q < _numQubits; ++q)
            ctx[q] = contextOf(layer, q);

        for (const auto &[pair, props] : _backend.pairs()) {
            if (props.zzRateMHz > 0.0) {
                const QubitContext &cp = ctx[pair.a];
                const QubitContext &cq = ctx[pair.b];
                // Both qubits on one gate: calibrated away.
                const bool same_gate =
                    cp.gate != nullptr && cp.gate == cq.gate;
                const bool both_active =
                    cp.gate != nullptr && cq.gate != nullptr;
                if (!same_gate && (both_active || _idleContexts)) {
                    const PairIntegrals f =
                        integratePair(cp, cq, tau);
                    const double rate =
                        kTwoPi * props.zzRateMHz * 1e-3;
                    _err2q[pair] += rate * f.fzz;
                    _err1q[pair.a] += -rate * f.fp;
                    _err1q[pair.b] += -rate * f.fq;
                }
            }
            // AC Stark shift on undriven spectators (Fig. 4a).
            if (_stark &&
                props.starkShiftMHz > 0.0 && !props.nextNearest) {
                const QubitContext &cp = ctx[pair.a];
                const QubitContext &cq = ctx[pair.b];
                if (cp.driven && !cq.driven && !cq.gate) {
                    _err1q[pair.b] +=
                        angleOf(props.starkShiftMHz,
                                cp.gateDuration);
                }
                if (cq.driven && !cp.driven && !cp.gate) {
                    _err1q[pair.a] +=
                        angleOf(props.starkShiftMHz,
                                cq.gateDuration);
                }
            }
            // Readout-induced Stark shift: acts for the (known)
            // measurement duration on spectators of the measured
            // qubit (paper Sec. V D).
            if (_stark &&
                props.measureStarkMHz > 0.0 && !props.nextNearest) {
                const QubitContext &cp = ctx[pair.a];
                const QubitContext &cq = ctx[pair.b];
                // A feedforward 1q gate on the spectator happens
                // after the readout window, so "driven" does not
                // disqualify it -- only a concurrent 2q gate does.
                const double theta = angleOf(
                    props.measureStarkMHz,
                    _backend.durations().measure);
                if (cp.measuring && !cq.measuring && !cq.gate)
                    _err1q[pair.b] += theta;
                if (cq.measuring && !cp.measuring && !cp.gate)
                    _err1q[pair.a] += theta;
            }
        }
        // Drop negligible pair entries to keep the map small.
        for (auto it = _err2q.begin(); it != _err2q.end();) {
            if (std::abs(it->second) < 1e-12)
                it = _err2q.erase(it);
            else
                ++it;
        }
    }

    /**
     * Phase D: discharge errors involving freshly measured qubits
     * and errors preceding conditional Pauli gates as
     * outcome-conditioned rz gates after the layer (Fig. 9b).
     *
     * For a qubit x with this-layer Z error phi (local + Stark), a
     * ZZ error theta with a measured partner (record bit c), and
     * possibly an odd number of conditional X/Y gates on record
     * c == 1, the branch errors before any feedforward gate are
     *   m = 0: Rz(phi + theta),   m = 1: Rz(phi - theta),
     * and the post-layer compensation must invert them *through*
     * the conditional gate when it fired:
     *   no flip:  base Rz(-(phi + theta)), cond Rz(+2 theta)
     *   flip:     base Rz(-(phi + theta)), cond Rz(+2 phi).
     */
    void
    handleDynamic(const Layer &layer)
    {
        if (layer.kind != LayerKind::Dynamic)
            return;

        // Parity of conditional X/Y per qubit (condValue == 1).
        std::map<std::uint32_t, std::pair<int, bool>> flips;
        for (const Instruction &inst : layer.insts) {
            if (inst.isConditional() && inst.condValue == 1 &&
                (inst.op == Op::X || inst.op == Op::Y)) {
                auto &entry = flips[inst.qubits[0]];
                entry.first = inst.condBit;
                entry.second = !entry.second;
            }
        }

        // ZZ errors with measured partners, per spectator qubit.
        std::map<std::uint32_t, std::pair<int, double>> zz_conv;
        for (const Instruction &inst : layer.insts) {
            if (inst.op != Op::Measure)
                continue;
            const std::uint32_t m = inst.qubits[0];
            // Z error on a measured qubit is unobservable.
            _err1q[m] = 0.0;
            std::vector<QubitPair> pairs;
            for (const auto &[pair, err] : _err2q)
                if (pair.contains(m))
                    pairs.push_back(pair);
            for (const auto &pair : pairs) {
                const double err = _err2q[pair];
                _err2q.erase(pair);
                if (std::abs(err) < _opts.minAngle)
                    continue;
                zz_conv[pair.other(m)] = {inst.cbit, err};
            }
        }

        std::vector<Instruction> post;
        std::set<std::uint32_t> handled;
        for (const auto &[q, conv] : zz_conv)
            handled.insert(q);
        for (const auto &[q, flip] : flips)
            if (flip.second)
                handled.insert(q);

        for (std::uint32_t q : handled) {
            const bool has_zz = zz_conv.count(q) > 0;
            const int zz_cbit = has_zz ? zz_conv[q].first : -1;
            const double theta = has_zz ? zz_conv[q].second : 0.0;
            const bool has_flip =
                flips.count(q) && flips[q].second;
            const int flip_cbit = has_flip ? flips[q].first : -1;

            double phi = 0.0;
            if (_compensateZ && has_flip) {
                // Plain Z errors only need conditional treatment
                // when a feedforward Pauli sits after them.
                phi = _err1q[q];
                _err1q[q] = 0.0;
            }

            // The clean single-record case: flip and ZZ share the
            // record (or one of them is absent).
            const int cbit = has_zz ? zz_cbit : flip_cbit;
            if (has_zz && has_flip && zz_cbit != flip_cbit) {
                warn("CA-EC: conditional gate and measured ",
                     "partner use different records on q", q,
                     "; compensating the unconditional part only");
                Instruction base(Op::RZ, {q}, {-phi});
                base.tag = InstTag::Compensation;
                post.push_back(std::move(base));
                continue;
            }

            const double base_angle = -(phi + theta);
            const double cond_angle =
                has_flip ? 2.0 * phi : 2.0 * theta;
            if (std::abs(base_angle) >= _opts.minAngle) {
                Instruction base(Op::RZ, {q}, {base_angle});
                base.tag = InstTag::Compensation;
                post.push_back(std::move(base));
            }
            if (std::abs(cond_angle) >= _opts.minAngle) {
                Instruction cond(Op::RZ, {q}, {cond_angle});
                cond.tag = InstTag::Compensation;
                cond.condBit = cbit;
                cond.condValue = 1;
                post.push_back(std::move(cond));
            }
            bump(&CaecStats::conditionalRz);
        }

        // Instructions in `post` may repeat qubits; emit one
        // compensation instruction per layer to satisfy the
        // disjointness invariant.
        for (auto &inst : post) {
            Layer single{LayerKind::Dynamic, {}};
            single.insts.push_back(std::move(inst));
            _sink.emitComp(std::move(single));
        }
    }
};

} // namespace

CaecPlan
makeCaecPlan(const LayeredCircuit &circuit)
{
    return CaecPlan{circuit};
}

Circuit
applyCaEcFlat(const Circuit &flat, const CaecPlan &plan,
              const TwirlFrames *frames, const Backend &backend,
              ConjugationTable &tables, const CaecOptions &options,
              CaecScope scope, TranspileCache *native,
              CaecStats *stats)
{
    const std::vector<Layer> &layers = plan.layered.layers();
    if (layers.empty())
        return flat;

    std::vector<std::vector<Instruction>> segments =
        barrierSegments(flat);

    // Rebuild the twirled pre-lowering layer sequence: the plan's
    // layers with the late-sampled frame layers spliced around each
    // target, empty frame layers elided exactly as
    // insertTwirlFrames() elides them.
    std::deque<Layer> frame_storage; // stable addresses
    std::vector<const Layer *> view;
    view.reserve(segments.size());
    std::size_t next = 0;
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const TwirlFrames::LayerFrames *target = nullptr;
        if (frames && next < frames->targets.size() &&
            frames->targets[next].layer == li)
            target = &frames->targets[next++];
        if (target && !target->pre.empty()) {
            frame_storage.push_back(
                Layer{LayerKind::OneQubit, target->pre});
            view.push_back(&frame_storage.back());
        }
        view.push_back(&layers[li]);
        if (target && !target->post.empty()) {
            frame_storage.push_back(
                Layer{LayerKind::OneQubit, target->post});
            view.push_back(&frame_storage.back());
        }
    }
    casq_assert(!frames || next == frames->targets.size(),
                "twirl frames cover ", frames ? frames->targets.size()
                                              : 0,
                " target(s) but only ", next,
                " matched the CA-EC plan's layers");
    casq_assert(view.size() == segments.size(),
                "flat circuit has ", segments.size(),
                " barrier segment(s) but the CA-EC plan expects ",
                view.size());

    FlatSink sink(std::move(segments), plan.layered.numQubits(),
                  plan.layered.numClbits(), native);
    CaEcWalk pass(view, plan.layered.numQubits(), backend, options,
                  scope, stats, sink, tables);
    pass.walk();
    return sink.take();
}

} // namespace casq
