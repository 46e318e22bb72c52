#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <utility>

#include "circuit/unitary.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "pauli/clifford.hh"
#include "sim/backend.hh"
#include "sim/noise/source.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"
#include "sim/timeline.hh"

namespace casq {

namespace {

std::uint64_t
doubleBits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

} // namespace

namespace detail {

/** The composed source list the engine drives (owner: the engine). */
using NoiseSources = std::vector<std::unique_ptr<NoiseSource>>;

/** Precomputed noise plan of one timeline segment. */
struct SegmentPlan
{
    std::vector<QubitAngle> detZ;
    std::vector<PairAngle> detZz;
    std::size_t plannedRow = 0; //!< offset in CompiledVariant::planned
};

/** Clifford generator images of one scheduled instruction. */
struct GateImages
{
    CliffordImages1Q one; //!< of a 1q gate
    CliffordImages2Q two; //!< of a 2q gate
};

/** A variant compiled for repeated trajectory execution. */
struct CompiledVariant
{
    Timeline timeline;
    std::vector<SegmentPlan> plans;
    std::vector<CMat> unitaries; //!< per scheduled instruction
    std::uint64_t fingerprint = 0;

    /** Composed sources that want the segment hook. */
    std::size_t segmentHooks = 0;

    /**
     * NoiseSource::planSegmentQubit() values, one row per distinct
     * segment duration (shared by every segment of that duration):
     * a row is qubit-major, segmentHooks values per qubit in
     * composition order.
     */
    std::vector<double> planned;

    /**
     * True when every instruction unitary, every compiled noise
     * phase and every sampled error of this variant is Clifford, so
     * SimBackendKind::Auto may route its trajectories to the
     * stabilizer tableau.  When false, stabilizerBlocker names the
     * first offender (docs/backends.md lists the rules).
     */
    bool stabilizerEligible = true;
    std::string stabilizerBlocker;

    /**
     * Per scheduled instruction, next to unitaries[i]: its generator
     * images, resolved once when the variant is built.  Filled for
     * stabilizer-eligible variants only (empty otherwise).
     */
    std::vector<GateImages> images;

    /**
     * Leading timeline events that consume no RNG and read no
     * per-shot state, so every trajectory evolves through them
     * identically.  Trajectories may fork from a checkpoint evolved
     * through these events once (docs/simulator.md, "Trajectory
     * prefix checkpoint"); 0 means replay from |0...0>.
     */
    std::size_t prefixEvents = 0;

    /**
     * Deterministic amplitude-damping idle time every qubit accrues
     * across the prefix (the fork seeds the runner's pending-T1
     * clock with it; always 0 unless noise.amplitudeDamping).
     */
    double prefixPendingT1 = 0.0;

    CompiledVariant(const ScheduledCircuit &circuit,
                    const NoiseSources &sources);

    /**
     * The prefix state for `kind` (Dense or Stabilizer), built
     * lazily on first use so e.g. a >24-qubit Clifford ensemble
     * never allocates a dense 2^n checkpoint.  Thread-safe; valid
     * only when prefixEvents > 0.
     */
    const StateBackend *prefixCheckpoint(SimBackendKind kind) const;

    /**
     * Apply gate instruction i to `state`: the one kernel call both
     * substrates take (the tableau reads images[i], the dense state
     * unitaries[i]).
     */
    void applyGate(StateBackend &state, std::size_t i) const;

  private:
    mutable std::once_flag _prefixDenseOnce;
    mutable std::unique_ptr<StateBackend> _prefixDense;
    mutable std::once_flag _prefixStabOnce;
    mutable std::unique_ptr<StateBackend> _prefixStab;

    void analyzeStabilizerEligibility(const NoiseSources &sources);
    void analyzePrefixEligibility(const NoiseSources &sources);
    void buildPrefixCheckpoint(
        SimBackendKind kind,
        std::unique_ptr<StateBackend> &slot) const;
};

CompiledVariant::CompiledVariant(const ScheduledCircuit &circuit,
                                 const NoiseSources &sources)
    : timeline(circuit)
{
    const auto &insts = timeline.circuit().instructions();
    unitaries.resize(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (opIsUnitary(insts[i].inst.op) &&
            insts[i].inst.op != Op::I) {
            unitaries[i] = instructionUnitary(insts[i].inst);
        }
    }

    // Sources with per-segment stochastic phases run on every qubit
    // of every segment (they decide per qubit what to contribute);
    // their per-(qubit, duration) constants are planned here, once
    // per distinct duration.
    std::vector<const NoiseSource *> hooks;
    for (const auto &source : sources) {
        if (source->wantsSegmentHook())
            hooks.push_back(source.get());
    }
    segmentHooks = hooks.size();
    std::unordered_map<std::uint64_t, std::size_t> rows;

    plans.resize(timeline.segments().size());
    for (std::size_t s = 0; s < plans.size(); ++s) {
        const Segment &seg = timeline.segments()[s];
        SegmentPlan &plan = plans[s];

        // Deterministic Z/ZZ contributions, composed in the
        // canonical source order (docs/noise.md).
        for (const auto &source : sources)
            source->planSegment(seg, plan.detZ, plan.detZz);

        if (!hooks.empty()) {
            const double tau = seg.duration();
            const auto [row, fresh] =
                rows.try_emplace(doubleBits(tau), planned.size());
            plan.plannedRow = row->second;
            if (fresh) {
                for (std::uint32_t q = 0; q < seg.qubits.size(); ++q) {
                    for (const NoiseSource *source : hooks)
                        planned.push_back(
                            source->planSegmentQubit(q, tau));
                }
            }
        }

        // Merge duplicate per-qubit entries to shrink the hot loop.
        if (!plan.detZ.empty()) {
            std::vector<double> merged(seg.qubits.size(), 0.0);
            for (const auto &za : plan.detZ)
                merged[za.qubit] += za.theta;
            plan.detZ.clear();
            for (std::uint32_t q = 0; q < merged.size(); ++q)
                if (merged[q] != 0.0)
                    plan.detZ.push_back(QubitAngle{q, merged[q]});
        }
    }

    analyzeStabilizerEligibility(sources);
    analyzePrefixEligibility(sources);
}

void
CompiledVariant::analyzePrefixEligibility(const NoiseSources &sources)
{
    // Walk the timeline until the first event that consumes RNG or
    // reads per-shot state; everything before it is the shared
    // deterministic prefix.  The rules mirror TrajectoryRunner
    // event by event, with the per-source decisions delegated to
    // the composed sources (docs/noise.md):
    //  - a segment is eligible when no source has a segment hook, or
    //    when its duration is zero (sources must contribute exactly
    //    0.0 there and draw nothing -- RNG rule 3 of
    //    sim/noise/source.hh);
    //  - conditional instructions, Measure and Reset stop the walk
    //    (clbit reads / measurement draws);
    //  - Op::I and virtual diagonal gates are free (no idle flush,
    //    no gate hooks);
    //  - a physical gate stops the walk when any source declares a
    //    prefixBlocker() (its gate-time hook would consume RNG or
    //    desync per-shot state, e.g. the pending-T1 clocks), and is
    //    eligible otherwise.
    bool any_idle_flush = false;
    bool gate_blocked = false;
    for (const auto &source : sources) {
        any_idle_flush |= source->wantsIdleFlush();
        gate_blocked |= !source->prefixBlocker().empty();
    }
    double pending = 0.0;
    std::size_t count = 0;
    const auto &segments = timeline.segments();
    const auto &insts = timeline.circuit().instructions();
    for (const auto &event : timeline.events()) {
        if (event.kind == TimelineEvent::Kind::Segment) {
            const double tau = segments[event.index].duration();
            if (segmentHooks > 0 && tau > 0.0)
                break;
            if (any_idle_flush)
                pending += tau;
            ++count;
            continue;
        }
        const Instruction &inst = insts[event.index].inst;
        if (inst.isConditional())
            break;
        if (inst.op == Op::Measure || inst.op == Op::Reset)
            break;
        if (inst.op == Op::I || opIsVirtual(inst.op)) {
            ++count;
            continue;
        }
        if (gate_blocked)
            break;
        ++count;
    }
    prefixEvents = count;
    prefixPendingT1 = pending;
}

void
CompiledVariant::buildPrefixCheckpoint(
    SimBackendKind kind, std::unique_ptr<StateBackend> &slot) const
{
    auto state =
        makeStateBackend(kind, timeline.circuit().numQubits());
    const auto &insts = timeline.circuit().instructions();
    const auto &events = timeline.events();
    // Replay the prefix with the exact kernel calls the runner
    // makes (an eligible segment's phase buffer is exactly its
    // deterministic plan), so a forked trajectory is bit-identical
    // to a replayed one.
    for (std::size_t e = 0; e < prefixEvents; ++e) {
        const TimelineEvent &event = events[e];
        if (event.kind == TimelineEvent::Kind::Segment) {
            const SegmentPlan &plan = plans[event.index];
            state->applyPhases(plan.detZ, plan.detZz);
            continue;
        }
        const Instruction &inst = insts[event.index].inst;
        if (inst.op == Op::I)
            continue;
        if (inst.op == Op::RZ)
            state->applyPhases({{inst.qubits[0], inst.params[0]}}, {});
        else
            applyGate(*state, event.index);
    }
    slot = std::move(state);
}

void
CompiledVariant::applyGate(StateBackend &state, std::size_t i) const
{
    const Instruction &inst = timeline.circuit().instructions()[i].inst;
    const GateImages *gate = images.empty() ? nullptr : &images[i];
    if (inst.qubits.size() == 1)
        state.applyGate1q(unitaries[i], inst.qubits[0],
                          gate ? &gate->one : nullptr);
    else
        state.applyGate2q(unitaries[i], inst.qubits[0],
                          inst.qubits[1], gate ? &gate->two : nullptr);
}

const StateBackend *
CompiledVariant::prefixCheckpoint(SimBackendKind kind) const
{
    casq_assert(kind != SimBackendKind::Auto,
                "prefix checkpoint needs a concrete backend kind");
    if (kind == SimBackendKind::Dense) {
        std::call_once(_prefixDenseOnce, [this] {
            buildPrefixCheckpoint(SimBackendKind::Dense,
                                  _prefixDense);
        });
        return _prefixDense.get();
    }
    std::call_once(_prefixStabOnce, [this] {
        buildPrefixCheckpoint(SimBackendKind::Stabilizer,
                              _prefixStab);
    });
    return _prefixStab.get();
}

void
CompiledVariant::analyzeStabilizerEligibility(const NoiseSources &sources)
{
    const auto block = [this](std::string why) {
        stabilizerEligible = false;
        stabilizerBlocker = std::move(why);
    };

    // Stochastic noise channels first: on the standard model this
    // blocks immediately, so the per-instruction work below never
    // runs on the paper workloads.  The first source with an opinion
    // wins, in composition order.
    for (const auto &source : sources) {
        if (std::string why = source->cliffordBlocker();
            !why.empty()) {
            block(std::move(why));
            return;
        }
    }

    // Every compiled coherent phase must be a quarter turn.
    for (const SegmentPlan &plan : plans) {
        for (const QubitAngle &za : plan.detZ) {
            if (!StabilizerBackend::quarterTurns(za.theta)) {
                block(detail::format(
                    "coherent Z angle ", za.theta, " on qubit ",
                    za.qubit, " is not a multiple of pi/2"));
                return;
            }
        }
        for (const PairAngle &zz : plan.detZz) {
            if (!StabilizerBackend::quarterTurns(zz.theta)) {
                block(detail::format(
                    "coherent ZZ angle ", zz.theta, " on pair (",
                    zz.q0, ", ", zz.q1,
                    ") is not a multiple of pi/2"));
                return;
            }
        }
    }

    // Every instruction unitary must be Clifford.  One walk checks
    // that and resolves each gate's generator images for the
    // tableau; distinct unitaries repeat heavily, so the numeric
    // conjugation goes through a build-local table.
    ConjugationTable tables;
    const auto resolve = [](const auto &table, auto &out) {
        if (table.isClifford())
            out = table.images();
        return table.isClifford();
    };
    const auto &insts = timeline.circuit().instructions();
    std::vector<GateImages> resolved(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const CMat &u = unitaries[i];
        if (u.rows() == 0)
            continue;
        const bool clifford =
            u.rows() == 2 ? resolve(tables.of1q(u), resolved[i].one)
                          : resolve(tables.of2q(u), resolved[i].two);
        if (!clifford) {
            block(detail::format(
                "non-Clifford gate ", opName(insts[i].inst.op),
                " at instruction ", i));
            return;
        }
    }
    images = std::move(resolved);
}

} // namespace detail

namespace {

using detail::CompiledVariant;
using detail::SegmentPlan;

// ------------------------------------------------ circuit identity

std::uint64_t
mixHash(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

/** 64-bit identity fingerprint of a schedule (collisions are
 *  resolved by sameSchedule below, never trusted blindly). */
std::uint64_t
scheduleFingerprint(const ScheduledCircuit &circuit)
{
    std::uint64_t h = 0x243F6A8885A308D3ull;
    h = mixHash(h, circuit.numQubits());
    h = mixHash(h, circuit.numClbits());
    for (const TimedInstruction &timed : circuit.instructions()) {
        const Instruction &inst = timed.inst;
        h = mixHash(h, std::uint64_t(inst.op));
        for (std::uint32_t q : inst.qubits)
            h = mixHash(h, q);
        for (double p : inst.params)
            h = mixHash(h, doubleBits(p));
        h = mixHash(h, std::uint64_t(std::int64_t(inst.cbit)));
        h = mixHash(h, std::uint64_t(std::int64_t(inst.condBit)));
        h = mixHash(h,
                    std::uint64_t(std::int64_t(inst.condValue)));
        h = mixHash(h, std::uint64_t(inst.tag));
        h = mixHash(h, doubleBits(timed.start));
        h = mixHash(h, doubleBits(timed.duration));
    }
    return h;
}

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.op == b.op && a.qubits == b.qubits &&
           a.params == b.params && a.cbit == b.cbit &&
           a.condBit == b.condBit && a.condValue == b.condValue &&
           a.tag == b.tag;
}

/** Exact schedule equality (the cache's real key). */
bool
sameSchedule(const ScheduledCircuit &a, const ScheduledCircuit &b)
{
    if (a.numQubits() != b.numQubits() ||
        a.numClbits() != b.numClbits() ||
        a.instructions().size() != b.instructions().size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.instructions().size(); ++i) {
        const TimedInstruction &ta = a.instructions()[i];
        const TimedInstruction &tb = b.instructions()[i];
        if (ta.start != tb.start || ta.duration != tb.duration ||
            !sameInstruction(ta.inst, tb.inst)) {
            return false;
        }
    }
    return true;
}

// ------------------------------------------------ backend routing

/**
 * The substrate every trajectory of `variant` runs on.  Auto
 * prefers the tableau exactly when the variant's whole execution is
 * Clifford.  Forcing Stabilizer on an ineligible variant, or landing
 * dense past the statevector limit, is a user error: UserError with
 * the diagnostic.
 */
SimBackendKind
resolveTrajectoryBackend(SimBackendKind requested,
                         const CompiledVariant &variant,
                         std::size_t num_qubits)
{
    SimBackendKind kind = SimBackendKind::Dense;
    switch (requested) {
      case SimBackendKind::Auto:
        if (variant.stabilizerEligible)
            kind = SimBackendKind::Stabilizer;
        break;
      case SimBackendKind::Stabilizer:
        if (!variant.stabilizerEligible) {
            throw UserError(detail::format(
                "circuit is not Clifford, so --backend stabilizer "
                "cannot simulate it (",
                variant.stabilizerBlocker,
                "); use --backend auto or dense"));
        }
        kind = SimBackendKind::Stabilizer;
        break;
      case SimBackendKind::Dense:
        break;
    }
    if (kind == SimBackendKind::Dense && num_qubits > kMaxDenseQubits) {
        throw UserError(detail::format(
            num_qubits, " qubits exceed the dense statevector limit (",
            kMaxDenseQubits,
            "); a Clifford workload can run at this size with "
            "--backend auto or stabilizer"));
    }
    return kind;
}

// ------------------------------------------------ trajectory state

/** State of one trajectory run, reused across trajectories. */
class TrajectoryRunner
{
  public:
    TrajectoryRunner(const Backend &backend,
                     const detail::NoiseSources &sources,
                     std::size_t num_qubits, std::size_t num_clbits)
        : _backend(backend),
          _numQubits(num_qubits),
          _clbits(num_clbits, 0),
          _pendingT1(num_qubits, 0.0),
          _zBuffer()
    {
        // Partition the composed sources by the hooks they want,
        // preserving composition order inside each list (the RNG
        // draw-order contract of sim/noise/source.hh).  Shots are
        // owned here and reused across trajectories; each hook list
        // pairs the source with its shot so the hot loops never
        // search.
        for (const auto &owned : sources) {
            const NoiseSource *source = owned.get();
            NoiseSource::Shot *shot = nullptr;
            if (auto fresh = source->makeShot()) {
                shot = fresh.get();
                _shots.push_back(std::move(fresh));
            }
            if (source->wantsShotQubitSampling())
                _shotQubitHooks.push_back({source, shot});
            if (source->wantsShotSampling())
                _shotHooks.push_back({source, shot});
            if (source->wantsSegmentHook())
                _segmentHooks.push_back({source, shot});
            if (source->wantsIdleFlush())
                _idleHooks.push_back(source);
            if (source->wantsGateHook())
                _gateHooks.push_back(source);
            if (source->wantsMeasureHook())
                _measureHooks.push_back(source);
        }
    }

    /** Execute one trajectory of `variant` on substrate `kind`. */
    void
    run(const CompiledVariant &variant, SimBackendKind kind, Rng &rng,
        const std::vector<PauliString> &observables, double *out,
        PrefixStateMode prefix_mode)
    {
        _state = &stateFor(kind);

        // Fork from the variant's prefix checkpoint when allowed:
        // the prefix consumes no RNG, so skipping it leaves the
        // trajectory's random stream untouched, and the checkpoint
        // was produced by the identical FP op sequence, so the
        // result is bit-identical to a full replay.
        std::size_t first_event = 0;
        if (prefix_mode == PrefixStateMode::Auto &&
            variant.prefixEvents > 0) {
            _state->assign(*variant.prefixCheckpoint(kind));
            std::fill(_pendingT1.begin(), _pendingT1.end(),
                      variant.prefixPendingT1);
            first_event = variant.prefixEvents;
        } else {
            _state->reset();
            std::fill(_pendingT1.begin(), _pendingT1.end(), 0.0);
        }
        std::fill(_clbits.begin(), _clbits.end(), 0);
        sampleShotNoise(rng);

        const auto &segments = variant.timeline.segments();
        const auto &insts =
            variant.timeline.circuit().instructions();
        const auto &events = variant.timeline.events();
        for (std::size_t e = first_event; e < events.size(); ++e) {
            const TimelineEvent &event = events[e];
            if (event.kind == TimelineEvent::Kind::Segment) {
                applySegment(variant, variant.plans[event.index],
                             segments[event.index], rng);
            } else {
                fire(variant, insts[event.index], event.index, rng);
            }
        }
        flushAllT1(rng);
        _state->expectations(observables, {out, observables.size()});
    }

    /** Full passes over the dense state by this runner so far. */
    std::uint64_t
    denseSweeps() const
    {
        return _dense ? _dense->sweeps() : 0;
    }

  private:
    /** A source paired with its per-shot state (null if stateless). */
    using SourceShot =
        std::pair<const NoiseSource *, NoiseSource::Shot *>;

    const Backend &_backend;
    std::size_t _numQubits;

    std::vector<std::unique_ptr<NoiseSource::Shot>> _shots;
    std::vector<SourceShot> _shotQubitHooks;
    std::vector<SourceShot> _shotHooks;
    std::vector<SourceShot> _segmentHooks;
    std::vector<const NoiseSource *> _idleHooks;
    std::vector<const NoiseSource *> _gateHooks;
    std::vector<const NoiseSource *> _measureHooks;

    /**
     * Both substrates, built lazily so a pure-Clifford ensemble
     * never allocates the 2^n dense state (which is what lets
     * 50-100+ qubit workloads through) and a dense ensemble never
     * pays for a tableau.
     */
    std::unique_ptr<DenseBackend> _dense;
    std::unique_ptr<StateBackend> _tableau;
    StateBackend *_state = nullptr; //!< this trajectory's substrate

    std::vector<int> _clbits;
    std::vector<double> _pendingT1;
    std::vector<QubitAngle> _zBuffer;

    StateBackend &
    stateFor(SimBackendKind kind)
    {
        if (kind == SimBackendKind::Stabilizer) {
            if (!_tableau)
                _tableau = makeStateBackend(kind, _numQubits);
            return *_tableau;
        }
        if (!_dense)
            _dense = std::make_unique<DenseBackend>(_numQubits);
        return *_dense;
    }

    void
    sampleShotNoise(Rng &rng)
    {
        // Qubit-major, mechanism-inner: sweep qubits once, letting
        // every per-qubit sampler draw for qubit q before moving to
        // q+1 (RNG rule 2 of sim/noise/source.hh).  Whole-shot
        // samplers run after the sweep, in composition order.
        for (std::uint32_t q = 0; q < _numQubits; ++q) {
            for (const auto &[source, shot] : _shotQubitHooks)
                source->sampleShotQubit(shot, q, rng);
        }
        for (const auto &[source, shot] : _shotHooks)
            source->sampleShot(shot, rng);
    }

    void
    applySegment(const CompiledVariant &variant,
                 const SegmentPlan &plan, const Segment &seg,
                 Rng &rng)
    {
        // Convention: a Hamiltonian term (nu/2) Z acting for tau
        // gives the Rz angle theta = 2 pi nu tau, which is what
        // applyPhases consumes.  The per-source contributions sum
        // in composition order; sources that draw (the dephasing
        // jump) do so inside their segmentPhase, so the stream
        // stays per-qubit-ordered.
        const double tau = seg.duration();
        _zBuffer.assign(plan.detZ.begin(), plan.detZ.end());
        if (!_segmentHooks.empty()) {
            const double *planned =
                variant.planned.data() + plan.plannedRow;
            for (std::uint32_t q = 0; q < seg.qubits.size(); ++q) {
                const int sign = seg.qubits[q].frameSign;
                double theta = 0.0;
                for (const auto &[source, shot] : _segmentHooks) {
                    theta += source->segmentPhase(shot, q, sign, tau,
                                                  *planned++, rng);
                }
                if (theta != 0.0)
                    _zBuffer.push_back(QubitAngle{q, theta});
            }
        }
        _state->applyPhases(_zBuffer, plan.detZz);

        if (!_idleHooks.empty()) {
            for (std::uint32_t q = 0; q < _numQubits; ++q)
                _pendingT1[q] += tau;
        }
    }

    void
    flushT1(std::uint32_t q, Rng &rng)
    {
        if (_idleHooks.empty() || _pendingT1[q] <= 0.0)
            return;
        for (const NoiseSource *source : _idleHooks)
            source->flushIdle(*_state, q, _pendingT1[q], rng);
        _pendingT1[q] = 0.0;
    }

    void
    flushAllT1(Rng &rng)
    {
        for (std::uint32_t q = 0; q < _numQubits; ++q)
            flushT1(q, rng);
    }

    void
    fire(const CompiledVariant &variant, const TimedInstruction &timed,
         std::size_t index, Rng &rng)
    {
        const Instruction &inst = timed.inst;
        if (inst.isConditional() &&
            _clbits[inst.condBit] != inst.condValue) {
            return;
        }
        switch (inst.op) {
          case Op::Measure: {
            const std::uint32_t q = inst.qubits[0];
            flushT1(q, rng);
            int outcome = _state->measure(q, rng);
            for (const NoiseSource *source : _measureHooks)
                outcome = source->onMeasurement(q, outcome, rng);
            _clbits[inst.cbit] = outcome;
            return;
          }
          case Op::Reset: {
            const std::uint32_t q = inst.qubits[0];
            flushT1(q, rng);
            if (_state->measure(q, rng) == 1)
                _state->applyPauliOp(PauliOp::X, q);
            return;
          }
          case Op::I:
            return;
          default:
            break;
        }
        // Virtual diagonal gates: exact, free, no T1 flush needed
        // (they commute with the damping Kraus operators).
        if (opIsVirtual(inst.op)) {
            if (inst.op == Op::RZ) {
                _zBuffer.assign(
                    1, QubitAngle{inst.qubits[0], inst.params[0]});
                _state->applyPhases(_zBuffer, {});
            } else {
                variant.applyGate(*_state, index);
            }
            return;
        }
        for (auto q : inst.qubits)
            flushT1(q, rng);
        variant.applyGate(*_state, index);
        for (const NoiseSource *source : _gateHooks)
            source->onGate(*_state, inst, timed.duration, rng);
    }
};

// ------------------------------------------- fixed-order reduction

/** Pairwise (cascade) sum of transform(v[lo..hi)) in index order. */
template <typename Transform>
double
pairwiseSum(const double *v, std::size_t lo, std::size_t hi,
            const Transform &transform)
{
    if (hi - lo <= 8) {
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            sum += transform(v[i]);
        return sum;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    return pairwiseSum(v, lo, mid, transform) +
           pairwiseSum(v, mid, hi, transform);
}

/** Trajectory-block boundaries: `blocks` near-equal ranges. */
std::vector<std::pair<int, int>>
splitRange(int total, int blocks)
{
    std::vector<std::pair<int, int>> ranges;
    blocks = std::max(1, std::min(blocks, total));
    const int base = total / blocks;
    const int extra = total % blocks;
    int begin = 0;
    for (int b = 0; b < blocks; ++b) {
        const int size = base + (b < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + size);
        begin += size;
    }
    return ranges;
}

/** Reduce the slots of a single-shard run, with its counters. */
RunResult
reduceShard(const ShardSlots &shard, const ExecutionOptions &opts,
            std::size_t observables)
{
    RunResult result = reduceTrajectorySlots(
        shard.slots, std::size_t(opts.trajectories), observables);
    result.stabilizerTrajectories = shard.stabilizerTrajectories;
    result.prefixStateHits = shard.prefixStateHits;
    result.denseSweeps = shard.denseSweeps;
    return result;
}

} // namespace

// ---------------------------------------------------------- engine

const char *
prefixStateModeName(PrefixStateMode mode)
{
    switch (mode) {
      case PrefixStateMode::Auto:
        return "auto";
      case PrefixStateMode::Off:
        return "off";
    }
    return "?";
}

std::optional<PrefixStateMode>
prefixStateModeFromName(const std::string &name)
{
    if (name == "auto")
        return PrefixStateMode::Auto;
    if (name == "off")
        return PrefixStateMode::Off;
    return std::nullopt;
}

SimulationEngine::SimulationEngine(const Backend &backend,
                                   const NoiseModel &noise)
    : SimulationEngine(backend, noise.buildSources(backend))
{
}

SimulationEngine::SimulationEngine(
    const Backend &backend,
    std::vector<std::unique_ptr<NoiseSource>> sources)
    : _backend(backend), _sources(std::move(sources))
{
}

SimulationEngine::~SimulationEngine() = default;

std::shared_ptr<const CompiledVariant>
SimulationEngine::compiledVariant(const ScheduledCircuit &circuit,
                                  bool use_cache)
{
    casq_assert(circuit.numQubits() == _backend.numQubits(),
                "circuit width ", circuit.numQubits(),
                " != backend width ", _backend.numQubits());
    const std::uint64_t print = scheduleFingerprint(circuit);
    if (use_cache) {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        const auto it = _cache.find(print);
        if (it != _cache.end()) {
            for (const auto &entry : it->second) {
                if (sameSchedule(entry->timeline.circuit(),
                                 circuit)) {
                    ++_cacheHits;
                    return entry;
                }
            }
        }
    }
    auto variant =
        std::make_shared<CompiledVariant>(circuit, _sources);
    variant->fingerprint = print;
    if (use_cache) {
        std::lock_guard<std::mutex> lock(_cacheMutex);
        // A racing worker may have compiled the same schedule; keep
        // the first entry so later hits share one plan, and count
        // the lost race as a hit so the counters do not depend on
        // scheduling.
        if (const auto it = _cache.find(print); it != _cache.end()) {
            for (const auto &entry : it->second) {
                if (sameSchedule(entry->timeline.circuit(),
                                 circuit)) {
                    ++_cacheHits;
                    return entry;
                }
            }
        }
        ++_cacheMisses;
        if (_cacheCount >= kMaxCachedVariants) {
            _cache.clear();
            _cacheCount = 0;
        }
        _cache[print].push_back(variant);
        ++_cacheCount;
    }
    return variant;
}

ThreadPool &
SimulationEngine::pool(unsigned threads)
{
    if (!_pool || _pool->threadCount() != threads)
        _pool = std::make_unique<ThreadPool>(threads);
    return *_pool;
}

RunResult
reduceTrajectorySlots(const std::vector<double> &slots,
                      std::size_t trajectories,
                      std::size_t observables)
{
    RunResult result;
    result.trajectories = int(trajectories);
    result.means.resize(observables);
    result.stderrs.resize(observables);
    const double n = double(trajectories);
    std::vector<double> column(trajectories);
    for (std::size_t k = 0; k < observables; ++k) {
        for (std::size_t t = 0; t < trajectories; ++t)
            column[t] = slots[t * observables + k];
        const double sum = pairwiseSum(
            column.data(), 0, trajectories,
            [](double v) { return v; });
        const double sumsq = pairwiseSum(
            column.data(), 0, trajectories,
            [](double v) { return v * v; });
        const double mean = sum / n;
        result.means[k] = mean;
        if (n > 1.5) {
            const double var = std::max(
                0.0, (sumsq - n * mean * mean) / (n - 1.0));
            result.stderrs[k] = std::sqrt(var / n);
        }
    }
    return result;
}

RunResult
SimulationEngine::run(const ScheduledCircuit &circuit,
                      const std::vector<PauliString> &observables,
                      const ExecutionOptions &opts)
{
    return run(std::vector<ScheduledCircuit>{circuit}, observables,
               opts);
}

ShardSlots
SimulationEngine::dispatch(std::size_t instances,
                           const VariantResolver &resolve,
                           const std::vector<PauliString> &observables,
                           const ExecutionOptions &opts,
                           std::uint32_t shard_index,
                           std::uint32_t shard_count)
{
    casq_assert(shard_count >= 1, "need at least one shard");
    casq_assert(shard_index < shard_count, "shard index ",
                shard_index, " out of range for ", shard_count,
                " shard(s)");
    casq_assert(opts.trajectories > 0, "need at least 1 trajectory");

    const std::size_t V = instances;
    const std::size_t total = std::size_t(opts.trajectories);
    const std::size_t K = observables.size();
    const std::size_t S = shard_count;
    const std::size_t k0 = shard_index;
    const Rng master(opts.seed);

    // This shard owns global trajectories t = k0, k0 + S, ...; the
    // j-th of them writes slot j.  Group the owned trajectories by
    // the instance they execute (t mod V) so each needed instance is
    // resolved exactly once and simulates the moment it is resolved
    // -- no cross-instance barrier.  When S divides V this grouping
    // visits exactly the instances i = k0 (mod S).
    const std::size_t owned =
        total > k0 ? (total - k0 + S - 1) / S : 0;
    std::vector<std::vector<std::size_t>> ordinals_of(V);
    for (std::size_t j = 0; j < owned; ++j)
        ordinals_of[(k0 + j * S) % V].push_back(j);

    ShardSlots out;
    out.slots.assign(owned * K, 0.0);
    for (std::size_t i = 0; i < V; ++i)
        if (!ordinals_of[i].empty())
            out.instances.push_back(std::uint32_t(i));
    const std::size_t N = out.instances.size();
    out.fingerprints.assign(N, 0);

    // Substrate and prefix-fork decision of each needed instance,
    // written by the task that resolves it (disjoint slots, read
    // only after the join below).
    std::vector<SimBackendKind> kinds(N, SimBackendKind::Dense);
    std::vector<unsigned char> prefixed(N, 0);
    const auto resolveInstance = [&](std::size_t n) {
        auto variant = resolve(out.instances[n]);
        out.fingerprints[n] = variant->fingerprint;
        kinds[n] = resolveTrajectoryBackend(opts.backend, *variant,
                                            _backend.numQubits());
        prefixed[n] = opts.prefixState == PrefixStateMode::Auto &&
                      variant->prefixEvents > 0;
        return variant;
    };
    const auto ordinalsOf = [&](std::size_t n) -> const auto & {
        return ordinals_of[out.instances[n]];
    };
    std::atomic<std::uint64_t> sweeps{0};
    const auto simulate = [&](const CompiledVariant &variant,
                              std::size_t n, std::size_t o0,
                              std::size_t o1) {
        TrajectoryRunner runner(_backend, _sources,
                                _backend.numQubits(),
                                variant.timeline.circuit().numClbits());
        for (std::size_t o = o0; o < o1; ++o) {
            const std::size_t j = ordinalsOf(n)[o];
            Rng rng = master.derive(std::uint64_t(k0 + j * S));
            runner.run(variant, kinds[n], rng, observables,
                       out.slots.data() + j * K, opts.prefixState);
        }
        sweeps += runner.denseSweeps();
    };

    const unsigned threads = std::min<std::size_t>(
        ThreadPool::resolveThreads(
            unsigned(std::max(0, opts.threads))),
        owned);
    if (threads <= 1) {
        for (std::size_t n = 0; n < N; ++n) {
            const auto variant = resolveInstance(n);
            simulate(*variant, n, 0, ordinalsOf(n).size());
        }
    } else {
        // One pool drives both stages: each resolve task streams its
        // variant into simulation sub-tasks on the same pool
        // (submitting from a worker is safe -- the pending count can
        // only reach zero after every nested submit).
        // Pool tasks may not throw: the error an instance raises (a
        // UserError from resolveTrajectoryBackend, say) is kept in
        // its own slot, and after the join the lowest instance's is
        // rethrown, as the serial loop would have thrown it.
        ThreadPool &workers = pool(threads);
        std::vector<std::exception_ptr> failures(N);
        const int subtasks =
            std::max(1, int(threads) * 2 / std::max(1, int(N)));
        for (std::size_t n = 0; n < N; ++n) {
            workers.submit([&, n] {
                try {
                    const auto variant = resolveInstance(n);
                    for (const auto &[o0, o1] : splitRange(
                             int(ordinalsOf(n).size()), subtasks)) {
                        workers.submit(
                            [&, variant, n, o0 = o0, o1 = o1] {
                                simulate(*variant, n, std::size_t(o0),
                                         std::size_t(o1));
                            });
                    }
                } catch (...) {
                    failures[n] = std::current_exception();
                }
            });
        }
        workers.wait();
        for (const std::exception_ptr &failure : failures)
            if (failure)
                std::rethrow_exception(failure);
    }

    for (std::size_t n = 0; n < N; ++n) {
        const std::size_t count = ordinalsOf(n).size();
        if (kinds[n] == SimBackendKind::Stabilizer)
            out.stabilizerTrajectories += int(count);
        if (prefixed[n])
            out.prefixStateHits += count;
    }
    out.denseSweeps = sweeps;
    return out;
}

RunResult
SimulationEngine::run(const std::vector<ScheduledCircuit> &variants,
                      const std::vector<PauliString> &observables,
                      const ExecutionOptions &opts)
{
    casq_assert(!variants.empty(), "no circuit variants to run");
    return reduceShard(
        dispatch(
            variants.size(),
            [&](std::size_t k) {
                return compiledVariant(variants[k],
                                       opts.cacheVariants);
            },
            observables, opts, 0, 1),
        opts, observables.size());
}

RunResult
SimulationEngine::runEnsemble(
    const LayeredCircuit &logical, PassManager &pipeline,
    const std::vector<PauliString> &observables,
    const EnsembleRunOptions &opts)
{
    return reduceShard(
        runShard(logical, pipeline, observables, opts, 0, 1), opts,
        observables.size());
}

ShardSlots
SimulationEngine::runShard(
    const LayeredCircuit &logical, PassManager &pipeline,
    const std::vector<PauliString> &observables,
    const EnsembleRunOptions &opts, std::uint32_t shard_index,
    std::uint32_t shard_count)
{
    EnsembleOptions compile;
    compile.instances = opts.instances;
    compile.seed = opts.compileSeed;
    compile.prefixCache = opts.prefixCache;
    compile.threads = 1; // the dispatch pool owns the workers
    const EnsemblePlan plan =
        pipeline.planEnsemble(logical, _backend, compile);
    if (plan.prefixLength() > 0)
        debug("shard ", shard_index, "/", shard_count, ": ",
              plan.prefixLength(),
              " deterministic prefix pass(es) compiled once for ",
              plan.instanceCount(), " instance(s)");

    return dispatch(
        std::size_t(plan.instanceCount()),
        [&](std::size_t k) {
            return compiledVariant(plan.compileInstance(k).scheduled,
                                   opts.cacheVariants);
        },
        observables, opts, shard_index, shard_count);
}

std::size_t
SimulationEngine::variantCacheSize() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheCount;
}

std::size_t
SimulationEngine::variantCacheHits() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheHits;
}

std::size_t
SimulationEngine::variantCacheMisses() const
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    return _cacheMisses;
}

void
SimulationEngine::clearVariantCache()
{
    std::lock_guard<std::mutex> lock(_cacheMutex);
    _cache.clear();
    _cacheCount = 0;
}

} // namespace casq
