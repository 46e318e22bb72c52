#include "sim/noise/sources.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

#include "device/backend.hh"
#include "sim/backend.hh"

namespace casq {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 6.28318530717958647692;

/** MHz * ns -> radians. */
double
angleOf(double rate_mhz, double tau_ns)
{
    return kTwoPi * rate_mhz * tau_ns * 1e-3;
}

std::string
qubitBlocker(const char *what, std::uint32_t q)
{
    std::ostringstream os;
    os << what << " on qubit " << q
       << " draws non-Clifford Z angles";
    return os.str();
}

} // namespace

// ------------------------------------------------------ coherent ZZ

void
CoherentZzSource::planSegment(const Segment &seg,
                              std::vector<QubitAngle> &det_z,
                              std::vector<PairAngle> &det_zz) const
{
    const double tau = seg.duration();
    for (const auto &[pair, props] : _backend.pairs()) {
        if (props.zzRateMHz <= 0.0)
            continue;
        const SegmentQubit &sa = seg.qubits[pair.a];
        const SegmentQubit &sb = seg.qubits[pair.b];
        // Intra-gate coupling is part of the calibrated gate and
        // not an error.
        if (sa.instIndex >= 0 && sa.instIndex == sb.instIndex)
            continue;
        const double theta =
            angleOf(props.zzRateMHz, tau) * _scale;
        const double s_a = sa.frameSign;
        const double s_b = sb.frameSign;
        det_z.push_back(QubitAngle{pair.a, -theta * s_a});
        det_z.push_back(QubitAngle{pair.b, -theta * s_b});
        det_zz.push_back(
            PairAngle{pair.a, pair.b, theta * s_a * s_b});
    }
}

// ------------------------------------------------------ Stark shift

void
StarkShiftSource::planSegment(const Segment &seg,
                              std::vector<QubitAngle> &det_z,
                              std::vector<PairAngle> &) const
{
    const double tau = seg.duration();
    for (const auto &[pair, props] : _backend.pairs()) {
        if (props.starkShiftMHz <= 0.0 || props.nextNearest)
            continue;
        const SegmentQubit &sa = seg.qubits[pair.a];
        const SegmentQubit &sb = seg.qubits[pair.b];
        const double theta =
            angleOf(props.starkShiftMHz, tau) * _scale;
        if (sa.driven && !sb.driven)
            det_z.push_back(QubitAngle{pair.b, theta * sb.frameSign});
        if (sb.driven && !sa.driven)
            det_z.push_back(QubitAngle{pair.a, theta * sa.frameSign});
    }
}

// ------------------------------------------------ measurement Stark

void
MeasurementStarkSource::planSegment(
    const Segment &seg, std::vector<QubitAngle> &det_z,
    std::vector<PairAngle> &) const
{
    const double tau = seg.duration();
    for (const auto &[pair, props] : _backend.pairs()) {
        if (props.measureStarkMHz <= 0.0 || props.nextNearest)
            continue;
        const SegmentQubit &sa = seg.qubits[pair.a];
        const SegmentQubit &sb = seg.qubits[pair.b];
        const double theta =
            angleOf(props.measureStarkMHz, tau) * _scale;
        if (sa.role == Role::Measuring &&
            sb.role != Role::Measuring && !sb.driven) {
            det_z.push_back(QubitAngle{pair.b, theta * sb.frameSign});
        }
        if (sb.role == Role::Measuring &&
            sa.role != Role::Measuring && !sa.driven) {
            det_z.push_back(QubitAngle{pair.a, theta * sa.frameSign});
        }
    }
}

// ---------------------------------------------------- charge parity

namespace {

struct SignShot final : NoiseSource::Shot
{
    explicit SignShot(std::size_t n) : sign(n, 1) {}
    std::vector<int> sign;
};

struct ValueShot final : NoiseSource::Shot
{
    explicit ValueShot(std::size_t n) : value(n, 0.0) {}
    std::vector<double> value;
};

} // namespace

std::unique_ptr<NoiseSource::Shot>
ChargeParitySource::makeShot() const
{
    return std::make_unique<SignShot>(_backend.numQubits());
}

void
ChargeParitySource::sampleShotQubit(Shot *shot, std::uint32_t q,
                                    Rng &rng) const
{
    static_cast<SignShot *>(shot)->sign[q] = rng.randomSign();
}

double
ChargeParitySource::planSegmentQubit(std::uint32_t q, double) const
{
    return _backend.qubit(q).chargeParityMHz;
}

double
ChargeParitySource::segmentPhase(Shot *shot, std::uint32_t q,
                                 int frame_sign, double tau,
                                 double rate, Rng &) const
{
    if (rate == 0.0)
        return 0.0;
    const int sign = static_cast<SignShot *>(shot)->sign[q];
    return angleOf(sign * rate, tau) * frame_sign;
}

std::string
ChargeParitySource::cliffordBlocker() const
{
    for (std::uint32_t q = 0; q < _backend.numQubits(); ++q) {
        if (_backend.qubit(q).chargeParityMHz != 0.0)
            return qubitBlocker("charge-parity dephasing", q);
    }
    return "";
}

// ------------------------------------------------------ quasi-static

std::unique_ptr<NoiseSource::Shot>
QuasiStaticSource::makeShot() const
{
    return std::make_unique<ValueShot>(_backend.numQubits());
}

void
QuasiStaticSource::sampleShotQubit(Shot *shot, std::uint32_t q,
                                   Rng &rng) const
{
    static_cast<ValueShot *>(shot)->value[q] =
        rng.normal(0.0, _backend.qubit(q).quasiStaticSigmaMHz);
}

double
QuasiStaticSource::segmentPhase(Shot *shot, std::uint32_t q,
                                int frame_sign, double tau, double,
                                Rng &) const
{
    const double detuning =
        static_cast<ValueShot *>(shot)->value[q];
    if (detuning == 0.0)
        return 0.0;
    return angleOf(detuning, tau) * frame_sign;
}

std::string
QuasiStaticSource::cliffordBlocker() const
{
    for (std::uint32_t q = 0; q < _backend.numQubits(); ++q) {
        if (_backend.qubit(q).quasiStaticSigmaMHz != 0.0)
            return qubitBlocker("quasi-static detuning", q);
    }
    return "";
}

// -------------------------------------------------- white dephasing

double
WhiteDephasingSource::jumpProbability(std::uint32_t q,
                                      double tau) const
{
    const QubitProperties &props = _backend.qubit(q);
    // A backend with t2Ns <= 0 has dephasing disabled; the rate
    // would otherwise overflow to +inf and saturate the jump
    // probability at 1/2.
    if (props.t2Ns <= 0.0)
        return 0.0;
    // Pure-dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1).
    double rate = 1.0 / props.t2Ns;
    if (_subtractT1 && props.t1Ns > 0.0)
        rate -= 0.5 / props.t1Ns;
    if (rate <= 0.0)
        return 0.0;
    return 0.5 * (1.0 - std::exp(-tau * rate));
}

double
WhiteDephasingSource::segmentPhase(Shot *, std::uint32_t, int,
                                   double, double jump_probability,
                                   Rng &rng) const
{
    // Rz(pi) is a Z flip up to global phase; jump signs are
    // frame-independent, so the toggling frame never refocuses them.
    // tau <= 0 plans a probability <= 0, which bernoulli() answers
    // without drawing (RNG rule 3).
    if (rng.bernoulli(jump_probability))
        return kPi;
    return 0.0;
}

// ------------------------------------------------ amplitude damping

void
AmplitudeDampingSource::flushIdle(StateBackend &state,
                                  std::uint32_t q, double tau,
                                  Rng &rng) const
{
    state.amplitudeDamp(q, tau, _backend.qubit(q).t1Ns, rng);
}

std::string
AmplitudeDampingSource::cliffordBlocker() const
{
    for (std::uint32_t q = 0; q < _backend.numQubits(); ++q) {
        if (_backend.qubit(q).t1Ns > 0.0) {
            std::ostringstream os;
            os << "amplitude damping on qubit " << q
               << " is not a Clifford channel";
            return os.str();
        }
    }
    return "";
}

std::string
AmplitudeDampingSource::prefixBlocker() const
{
    return "amplitude damping flushes the pending-T1 clock at "
           "physical gates";
}

// ----------------------------------------------- gate depolarizing

void
GateDepolarizingSource::onGate(StateBackend &state,
                               const Instruction &inst,
                               double duration, Rng &rng) const
{
    double p = 0.0;
    if (inst.qubits.size() == 1) {
        p = _backend.qubit(inst.qubits[0]).gateError1q;
    } else {
        // Pairs without a registered crosstalk edge fall back to the
        // default calibration entry, then receive the exact same
        // per-op scaling as registered pairs.
        p = _backend.hasPair(inst.qubits[0], inst.qubits[1])
                ? _backend.pair(inst.qubits[0], inst.qubits[1])
                      .gateError2q
                : PairProperties{}.gateError2q;
        if (inst.op == Op::Can)
            p *= 3.0; // three-CX-equivalent block
        if (inst.op == Op::RZZ) {
            // Pulse stretching: a short rzz pulse carries
            // proportionally less error than a full echoed gate
            // (paper Sec. IV B).
            p *= std::min(
                1.0, duration / _backend.durations().twoQubit);
        }
    }
    if (!rng.bernoulli(p))
        return;
    if (inst.qubits.size() == 1) {
        const int k = 1 + int(rng.uniformInt(3));
        state.applyPauliOp(PauliOp(k), inst.qubits[0]);
    } else {
        const int k = 1 + int(rng.uniformInt(15));
        const int k0 = k & 3, k1 = (k >> 2) & 3;
        if (k0)
            state.applyPauliOp(PauliOp(k0), inst.qubits[0]);
        if (k1)
            state.applyPauliOp(PauliOp(k1), inst.qubits[1]);
    }
}

std::string
GateDepolarizingSource::prefixBlocker() const
{
    return "gate depolarizing draws a Pauli after every physical "
           "gate";
}

// ------------------------------------------------- readout error

int
ReadoutErrorSource::onMeasurement(std::uint32_t q, int outcome,
                                  Rng &rng) const
{
    if (rng.bernoulli(_backend.qubit(q).readoutError))
        outcome ^= 1;
    return outcome;
}

// ------------------------------------------- correlated dephasing

CorrelatedDephasingSource::CorrelatedDephasingSource(
    const Backend &backend, double sigma_mhz,
    double correlation_length)
    : _backend(backend),
      _sigma(sigma_mhz),
      _xi(correlation_length),
      _n(backend.numQubits()),
      _weights(_n * _n, 0.0)
{
    // Exponential kernel in coupling-graph distance, row-normalized
    // in L2 so field[q] = sigma * sum_p W[q][p] g[p] with iid
    // standard normals g is exactly N(0, sigma^2) per qubit for any
    // correlation length -- no Cholesky factorization needed, and
    // the implied covariance is positive-semidefinite (W W^T) by
    // construction.
    const CouplingMap &coupling = _backend.coupling();
    std::vector<std::int32_t> dist(_n);
    for (std::uint32_t q = 0; q < _n; ++q) {
        std::fill(dist.begin(), dist.end(), -1);
        dist[q] = 0;
        std::deque<std::uint32_t> frontier{q};
        while (!frontier.empty()) {
            const std::uint32_t u = frontier.front();
            frontier.pop_front();
            for (std::uint32_t v : coupling.neighbors(u)) {
                if (dist[v] < 0) {
                    dist[v] = dist[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
        double norm_sq = 0.0;
        for (std::uint32_t p = 0; p < _n; ++p) {
            double w = 0.0;
            if (p == q)
                w = 1.0;
            else if (dist[p] > 0 && _xi > 0.0)
                w = std::exp(-double(dist[p]) / _xi);
            _weights[q * _n + p] = w;
            norm_sq += w * w;
        }
        const double norm = std::sqrt(norm_sq);
        for (std::uint32_t p = 0; p < _n; ++p)
            _weights[q * _n + p] /= norm;
    }
}

double
CorrelatedDephasingSource::weight(std::uint32_t q,
                                  std::uint32_t p) const
{
    return _weights[q * _n + p];
}

namespace {

struct FieldShot final : NoiseSource::Shot
{
    explicit FieldShot(std::size_t n) : field(n, 0.0), g(n, 0.0) {}
    std::vector<double> field;
    std::vector<double> g; //!< scratch: per-fluctuator draws
};

} // namespace

std::unique_ptr<NoiseSource::Shot>
CorrelatedDephasingSource::makeShot() const
{
    return std::make_unique<FieldShot>(_n);
}

void
CorrelatedDephasingSource::sampleShot(Shot *shot, Rng &rng) const
{
    // A disabled source must consume no RNG at all (zero-rate
    // no-op contract); the field stays all zero from construction.
    if (_sigma == 0.0)
        return;
    auto *fs = static_cast<FieldShot *>(shot);
    for (std::uint32_t p = 0; p < _n; ++p)
        fs->g[p] = rng.normal();
    for (std::uint32_t q = 0; q < _n; ++q) {
        double acc = 0.0;
        for (std::uint32_t p = 0; p < _n; ++p)
            acc += _weights[q * _n + p] * fs->g[p];
        fs->field[q] = _sigma * acc;
    }
}

double
CorrelatedDephasingSource::segmentPhase(Shot *shot, std::uint32_t q,
                                        int frame_sign, double tau,
                                        double, Rng &) const
{
    const double detuning =
        static_cast<FieldShot *>(shot)->field[q];
    if (detuning == 0.0)
        return 0.0;
    // Shot-constant detuning: frame flips refocus it like any other
    // quasi-static Z, which is exactly what makes the correlation
    // structure visible to context-aware strategies.
    return angleOf(detuning, tau) * frame_sign;
}

std::string
CorrelatedDephasingSource::cliffordBlocker() const
{
    if (_sigma == 0.0)
        return "";
    return "spatially correlated dephasing draws non-Clifford Z "
           "angles";
}

// ------------------------------------------------------ phase drift

std::unique_ptr<NoiseSource::Shot>
PhaseDriftSource::makeShot() const
{
    return std::make_unique<ValueShot>(_backend.numQubits());
}

void
PhaseDriftSource::sampleShot(Shot *shot, Rng &) const
{
    // Restart the walk at zero detuning each trajectory; the reset
    // draws nothing, so it is prefix-safe.
    auto *vs = static_cast<ValueShot *>(shot);
    std::fill(vs->value.begin(), vs->value.end(), 0.0);
}

double
PhaseDriftSource::planSegmentQubit(std::uint32_t, double tau) const
{
    return _rate * std::sqrt(tau);
}

double
PhaseDriftSource::segmentPhase(Shot *shot, std::uint32_t q,
                               int frame_sign, double tau,
                               double step_scale, Rng &rng) const
{
    // One Wiener increment per (segment, qubit); zero-duration
    // segments advance nothing and must not draw (prefix contract).
    if (_rate == 0.0 || tau <= 0.0)
        return 0.0;
    auto *vs = static_cast<ValueShot *>(shot);
    vs->value[q] += step_scale * rng.normal();
    return angleOf(vs->value[q], tau) * frame_sign;
}

std::string
PhaseDriftSource::cliffordBlocker() const
{
    if (_rate == 0.0)
        return "";
    return "intra-circuit phase drift draws non-Clifford Z angles";
}

} // namespace casq
