#include "sim/backend.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "sim/stabilizer.hh"

namespace casq {

const char *
simBackendKindName(SimBackendKind kind)
{
    switch (kind) {
      case SimBackendKind::Auto:
        return "auto";
      case SimBackendKind::Dense:
        return "dense";
      case SimBackendKind::Stabilizer:
        return "stabilizer";
    }
    return "?";
}

std::optional<SimBackendKind>
simBackendKindFromName(const std::string &name)
{
    if (name == "auto")
        return SimBackendKind::Auto;
    if (name == "dense")
        return SimBackendKind::Dense;
    if (name == "stabilizer")
        return SimBackendKind::Stabilizer;
    return std::nullopt;
}

namespace {

std::uint64_t
bit(std::uint32_t q)
{
    return std::uint64_t(1) << q;
}

} // namespace

void
DenseBackend::Frame::clearOperators()
{
    std::fill(z.begin(), z.end(), 0.0);
    std::fill(zz.begin(), zz.end(), 0.0);
    x = 0;
    zBits = 0;
}

DenseBackend::DenseBackend(std::size_t num_qubits)
    : _state(num_qubits)
{
    _frame.z.assign(num_qubits, 0.0);
    _frame.zz.assign(num_qubits * num_qubits, 0.0);
    _frame.w.assign(2 * num_qubits, 1.0);
}

void
DenseBackend::reset()
{
    _state.reset();
    _frame.clearOperators();
    std::fill(_frame.w.begin(), _frame.w.end(), 1.0);
    _frame.weighted = false;
    _frame.norm2 = _frame.floor2 = 1.0;
}

void
DenseBackend::assign(const StateBackend &src)
{
    casq_assert(src.kind() == SimBackendKind::Dense &&
                    src.numQubits() == _state.numQubits(),
                "assign needs a dense backend of the same width");
    // Reads the source's members directly: a shared prefix
    // checkpoint is never flushed, so concurrent forks never write
    // to it.
    const auto &other = static_cast<const DenseBackend &>(src);
    _state.copyFrom(other._state);
    _frame = other._frame;
}

double &
DenseBackend::pair(std::uint32_t a, std::uint32_t b) const
{
    const std::size_t n = _state.numQubits();
    return _frame.zz[a < b ? a * n + b : b * n + a];
}

void
DenseBackend::flipSigns(std::uint32_t q)
{
    _frame.z[q] = -_frame.z[q];
    for (std::uint32_t p = 0; p < _state.numQubits(); ++p) {
        if (p != q) {
            double &theta = pair(q, p);
            theta = -theta;
        }
    }
}

const std::vector<PairAngle> &
DenseBackend::takeCoupling(std::uint64_t mask)
{
    // D P = P (P D P): pulled through the Pauli frame, a pending
    // Rzz term flips sign when exactly one of its qubits carries an
    // X bit.
    _coupling.clear();
    const std::uint32_t n = std::uint32_t(_state.numQubits());
    for (std::uint32_t q = 0; q < n; ++q) {
        if (!(mask & bit(q)))
            continue;
        for (std::uint32_t p = 0; p < n; ++p) {
            double &theta = pair(q, p);
            if ((mask & bit(p)) || theta == 0.0)
                continue;
            _coupling.push_back(PairAngle{
                q, p, xBit(q) != xBit(p) ? -theta : theta});
            theta = 0.0;
        }
    }
    return _coupling;
}

void
DenseBackend::clearQubits(std::uint64_t mask)
{
    for (std::uint32_t q = 0; q < _state.numQubits(); ++q) {
        if (!(mask & bit(q)))
            continue;
        _frame.z[q] = 0.0;
        for (std::uint32_t p = 0; p < _state.numQubits(); ++p)
            if (p != q)
                pair(q, p) = 0.0;
        _frame.w[2 * q] = _frame.w[2 * q + 1] = 1.0;
    }
    _frame.x &= ~mask;
    _frame.zBits &= ~mask;
}

void
DenseBackend::settle(std::uint32_t q, int value)
{
    const double sign = value ? -1.0 : 1.0;
    _frame.z[q] = 0.0;
    for (std::uint32_t p = 0; p < _state.numQubits(); ++p) {
        if (p == q)
            continue;
        double &theta = pair(q, p);
        _frame.z[p] += sign * theta;
        theta = 0.0;
    }
    // The stored qubit is a basis state, so its Z bit is a phase.
    _frame.zBits &= ~bit(q);
}

std::array<double, 2>
DenseBackend::flushWeights(std::uint32_t q) const
{
    std::vector<QubitWeight> weights;
    for (std::uint32_t p = 0; p < _state.numQubits(); ++p) {
        const double w0 = _frame.w[2 * p], w1 = _frame.w[2 * p + 1];
        if (w0 != 1.0 || w1 != 1.0)
            weights.push_back(QubitWeight{p, w0, w1});
    }
    const std::array<double, 2> pop = _state.applyWeights(weights, q);
    std::fill(_frame.w.begin(), _frame.w.end(), 1.0);
    _frame.weighted = false;
    _frame.norm2 = _frame.floor2 = pop[0] + pop[1];
    return pop;
}

void
DenseBackend::normalize() const
{
    const double s = 1.0 / std::sqrt(_frame.norm2);
    _state.applyWeights({QubitWeight{0, s, s}}, 0);
    _frame.norm2 = _frame.floor2 = 1.0;
}

double
DenseBackend::storedProbability(std::uint32_t q, int s) const
{
    const double p = _frame.weighted ? flushWeights(q)[s]
                                     : _state.probability(q, s);
    return p / _frame.norm2;
}

void
DenseBackend::flush() const
{
    if (_frame.weighted)
        flushWeights(0);
    const std::size_t n = _state.numQubits();
    if (_frame.x | _frame.zBits) {
        PauliString frame(n);
        for (std::uint32_t q = 0; q < n; ++q) {
            const bool x = (_frame.x >> q) & 1;
            const bool z = (_frame.zBits >> q) & 1;
            frame.setOp(q, x ? (z ? PauliOp::Y : PauliOp::X)
                             : (z ? PauliOp::Z : PauliOp::I));
        }
        _state.applyPauli(frame);
    }
    std::vector<QubitAngle> z_angles;
    std::vector<PairAngle> zz_angles;
    for (std::uint32_t q = 0; q < n; ++q) {
        if (_frame.z[q] != 0.0)
            z_angles.push_back(QubitAngle{q, _frame.z[q]});
        for (std::uint32_t p = q + 1; p < n; ++p)
            if (pair(q, p) != 0.0)
                zz_angles.push_back(PairAngle{q, p, pair(q, p)});
    }
    _state.applyPhases(z_angles, zz_angles);
    _frame.clearOperators();
}

Statevector &
DenseBackend::state()
{
    return const_cast<Statevector &>(std::as_const(*this).state());
}

const Statevector &
DenseBackend::state() const
{
    flush();
    if (_frame.norm2 != 1.0)
        normalize();
    return _state;
}

void
DenseBackend::applyGate1q(const CMat &u, std::uint32_t q,
                          const CliffordImages1Q *)
{
    const Complex zero{};
    const Complex a = u(0, 0), b = u(0, 1);
    const Complex c = u(1, 0), d = u(1, 1);
    if (b == zero && c == zero) {
        if (a == -d)
            applyPauliOp(PauliOp::Z, q);
        else if (a != d)
            _frame.z[q] += std::arg(d) - std::arg(a);
        return;
    }
    if (a == zero && d == zero && (b == c || b == -c)) {
        applyPauliOp(b == c ? PauliOp::X : PauliOp::Y, q);
        return;
    }
    // Fold: the true state after u is u D P W |phi>, so u meets the
    // frame's part on q as u . Rz(theta) . X^x Z^z . diag(w0, w1);
    // the Rzz terms from q to the rest ride along in the same pass.
    const std::vector<PairAngle> &coupling = takeCoupling(bit(q));
    const double theta = _frame.z[q];
    const Complex e0 = std::polar(1.0, -0.5 * theta);
    const Complex e1 = std::polar(1.0, 0.5 * theta);
    const std::size_t x = xBit(q);
    const bool z = (_frame.zBits >> q) & 1;
    const Complex col[2][2] = {{a * e0, c * e0}, {b * e1, d * e1}};
    CMat fold(2, 2);
    for (std::size_t j = 0; j < 2; ++j) {
        const double f = (z && j == 1 ? -1.0 : 1.0) * _frame.w[2 * q + j];
        fold(0, j) = col[j ^ x][0] * f;
        fold(1, j) = col[j ^ x][1] * f;
    }
    _state.applyGate1q(fold, q, coupling);
    clearQubits(bit(q));
}

void
DenseBackend::applyGate2q(const CMat &u, std::uint32_t q0,
                          std::uint32_t q1, const CliffordImages2Q *)
{
    bool diagonal = true;
    for (std::size_t r = 0; r < 4 && diagonal; ++r)
        for (std::size_t c = 0; c < 4 && diagonal; ++c)
            diagonal = r == c || u(r, c) == Complex{};
    if (diagonal) {
        // diag(d_k), k = b0 + 2 b1, is a global phase times
        // Rz(t0) on q0, Rz(t1) on q1 and Rzz(phi): solve for the
        // angles from the eigenphases.
        double al[4];
        for (std::size_t k = 0; k < 4; ++k)
            al[k] = std::arg(u(k, k));
        _frame.z[q0] += 0.5 * (al[1] - al[0] + al[3] - al[2]);
        _frame.z[q1] += 0.5 * (al[2] - al[0] + al[3] - al[1]);
        pair(q0, q1) += 0.5 * (al[1] + al[2] - al[0] - al[3]);
        return;
    }
    // Fold, as in applyGate1q: M = u . D_A . P_A . W_A, where D_A
    // holds the pending Rz/Rzz terms within (q0, q1), P_A their frame
    // bits and W_A their weights.
    const std::uint64_t mask = bit(q0) | bit(q1);
    const std::vector<PairAngle> &coupling = takeCoupling(mask);
    const double t0 = _frame.z[q0], t1 = _frame.z[q1];
    const double phi = pair(q0, q1);
    Complex phase[4];
    for (std::size_t k = 0; k < 4; ++k) {
        const double s0 = (k & 1) ? -1.0 : 1.0;
        const double s1 = (k & 2) ? -1.0 : 1.0;
        phase[k] =
            std::polar(1.0, -0.5 * (t0 * s0 + t1 * s1 + phi * s0 * s1));
    }
    const std::size_t xl = xBit(q0) | std::size_t(xBit(q1)) << 1;
    const std::size_t zl = ((_frame.zBits >> q0) & 1) |
                           ((_frame.zBits >> q1) & 1) << 1;
    CMat fold(4, 4);
    for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t k = j ^ xl;
        const Complex f =
            phase[k] * ((__builtin_parityll(j & zl) ? -1.0 : 1.0) *
                        _frame.w[2 * q0 + (j & 1)] *
                        _frame.w[2 * q1 + (j >> 1)]);
        for (std::size_t r = 0; r < 4; ++r)
            fold(r, j) = u(r, k) * f;
    }
    _state.applyGate2q(fold, q0, q1, coupling);
    clearQubits(mask);
}

void
DenseBackend::applyPhases(const std::vector<QubitAngle> &z_angles,
                          const std::vector<PairAngle> &zz_angles)
{
    for (const QubitAngle &za : z_angles)
        _frame.z[za.qubit] += za.theta;
    // A degenerate pair (q0 == q1) is a global phase.
    for (const PairAngle &pa : zz_angles)
        if (pa.q0 != pa.q1)
            pair(pa.q0, pa.q1) += pa.theta;
}

void
DenseBackend::applyPauliOp(PauliOp op, std::uint32_t q)
{
    // P' = op P and D' = op D op: X and Y anticommute with the
    // pending terms on q.
    if (op == PauliOp::X || op == PauliOp::Y) {
        flipSigns(q);
        _frame.x ^= bit(q);
    }
    if (op == PauliOp::Y || op == PauliOp::Z)
        _frame.zBits ^= bit(q);
}

double
DenseBackend::probabilityOne(std::uint32_t q) const
{
    return storedProbability(q, xBit(q) ? 0 : 1);
}

void
DenseBackend::collapse(std::uint32_t q, int outcome)
{
    if (_frame.weighted)
        flushWeights(q);
    _state.collapse(q, outcome ^ int(xBit(q)));
    _frame.norm2 = _frame.floor2 = 1.0;
    settle(q, outcome);
}

void
DenseBackend::noJump(std::uint32_t q, double decay)
{
    // The no-jump Kraus operator diag(1, sqrt(decay)) is diagonal, so
    // it commutes with D and joins W; through an X bit it scales the
    // stored |0>.  It keeps at least `decay` of |W phi|^2, so floor2
    // stays a lower bound.  Renormalizing when that bound passes
    // 2^-500 keeps every amplitude clear of underflow; the rule reads
    // only the draws and the norms already computed, so every thread
    // and shard takes it at the same point.
    _frame.w[2 * q + (xBit(q) ? 0 : 1)] *= std::sqrt(decay);
    _frame.weighted = true;
    _frame.floor2 *= decay;
    if (_frame.floor2 < 0x1p-500) {
        flushWeights(0);
        normalize();
    }
}

void
DenseBackend::amplitudeDamp(std::uint32_t q, double tau, double t1,
                            Rng &rng)
{
    if (tau <= 0.0 || t1 <= 0.0)
        return;
    const double decay = std::exp(-tau / t1);
    const double jump = 1.0 - decay;
    const double u = rng.uniform();
    // The draw jumps iff u < p * jump, with p the probability that q
    // reads 1.  The eager kernel summed p over a state it had
    // normalized at the last damping draw or collapse, so its p
    // exceeds 1 by at most the summation error plus the norm drift
    // since: recursively summing 2^(n-1) <= 2^23 rounded non-negative
    // terms is off by about 2^23 * 2^-53 = 2^-30 relative at most
    // (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd
    // ed., section 4.2), and each unitary kernel moves the squared
    // norm by a few units of 2^-53, so the excess stays below 2^-21
    // unless some 2^29 kernels run in between.  A draw 2^-20 clear of
    // `jump` therefore jumps on neither path, and needs no read.
    if (u >= jump + jump * 0x1p-20) {
        noJump(q, decay);
        return;
    }
    const int excited = xBit(q) ? 0 : 1;
    const double p = storedProbability(q, excited);
    if (u < p * jump) {
        // Jump: the stored excited half decays into the other one,
        // normalized by its own norm.  A jump reads q as 1 first.
        CMat lower(2, 2);
        lower(1 - excited, excited) = 1.0 / std::sqrt(p * _frame.norm2);
        _state.applyGate1q(lower, q);
        _frame.norm2 = _frame.floor2 = 1.0;
        settle(q, 1);
        return;
    }
    noJump(q, decay);
}

void
DenseBackend::expectations(std::span<const PauliString> observables,
                           std::span<double> out) const
{
    casq_assert(out.size() == observables.size(),
                "one output per observable");
    if (_frame.weighted)
        flushWeights(0);
    const auto zMask = [&](const PauliString &p) {
        std::uint64_t zmask = 0;
        for (std::uint32_t q = 0; q < _state.numQubits(); ++q) {
            const PauliOp op = p.op(q);
            if (op == PauliOp::X || op == PauliOp::Y)
                return std::optional<std::uint64_t>();
            if (op == PauliOp::Z)
                zmask |= bit(q);
        }
        return std::optional<std::uint64_t>(zmask);
    };
    std::size_t k = 0;
    while (k < observables.size()) {
        // A run of Z-type strings with a real phase: D commutes with
        // them, and P only adds its sign.
        _zMasks.clear();
        std::size_t end = k;
        for (; end < observables.size(); ++end) {
            const auto zmask = zMask(observables[end]);
            if (!zmask || observables[end].phasePower() % 2)
                break;
            _zMasks.push_back(*zmask);
        }
        if (end == k) {
            // Any other string reads the flushed state.
            flush();
            out[k] = _state.expectation(observables[k]) / _frame.norm2;
            ++k;
            continue;
        }
        const std::span<double> run = out.subspan(k, end - k);
        _state.zExpectations(_zMasks, run);
        for (std::size_t j = 0; j < run.size(); ++j) {
            const double value = run[j] / _frame.norm2;
            const bool flip = __builtin_parityll(_frame.x & _zMasks[j]) !=
                              (observables[k + j].phasePower() == 2);
            run[j] = flip ? -value : value;
        }
        k = end;
    }
}

double
StateBackend::expectation(const PauliString &p) const
{
    double value = 0.0;
    expectations({&p, 1}, {&value, 1});
    return value;
}

int
StateBackend::measure(std::uint32_t q, Rng &rng)
{
    // One uniform per measurement, drawn after probabilityOne and
    // before collapse, on every backend: the shared sequence is the
    // cross-backend RNG-stream contract (docs/backends.md).
    const double p1 = probabilityOne(q);
    const int outcome = rng.uniform() < p1 ? 1 : 0;
    collapse(q, outcome);
    return outcome;
}

std::unique_ptr<StateBackend>
makeStateBackend(SimBackendKind kind, std::size_t num_qubits)
{
    switch (kind) {
      case SimBackendKind::Dense:
        return std::make_unique<DenseBackend>(num_qubits);
      case SimBackendKind::Stabilizer:
        return std::make_unique<StabilizerBackend>(num_qubits);
      case SimBackendKind::Auto:
        break;
    }
    casq_panic("makeStateBackend: Auto is a routing policy, not a "
               "constructible backend");
}

} // namespace casq
