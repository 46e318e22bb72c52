#include "sim/backend.hh"

#include <algorithm>
#include <cmath>

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
DenseBackend::Frame::clear()
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
}

void
DenseBackend::reset()
{
    _state.reset();
    _frame.clear();
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

void
DenseBackend::flushCoupling(std::uint64_t mask)
{
    // D P = P (P D P): pulled through the Pauli frame, a pending
    // Rzz term flips sign when exactly one of its qubits carries an
    // X bit.
    std::vector<PairAngle> coupling;
    const std::uint32_t n = std::uint32_t(_state.numQubits());
    for (std::uint32_t q = 0; q < n; ++q) {
        if (!(mask & bit(q)))
            continue;
        for (std::uint32_t p = 0; p < n; ++p) {
            double &theta = pair(q, p);
            if ((mask & bit(p)) || theta == 0.0)
                continue;
            coupling.push_back(PairAngle{
                q, p, xBit(q) != xBit(p) ? -theta : theta});
            theta = 0.0;
        }
    }
    if (!coupling.empty())
        _state.applyPhases({}, coupling);
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

void
DenseBackend::flush() const
{
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
    _frame.clear();
}

Statevector &
DenseBackend::state()
{
    flush();
    return _state;
}

const Statevector &
DenseBackend::state() const
{
    flush();
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
    // Fold: the true state after u is u D P |phi>, so u meets the
    // frame's part on q as u . Rz(theta) . X^x Z^z.
    flushCoupling(bit(q));
    const double theta = _frame.z[q];
    const Complex e0 = std::polar(1.0, -0.5 * theta);
    const Complex e1 = std::polar(1.0, 0.5 * theta);
    const std::size_t x = xBit(q);
    const bool z = (_frame.zBits >> q) & 1;
    const Complex col[2][2] = {{a * e0, c * e0}, {b * e1, d * e1}};
    CMat fold(2, 2);
    for (std::size_t j = 0; j < 2; ++j) {
        const Complex sign = z && j == 1 ? -1.0 : 1.0;
        fold(0, j) = col[j ^ x][0] * sign;
        fold(1, j) = col[j ^ x][1] * sign;
    }
    _state.applyGate1q(fold, q);
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
    // Fold, as in applyGate1q: M = u . D_A . P_A, where D_A holds the
    // pending Rz/Rzz terms within (q0, q1) and P_A their frame bits.
    const std::uint64_t mask = bit(q0) | bit(q1);
    flushCoupling(mask);
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
            phase[k] * (__builtin_popcountll(j & zl) & 1 ? -1.0 : 1.0);
        for (std::size_t r = 0; r < 4; ++r)
            fold(r, j) = u(r, k) * f;
    }
    _state.applyGate2q(fold, q0, q1);
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
    return _state.probability(q, xBit(q) ? 0 : 1);
}

void
DenseBackend::collapse(std::uint32_t q, int outcome)
{
    _state.collapse(q, outcome ^ int(xBit(q)));
    settle(q, outcome);
}

void
DenseBackend::amplitudeDamp(std::uint32_t q, double tau, double t1,
                            Rng &rng)
{
    // The no-jump Kraus operator is diagonal, so it commutes with D
    // and leaves the jump probability unchanged; through an X bit it
    // damps toward the stored |1>.  A jump reads q as 1 first.
    if (_state.amplitudeDamp(q, tau, t1, rng, xBit(q)))
        settle(q, 1);
}

double
DenseBackend::expectation(const PauliString &p) const
{
    std::uint64_t zmask = 0;
    for (std::uint32_t q = 0; q < _state.numQubits(); ++q) {
        const PauliOp op = p.op(q);
        if (op == PauliOp::X || op == PauliOp::Y) {
            flush();
            return _state.expectation(p);
        }
        if (op == PauliOp::Z)
            zmask |= bit(q);
    }
    // D commutes with a Z-type string, and P only adds its sign.
    const double value = _state.expectation(p);
    return __builtin_popcountll(_frame.x & zmask) & 1 ? -value
                                                       : value;
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
