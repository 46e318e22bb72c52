#include "sim/stabilizer.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace casq {

namespace {

constexpr double kHalfPi = 1.57079632679489661923;

/** The i^phase power (0 or 2) of a +-1 sign. */
std::uint8_t
signPhase(int sign)
{
    return sign > 0 ? 0 : 2;
}

/** Generator images of a bare matrix, derived on the spot. */
template <typename Conjugation>
auto
derivedImages(const CMat &u, const char *width)
{
    const Conjugation conj(u);
    casq_assert(conj.isClifford(), "non-Clifford ", width,
                " unitary reached the stabilizer backend (eligibility "
                "analysis should have routed this variant dense)");
    return conj.images();
}

/** Literal X/Z bits of a Pauli letter (Y = i * X * Z). */
void
letterBits(PauliOp op, bool &x, bool &z)
{
    x = op == PauliOp::X || op == PauliOp::Y;
    z = op == PauliOp::Z || op == PauliOp::Y;
}

std::uint64_t
popcount64(std::uint64_t v)
{
    return std::uint64_t(std::popcount(v));
}

} // namespace

StabilizerBackend::StabilizerBackend(std::size_t num_qubits)
    : _n(num_qubits), _words((num_qubits + 63) / 64)
{
    casq_assert(num_qubits > 0, "empty stabilizer tableau");
    _rows.resize(2 * _n);
    for (Row &row : _rows) {
        row.x.assign(_words, 0);
        row.z.assign(_words, 0);
    }
    _scratch.x.assign(_words, 0);
    _scratch.z.assign(_words, 0);
    reset();
}

void
StabilizerBackend::assign(const StateBackend &src)
{
    casq_assert(src.kind() == SimBackendKind::Stabilizer &&
                    src.numQubits() == _n,
                "assign needs a stabilizer backend of the same "
                "width");
    // The tableau rows are the whole quantum state.
    _rows = static_cast<const StabilizerBackend &>(src)._rows;
}

void
StabilizerBackend::reset()
{
    // |0...0> is stabilized by {Z_q} with destabilizers {X_q}.
    for (std::size_t q = 0; q < _n; ++q) {
        clearRow(_rows[q]);
        clearRow(_rows[_n + q]);
        setBit(_rows[q].x, std::uint32_t(q), true);
        setBit(_rows[_n + q].z, std::uint32_t(q), true);
    }
}

void
StabilizerBackend::setBit(std::vector<std::uint64_t> &w,
                          std::uint32_t q, bool v)
{
    if (v)
        w[q >> 6] |= std::uint64_t(1) << (q & 63);
    else
        w[q >> 6] &= ~(std::uint64_t(1) << (q & 63));
}

void
StabilizerBackend::clearRow(Row &row) const
{
    std::fill(row.x.begin(), row.x.end(), 0);
    std::fill(row.z.begin(), row.z.end(), 0);
    row.phase = 0;
}

void
StabilizerBackend::rowMultiply(Row &dst, const Row &src) const
{
    // (i^pd X^xd Z^zd)(i^ps X^xs Z^zs): commuting X^xs leftwards
    // through Z^zd flips one sign per overlapping qubit.
    std::uint64_t crossings = 0;
    for (std::size_t w = 0; w < _words; ++w) {
        crossings += popcount64(dst.z[w] & src.x[w]);
        dst.x[w] ^= src.x[w];
        dst.z[w] ^= src.z[w];
    }
    dst.phase = std::uint8_t(
        (dst.phase + src.phase + 2 * (crossings & 1)) & 3);
}

bool
StabilizerBackend::anticommutes(const Row &a, const Row &b) const
{
    std::uint64_t crossings = 0;
    for (std::size_t w = 0; w < _words; ++w) {
        crossings += popcount64(a.x[w] & b.z[w]);
        crossings += popcount64(a.z[w] & b.x[w]);
    }
    return (crossings & 1) != 0;
}

// ------------------------------------------ generator-image gates

void
StabilizerBackend::apply1q(const CliffordImages1Q &images,
                           std::uint32_t q)
{
    for (Row &row : _rows) {
        const bool x = bit(row.x, q);
        const bool z = bit(row.z, q);
        if (!x && !z)
            continue;
        // Substitute the literal factor X^x Z^z with its image
        // imgX^x * imgZ^z, then rewrite the resulting letter as a
        // literal again (Y = i X Z costs one phase quantum).
        PauliOp cur = PauliOp::I;
        std::uint8_t phase = 0;
        if (x) {
            cur = images.x.op;
            phase = signPhase(images.x.sign);
        }
        if (z) {
            const PauliProduct prod = multiply(cur, images.z.op);
            cur = prod.op;
            phase = std::uint8_t(phase + signPhase(images.z.sign) +
                                 prod.phasePower);
        }
        bool nx, nz;
        letterBits(cur, nx, nz);
        if (cur == PauliOp::Y)
            ++phase;
        setBit(row.x, q, nx);
        setBit(row.z, q, nz);
        row.phase = std::uint8_t((row.phase + phase) & 3);
    }
}

void
StabilizerBackend::apply2q(const CliffordImages2Q &images,
                           std::uint32_t q0, std::uint32_t q1)
{
    for (Row &row : _rows) {
        const bool x0 = bit(row.x, q0);
        const bool z0 = bit(row.z, q0);
        const bool x1 = bit(row.x, q1);
        const bool z1 = bit(row.z, q1);
        if (!x0 && !z0 && !x1 && !z1)
            continue;
        // The literal factor on (q0, q1) is X0^x0 Z0^z0 X1^x1 Z1^z1
        // (cross-qubit factors commute, so this ordering is exact);
        // conjugation maps it to the product of the generator
        // images in the same order.
        PauliOp cur0 = PauliOp::I;
        PauliOp cur1 = PauliOp::I;
        std::uint8_t phase = 0;
        const auto mul = [&](const SignedPauli2 &g) {
            const PauliProduct p0 = multiply(cur0, g.pauli.op0);
            const PauliProduct p1 = multiply(cur1, g.pauli.op1);
            cur0 = p0.op;
            cur1 = p1.op;
            phase = std::uint8_t(phase + signPhase(g.sign) +
                                 p0.phasePower + p1.phasePower);
        };
        if (x0)
            mul(images.x0);
        if (z0)
            mul(images.z0);
        if (x1)
            mul(images.x1);
        if (z1)
            mul(images.z1);
        bool nx0, nz0, nx1, nz1;
        letterBits(cur0, nx0, nz0);
        letterBits(cur1, nx1, nz1);
        if (cur0 == PauliOp::Y)
            ++phase;
        if (cur1 == PauliOp::Y)
            ++phase;
        setBit(row.x, q0, nx0);
        setBit(row.z, q0, nz0);
        setBit(row.x, q1, nx1);
        setBit(row.z, q1, nz1);
        row.phase = std::uint8_t((row.phase + phase) & 3);
    }
}

void
StabilizerBackend::applyGate1q(const CMat &u, std::uint32_t q,
                               const CliffordImages1Q *images)
{
    casq_assert(q < _n, "qubit out of range");
    apply1q(images ? *images : derivedImages<Conjugation1Q>(u, "1q"),
            q);
}

void
StabilizerBackend::applyGate2q(const CMat &u, std::uint32_t q0,
                               std::uint32_t q1,
                               const CliffordImages2Q *images)
{
    casq_assert(q0 < _n && q1 < _n && q0 != q1,
                "qubit pair out of range");
    apply2q(images ? *images : derivedImages<Conjugation2Q>(u, "2q"),
            q0, q1);
}

// -------------------------------------------- quarter-turn phases

std::optional<int>
StabilizerBackend::quarterTurns(double theta)
{
    const double k = theta / kHalfPi;
    const long long r = std::llround(k);
    if (std::abs(k - double(r)) > 1e-9)
        return std::nullopt;
    const long long q = r % 4;
    return int(q < 0 ? q + 4 : q);
}

void
StabilizerBackend::applyQuarterZ(std::uint32_t q, int k)
{
    // Rz(k pi/2) is S^k up to global phase: Z is fixed, X maps to
    // Y (k=1), -X (k=2), -Y (k=3).
    static constexpr CliffordImages1Q kTurns[3] = {
        {{PauliOp::Y, 1}, {PauliOp::Z, 1}},
        {{PauliOp::X, -1}, {PauliOp::Z, 1}},
        {{PauliOp::Y, -1}, {PauliOp::Z, 1}}};
    if (k != 0)
        apply1q(kTurns[k - 1], q);
}

void
StabilizerBackend::applyQuarterZz(std::uint32_t q0, std::uint32_t q1,
                                  int k)
{
    // Rzz(k pi/2): Z0, Z1 are fixed; X0 maps to Y0 Z1 (k=1),
    // -X0 (k=2), -Y0 Z1 (k=3), and X1 symmetrically.
    constexpr PauliOp I = PauliOp::I, X = PauliOp::X, Y = PauliOp::Y,
                      Z = PauliOp::Z;
    static constexpr CliffordImages2Q kTurns[3] = {
        {{{Y, Z}, 1}, {{Z, I}, 1}, {{Z, Y}, 1}, {{I, Z}, 1}},
        {{{X, I}, -1}, {{Z, I}, 1}, {{I, X}, -1}, {{I, Z}, 1}},
        {{{Y, Z}, -1}, {{Z, I}, 1}, {{Z, Y}, -1}, {{I, Z}, 1}}};
    if (k != 0)
        apply2q(kTurns[k - 1], q0, q1);
}

void
StabilizerBackend::applyPhases(
    const std::vector<QubitAngle> &z_angles,
    const std::vector<PairAngle> &zz_angles)
{
    for (const QubitAngle &za : z_angles) {
        const auto k = quarterTurns(za.theta);
        casq_assert(k, "non-Clifford Z phase ", za.theta,
                    " reached the stabilizer backend");
        applyQuarterZ(za.qubit, *k);
    }
    for (const PairAngle &zz : zz_angles) {
        const auto k = quarterTurns(zz.theta);
        casq_assert(k, "non-Clifford ZZ phase ", zz.theta,
                    " reached the stabilizer backend");
        applyQuarterZz(zz.q0, zz.q1, *k);
    }
}

void
StabilizerBackend::applyPauliOp(PauliOp op, std::uint32_t q)
{
    // Conjugating a row by a Pauli flips its sign exactly when the
    // row's factor at q anticommutes with op.
    if (op == PauliOp::I)
        return;
    for (Row &row : _rows) {
        const bool x = bit(row.x, q);
        const bool z = bit(row.z, q);
        bool flip = false;
        switch (op) {
          case PauliOp::X:
            flip = z;
            break;
          case PauliOp::Z:
            flip = x;
            break;
          default:
            flip = x != z;
            break;
        }
        if (flip)
            row.phase = std::uint8_t((row.phase + 2) & 3);
    }
}

// -------------------------------------------------- measurements

bool
StabilizerBackend::isDeterministicZ(std::uint32_t q) const
{
    for (std::size_t i = 0; i < _n; ++i)
        if (bit(_rows[_n + i].x, q))
            return false;
    return true;
}

std::uint8_t
StabilizerBackend::deterministicZPhase(std::uint32_t q) const
{
    // Z_q is in +-(stabilizer group): it is the product of the
    // stabilizers whose destabilizer partners anticommute with it
    // (i.e. whose destabilizer has X or Y at q).
    clearRow(_scratch);
    for (std::size_t i = 0; i < _n; ++i)
        if (bit(_rows[i].x, q))
            rowMultiply(_scratch, _rows[_n + i]);
    bool sane = bit(_scratch.z, q) && (_scratch.phase & 1) == 0;
    setBit(_scratch.z, std::uint32_t(q), false);
    for (std::size_t w = 0; w < _words; ++w)
        sane = sane && _scratch.x[w] == 0 && _scratch.z[w] == 0;
    casq_assert(sane, "tableau invariant violated resolving <Z_",
                q, ">");
    return _scratch.phase;
}

double
StabilizerBackend::probabilityOne(std::uint32_t q) const
{
    casq_assert(q < _n, "qubit out of range");
    if (!isDeterministicZ(q))
        return 0.5;
    // phase 0 means +Z_q stabilizes (|0>), phase 2 means -Z_q (|1>).
    return deterministicZPhase(q) == 2 ? 1.0 : 0.0;
}

void
StabilizerBackend::collapse(std::uint32_t q, int outcome)
{
    casq_assert(q < _n, "qubit out of range");
    std::size_t p = 0;
    bool random = false;
    for (std::size_t i = 0; i < _n; ++i) {
        if (bit(_rows[_n + i].x, q)) {
            p = _n + i;
            random = true;
            break;
        }
    }
    if (!random) {
        casq_assert(probabilityOne(q) == (outcome ? 1.0 : 0.0),
                    "collapse of qubit ", q,
                    " onto a zero-probability outcome");
        return;
    }
    // Standard CHP collapse: multiply every other anticommuting row
    // by row p, demote row p to the destabilizer slot, and replace
    // it with the post-measurement stabilizer +-Z_q.
    for (std::size_t r = 0; r < 2 * _n; ++r)
        if (r != p && bit(_rows[r].x, q))
            rowMultiply(_rows[r], _rows[p]);
    _rows[p - _n] = _rows[p];
    clearRow(_rows[p]);
    setBit(_rows[p].z, q, true);
    _rows[p].phase = outcome ? 2 : 0;
}

void
StabilizerBackend::amplitudeDamp(std::uint32_t q, double tau,
                                 double t1, Rng &rng)
{
    // Matches DenseBackend::amplitudeDamp's no-op guard (and its RNG
    // silence) so backends stay stream-identical; a real damping
    // channel is non-Clifford and must never route here.
    (void)q;
    (void)rng;
    if (tau <= 0.0 || t1 <= 0.0)
        return;
    casq_panic("amplitude damping is not a Clifford channel; the "
               "eligibility analysis should have routed this "
               "variant dense");
}

void
StabilizerBackend::expectations(std::span<const PauliString> observables,
                                std::span<double> out) const
{
    casq_assert(out.size() == observables.size(),
                "one output per observable");
    for (std::size_t k = 0; k < observables.size(); ++k)
        out[k] = expectationOf(observables[k]);
}

double
StabilizerBackend::expectationOf(const PauliString &p) const
{
    casq_assert(p.numQubits() == _n, "Pauli width mismatch");
    // Rewrite P = i^k * letters as a literal-product row.
    Row pr;
    pr.x.assign(_words, 0);
    pr.z.assign(_words, 0);
    std::uint8_t pphase = p.phasePower();
    for (std::size_t q = 0; q < _n; ++q) {
        bool x, z;
        letterBits(p.op(q), x, z);
        setBit(pr.x, std::uint32_t(q), x);
        setBit(pr.z, std::uint32_t(q), z);
        if (p.op(q) == PauliOp::Y)
            ++pphase;
    }
    pphase &= 3;

    // Anticommuting with any stabilizer means <P> = 0 exactly.
    for (std::size_t i = 0; i < _n; ++i)
        if (anticommutes(pr, _rows[_n + i]))
            return 0.0;

    // P commutes with the full group, so its literal is a product
    // of stabilizer literals -- the same destabilizer-pairing trick
    // as deterministicZPhase selects which ones.
    clearRow(_scratch);
    for (std::size_t i = 0; i < _n; ++i)
        if (anticommutes(pr, _rows[i]))
            rowMultiply(_scratch, _rows[_n + i]);
    bool same = true;
    for (std::size_t w = 0; w < _words; ++w)
        same = same && _scratch.x[w] == pr.x[w] &&
               _scratch.z[w] == pr.z[w];
    casq_assert(same, "commuting Pauli ", p.toString(),
                " is not in the stabilizer span");

    // scratch |psi> = |psi> and P = i^(pphase - scratch.phase) *
    // scratch, so <P> is the real part of that power of i.
    const std::uint8_t diff =
        std::uint8_t((pphase - _scratch.phase + 4) & 3);
    if (diff == 0)
        return 1.0;
    if (diff == 2)
        return -1.0;
    return 0.0;
}

} // namespace casq
