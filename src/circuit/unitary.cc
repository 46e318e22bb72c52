#include "circuit/unitary.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/logging.hh"
#include "pauli/pauli.hh"

namespace casq {

namespace {

constexpr double kPi = 3.14159265358979323846;
const Complex kI{0.0, 1.0};

CMat
rzMatrix(double theta)
{
    return CMat::diagonal({std::exp(-kI * theta * 0.5),
                           std::exp(kI * theta * 0.5)});
}

CMat
rxMatrix(double theta)
{
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return CMat{{c, -kI * s}, {-kI * s, c}};
}

CMat
ryMatrix(double theta)
{
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return CMat{{c, -s}, {s, c}};
}

CMat
uMatrix(double theta, double phi, double lam)
{
    const double c = std::cos(theta / 2), s = std::sin(theta / 2);
    return CMat{{c, -std::exp(kI * lam) * s},
                {std::exp(kI * phi) * s,
                 std::exp(kI * (phi + lam)) * c}};
}

/** exp(i angle P(x)P) = cos I + i sin P(x)P for a Pauli P. */
CMat
expiPP(double angle, PauliOp p)
{
    const CMat pp = kron(pauliMatrix(p), pauliMatrix(p));
    return CMat::identity(4) * Complex(std::cos(angle), 0.0) +
           pp * (kI * std::sin(angle));
}

CMat
canMatrix(double alpha, double beta, double gamma)
{
    return expiPP(alpha, PauliOp::X) * expiPP(beta, PauliOp::Y) *
           expiPP(gamma, PauliOp::Z);
}

} // namespace

CMat
gateUnitary(Op op, const std::vector<double> &params)
{
    const double s2 = 1.0 / std::sqrt(2.0);
    switch (op) {
      case Op::I:
        return CMat::identity(2);
      case Op::X:
        return pauliMatrix(PauliOp::X);
      case Op::Y:
        return pauliMatrix(PauliOp::Y);
      case Op::Z:
        return pauliMatrix(PauliOp::Z);
      case Op::H:
        return CMat{{s2, s2}, {s2, -s2}};
      case Op::S:
        return CMat::diagonal({1.0, kI});
      case Op::Sdg:
        return CMat::diagonal({1.0, -kI});
      case Op::T:
        return CMat::diagonal({1.0, std::exp(kI * kPi / 4.0)});
      case Op::Tdg:
        return CMat::diagonal({1.0, std::exp(-kI * kPi / 4.0)});
      case Op::SX:
        return CMat{{0.5 + 0.5 * kI, 0.5 - 0.5 * kI},
                    {0.5 - 0.5 * kI, 0.5 + 0.5 * kI}};
      case Op::SXdg:
        return CMat{{0.5 - 0.5 * kI, 0.5 + 0.5 * kI},
                    {0.5 + 0.5 * kI, 0.5 - 0.5 * kI}};
      case Op::RX:
        return rxMatrix(params.at(0));
      case Op::RY:
        return ryMatrix(params.at(0));
      case Op::RZ:
        return rzMatrix(params.at(0));
      case Op::U:
        return uMatrix(params.at(0), params.at(1), params.at(2));
      case Op::CX:
        // qubits[0] (less significant bit) is the control.
        return CMat{{1, 0, 0, 0},
                    {0, 0, 0, 1},
                    {0, 0, 1, 0},
                    {0, 1, 0, 0}};
      case Op::CZ:
        return CMat::diagonal({1.0, 1.0, 1.0, -1.0});
      case Op::ECR:
        // Echoed cross-resonance, qubits[0] = control (Qiskit
        // convention, little-endian).
        return CMat{{0, s2, 0, kI * s2},
                    {s2, 0, -kI * s2, 0},
                    {0, kI * s2, 0, s2},
                    {-kI * s2, 0, s2, 0}};
      case Op::RZZ: {
        const Complex m = std::exp(-kI * params.at(0) * 0.5);
        const Complex p = std::exp(kI * params.at(0) * 0.5);
        return CMat::diagonal({m, p, p, m});
      }
      case Op::Can:
        return canMatrix(params.at(0), params.at(1), params.at(2));
      case Op::Swap:
        return CMat{{1, 0, 0, 0},
                    {0, 0, 1, 0},
                    {0, 1, 0, 0},
                    {0, 0, 0, 1}};
      default:
        casq_panic("gateUnitary on non-unitary op ", opName(op));
    }
}

CMat
instructionUnitary(const Instruction &inst)
{
    return gateUnitary(inst.op, inst.params);
}

namespace {

/** Apply a 2x2 gate to qubit q of each column of the full matrix. */
void
applyOneQubit(std::vector<Complex> &m, std::size_t dim, const CMat &u,
              std::size_t q)
{
    const std::size_t mask = std::size_t(1) << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    for (std::size_t col = 0; col < dim; ++col) {
        for (std::size_t i = 0; i < dim; ++i) {
            if (i & mask)
                continue;
            Complex &a = m[i * dim + col];
            Complex &b = m[(i | mask) * dim + col];
            const Complex a0 = a, b0 = b;
            a = u00 * a0 + u01 * b0;
            b = u10 * a0 + u11 * b0;
        }
    }
}

/** Apply a 4x4 gate (q0 = less significant operand). */
void
applyTwoQubit(std::vector<Complex> &m, std::size_t dim, const CMat &u,
              std::size_t q0, std::size_t q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    for (std::size_t col = 0; col < dim; ++col) {
        for (std::size_t i = 0; i < dim; ++i) {
            if ((i & m0) || (i & m1))
                continue;
            const std::size_t idx[4] = {i, i | m0, i | m1,
                                        i | m0 | m1};
            Complex v[4];
            for (int k = 0; k < 4; ++k)
                v[k] = m[idx[k] * dim + col];
            for (int r = 0; r < 4; ++r) {
                Complex acc{};
                for (int k = 0; k < 4; ++k)
                    acc += u(r, k) * v[k];
                m[idx[r] * dim + col] = acc;
            }
        }
    }
}

} // namespace

CMat
circuitUnitary(const Circuit &circuit)
{
    const std::size_t n = circuit.numQubits();
    casq_assert(n <= 12, "circuitUnitary capped at 12 qubits");
    const std::size_t dim = std::size_t(1) << n;
    std::vector<Complex> m(dim * dim);
    for (std::size_t i = 0; i < dim; ++i)
        m[i * dim + i] = 1.0;

    for (const auto &inst : circuit.instructions()) {
        if (inst.op == Op::Barrier || inst.op == Op::Delay ||
            inst.op == Op::I)
            continue;
        casq_assert(opIsUnitary(inst.op) && !inst.isConditional(),
                    "circuitUnitary on non-unitary instruction ",
                    inst.toString());
        const CMat u = instructionUnitary(inst);
        if (inst.qubits.size() == 1)
            applyOneQubit(m, dim, u, inst.qubits[0]);
        else
            applyTwoQubit(m, dim, u, inst.qubits[0], inst.qubits[1]);
    }

    CMat out(dim, dim);
    for (std::size_t i = 0; i < dim; ++i)
        for (std::size_t j = 0; j < dim; ++j)
            out(i, j) = m[i * dim + j];
    return out;
}

EulerAngles
eulerDecompose(const CMat &u)
{
    casq_assert(u.rows() == 2 && u.cols() == 2 && u.isUnitary(1e-7),
                "eulerDecompose needs a 2x2 unitary");
    EulerAngles e;
    const double c = std::abs(u(0, 0));
    const double s = std::abs(u(1, 0));
    e.theta = 2.0 * std::atan2(s, c);
    const double tol = 1e-10;
    if (s < tol) {
        // Diagonal: only phi + lambda is defined.
        e.phase = std::arg(u(0, 0));
        e.phi = 0.0;
        e.lambda = std::arg(u(1, 1)) - e.phase;
    } else if (c < tol) {
        // Anti-diagonal: only phi - lambda is defined.
        e.phase = 0.0;
        e.phi = std::arg(u(1, 0));
        e.lambda = std::arg(-u(0, 1));
        // Fold the global phase so u00-entry convention holds.
        e.phase = 0.0;
    } else {
        e.phase = std::arg(u(0, 0));
        e.phi = std::arg(u(1, 0)) - e.phase;
        e.lambda = std::arg(-u(0, 1)) - e.phase;
    }
    return e;
}

void
appendU1q(Circuit &circuit, std::uint32_t q, double theta, double phi,
          double lambda)
{
    auto near = [](double a, double b) {
        double d = std::fmod(std::abs(a - b), 2.0 * kPi);
        if (d > kPi)
            d = 2.0 * kPi - d;
        return d < 1e-12;
    };
    if (near(theta, 0.0)) {
        const double total = phi + lambda;
        if (!near(total, 0.0))
            circuit.rz(q, total);
        return;
    }
    // Candidate one-pulse form for theta = pi/2:
    // U(pi/2, phi, lambda) ~ Rz(phi + pi/2) SX Rz(lambda - pi/2);
    // verified numerically before use so the identity is safe.
    if (near(theta, kPi / 2.0)) {
        const CMat cand = rzMatrix(phi + kPi / 2.0) *
                          gateUnitary(Op::SX) *
                          rzMatrix(lambda - kPi / 2.0);
        if (cand.equalUpToGlobalPhase(uMatrix(theta, phi, lambda),
                                      1e-9)) {
            circuit.rz(q, lambda - kPi / 2.0);
            circuit.sx(q);
            circuit.rz(q, phi + kPi / 2.0);
            return;
        }
    }
    // General ZXZXZ form, paper Eq. (4).
    circuit.rz(q, lambda);
    circuit.sx(q);
    circuit.rz(q, theta + kPi);
    circuit.sx(q);
    circuit.rz(q, phi + kPi);
}

std::optional<std::pair<CMat, CMat>>
factorTensorProduct(const CMat &u, double tol)
{
    casq_assert(u.rows() == 4 && u.cols() == 4,
                "factorTensorProduct needs a 4x4 matrix");
    // Find the largest block entry to anchor the factorization.
    std::size_t bi = 0, bj = 0, bk = 0, bl = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            for (std::size_t k = 0; k < 2; ++k)
                for (std::size_t l = 0; l < 2; ++l) {
                    const double mag =
                        std::abs(u(2 * i + k, 2 * j + l));
                    if (mag > best) {
                        best = mag;
                        bi = i;
                        bj = j;
                        bk = k;
                        bl = l;
                    }
                }
    if (best < tol)
        return std::nullopt;

    // b_raw = A(bi,bj) * B; normalize so that B is unitary.
    CMat b(2, 2);
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t l = 0; l < 2; ++l)
            b(k, l) = u(2 * bi + k, 2 * bj + l);
    const Complex det = b(0, 0) * b(1, 1) - b(0, 1) * b(1, 0);
    if (std::abs(det) < tol * tol)
        return std::nullopt;
    const double scale = std::sqrt(std::abs(det));
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t l = 0; l < 2; ++l)
            b(k, l) /= scale;

    CMat a(2, 2);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j)
            a(i, j) = u(2 * i + bk, 2 * j + bl) / b(bk, bl);

    if (!kron(a, b).approxEqual(u, 1e-6))
        return std::nullopt;
    if (!a.isUnitary(1e-6) || !b.isUnitary(1e-6))
        return std::nullopt;
    return std::make_pair(a, b);
}

Circuit
synthesizeCan(double alpha, double beta, double gamma)
{
    // Exact algebraic form.  Conjugating by CX(c=1, t=0) maps
    // XX -> X1, YY -> -Z0 X1, ZZ -> Z0, so
    //   can = CX10 . H1 . Phi . H1 . CX10,
    // with the diagonal Phi = exp(i(a Z1 + c Z0 - b Z0 Z1))
    //   = Rz1(-2a) Rz0(-2c) [CX01 Rz1(2b) CX01].
    Circuit qc(2);
    qc.cx(1, 0);
    qc.h(1);
    qc.cx(0, 1);
    qc.rz(1, 2.0 * beta);
    qc.cx(0, 1);
    qc.rz(0, -2.0 * gamma);
    qc.rz(1, -2.0 * alpha);
    qc.h(1);
    qc.cx(1, 0);
    return qc;
}

namespace {

/** Remap a 2-qubit fragment onto (q0, q1) of a wider circuit. */
void
appendRemapped(Circuit &out, const Circuit &frag, std::uint32_t q0,
               std::uint32_t q1, InstTag tag)
{
    for (Instruction inst : frag.instructions()) {
        for (auto &q : inst.qubits)
            q = (q == 0) ? q0 : q1;
        if (tag != InstTag::None)
            inst.tag = tag;
        out.append(std::move(inst));
    }
}

} // namespace

Circuit
transpileToNative(const Circuit &circuit)
{
    Circuit out(circuit.numQubits(), circuit.numClbits());
    for (const auto &inst : circuit.instructions()) {
        const auto q = inst.qubits;
        switch (inst.op) {
          case Op::I:
            break;
          case Op::Z:
            out.rz(q[0], kPi);
            break;
          case Op::S:
            out.rz(q[0], kPi / 2.0);
            break;
          case Op::Sdg:
            out.rz(q[0], -kPi / 2.0);
            break;
          case Op::T:
            out.rz(q[0], kPi / 4.0);
            break;
          case Op::Tdg:
            out.rz(q[0], -kPi / 4.0);
            break;
          case Op::H:
            out.rz(q[0], kPi / 2.0);
            out.sx(q[0]);
            out.rz(q[0], kPi / 2.0);
            break;
          case Op::Y:
            out.rz(q[0], kPi);
            out.x(q[0]);
            break;
          case Op::SXdg:
            out.rz(q[0], kPi);
            out.sx(q[0]);
            out.rz(q[0], kPi);
            break;
          case Op::RX:
            appendU1q(out, q[0], inst.params[0], -kPi / 2.0,
                      kPi / 2.0);
            break;
          case Op::RY:
            appendU1q(out, q[0], inst.params[0], 0.0, 0.0);
            break;
          case Op::U:
            appendU1q(out, q[0], inst.params[0], inst.params[1],
                      inst.params[2]);
            break;
          case Op::CZ:
            out.rz(q[1], kPi / 2.0);
            out.sx(q[1]);
            out.rz(q[1], kPi / 2.0);
            out.cx(q[0], q[1]);
            out.rz(q[1], kPi / 2.0);
            out.sx(q[1]);
            out.rz(q[1], kPi / 2.0);
            break;
          case Op::Swap:
            out.cx(q[0], q[1]);
            out.cx(q[1], q[0]);
            out.cx(q[0], q[1]);
            break;
          case Op::Can:
            appendRemapped(out,
                           synthesizeCan(inst.params[0],
                                         inst.params[1],
                                         inst.params[2]),
                           q[0], q[1], inst.tag);
            break;
          default:
            out.append(inst);
            break;
        }
    }
    // Recursively lower H gates introduced by Can expansion.
    bool needs_pass = false;
    for (const auto &inst : out.instructions())
        if (inst.op == Op::H || inst.op == Op::Can)
            needs_pass = true;
    if (needs_pass)
        return transpileToNative(out);
    return out;
}

namespace {

/**
 * Bit-exact identity of an instruction: two instructions map to the
 * same key iff every field -- including the raw parameter bits --
 * is equal, so a cache hit returns exactly the fragment a fresh
 * transpilation would produce.
 */
std::string
fragmentKey(const Instruction &inst)
{
    std::string key;
    key.reserve(16 + 4 * inst.qubits.size() +
                8 * inst.params.size());
    auto put = [&key](const void *data, std::size_t size) {
        key.append(static_cast<const char *>(data), size);
    };
    const std::int32_t head[] = {std::int32_t(inst.op),
                                 std::int32_t(inst.tag),
                                 inst.cbit, inst.condBit,
                                 inst.condValue,
                                 std::int32_t(inst.qubits.size())};
    put(head, sizeof(head));
    for (std::uint32_t q : inst.qubits)
        put(&q, sizeof(q));
    for (double p : inst.params)
        put(&p, sizeof(p)); // raw bits: -0.0 != 0.0 is fine (miss)
    return key;
}

} // namespace

const std::vector<Instruction> &
TranspileCache::fragmentFor(const Instruction &inst)
{
    const std::string key = fragmentKey(inst);
    {
        std::shared_lock<std::shared_mutex> lock(_mutex);
        const auto it = _fragments.find(key);
        if (it != _fragments.end())
            return it->second;
    }
    // Compute outside any lock; the first inserter wins (the value
    // is a deterministic function of the key, so ties are equal).
    std::uint32_t max_qubit = 0;
    for (std::uint32_t q : inst.qubits)
        max_qubit = std::max(max_qubit, q);
    const int max_clbit = std::max(inst.cbit, inst.condBit);
    Circuit staging(std::size_t(max_qubit) + 1,
                    std::size_t(std::max(max_clbit, 0)) + 1);
    staging.append(inst);
    std::vector<Instruction> fragment =
        std::move(transpileToNative(staging).instructions());
    std::unique_lock<std::shared_mutex> lock(_mutex);
    return _fragments.emplace(key, std::move(fragment))
        .first->second;
}

std::vector<Instruction>
TranspileCache::lower(const std::vector<Instruction> &insts)
{
    std::vector<Instruction> out;
    out.reserve(insts.size());
    for (const Instruction &inst : insts) {
        const std::vector<Instruction> &fragment = fragmentFor(inst);
        out.insert(out.end(), fragment.begin(), fragment.end());
    }
    return out;
}

} // namespace casq
