#include "pauli/pauli.hh"

#include <cctype>

#include "common/logging.hh"

namespace casq {

CMat
pauliMatrix(PauliOp op)
{
    const Complex i{0.0, 1.0};
    switch (op) {
      case PauliOp::I:
        return CMat{{1, 0}, {0, 1}};
      case PauliOp::X:
        return CMat{{0, 1}, {1, 0}};
      case PauliOp::Y:
        return CMat{{0, -i}, {i, 0}};
      case PauliOp::Z:
        return CMat{{1, 0}, {0, -1}};
    }
    casq_panic("invalid PauliOp");
}

char
pauliChar(PauliOp op)
{
    static const char chars[] = {'I', 'X', 'Y', 'Z'};
    return chars[int(op)];
}

PauliOp
pauliFromChar(char c)
{
    switch (std::toupper(static_cast<unsigned char>(c))) {
      case 'I':
        return PauliOp::I;
      case 'X':
        return PauliOp::X;
      case 'Y':
        return PauliOp::Y;
      case 'Z':
        return PauliOp::Z;
      default:
        throw UserError(
            detail::format("invalid Pauli character '", c, "'"));
    }
}

PauliProduct
multiply(PauliOp a, PauliOp b)
{
    if (a == PauliOp::I)
        return {b, 0};
    if (b == PauliOp::I)
        return {a, 0};
    if (a == b)
        return {PauliOp::I, 0};
    // The remaining products are the cyclic / anti-cyclic cases:
    // XY = iZ, YZ = iX, ZX = iY and the reverses with phase -i.
    const int ia = int(a), ib = int(b);
    // Cyclic successor of a within {X=1, Y=2, Z=3}.
    const int succ = ia % 3 + 1;
    if (ib == succ) {
        const int ic = ib % 3 + 1;
        return {PauliOp(ic), 1};
    }
    const int ic = 6 - ia - ib; // the third operator
    return {PauliOp(ic), 3};
}

bool
commutes(PauliOp a, PauliOp b)
{
    return a == PauliOp::I || b == PauliOp::I || a == b;
}

PauliString::PauliString(std::size_t num_qubits)
    : _ops(num_qubits, PauliOp::I)
{
}

PauliString::PauliString(std::vector<PauliOp> ops,
                         std::uint8_t phase_power)
    : _ops(std::move(ops)), _phase(phase_power & 3)
{
}

PauliString
PauliString::fromLabel(const std::string &label)
{
    std::size_t pos = 0;
    std::uint8_t phase = 0;
    if (pos < label.size() && label[pos] == '+')
        ++pos;
    if (pos < label.size() && label[pos] == '-') {
        phase = 2;
        ++pos;
    }
    if (pos < label.size() &&
        (label[pos] == 'i' || label[pos] == 'j')) {
        phase = (phase + 1) & 3;
        ++pos;
    }
    std::vector<PauliOp> ops;
    ops.reserve(label.size() - pos);
    // Leftmost label character is the highest-numbered qubit.
    for (std::size_t k = label.size(); k > pos; --k)
        ops.push_back(pauliFromChar(label[k - 1]));
    return PauliString(std::move(ops), phase);
}

PauliString
PauliString::single(std::size_t num_qubits, std::size_t qubit,
                    PauliOp op)
{
    casq_assert(qubit < num_qubits, "qubit index out of range");
    PauliString p(num_qubits);
    p.setOp(qubit, op);
    return p;
}

PauliString
PauliString::two(std::size_t num_qubits, std::size_t q0, PauliOp op0,
                 std::size_t q1, PauliOp op1)
{
    casq_assert(q0 < num_qubits && q1 < num_qubits && q0 != q1,
                "invalid qubit pair");
    PauliString p(num_qubits);
    p.setOp(q0, op0);
    p.setOp(q1, op1);
    return p;
}

Complex
PauliString::phase() const
{
    static const Complex phases[] = {
        {1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    return phases[_phase];
}

std::size_t
PauliString::weight() const
{
    std::size_t w = 0;
    for (auto op : _ops)
        if (op != PauliOp::I)
            ++w;
    return w;
}

bool
PauliString::isIdentity() const
{
    return weight() == 0;
}

PauliString
PauliString::operator*(const PauliString &rhs) const
{
    casq_assert(numQubits() == rhs.numQubits(),
                "PauliString size mismatch in product");
    PauliString out(numQubits());
    std::uint8_t phase = (_phase + rhs._phase) & 3;
    for (std::size_t q = 0; q < numQubits(); ++q) {
        const PauliProduct prod = multiply(_ops[q], rhs._ops[q]);
        out._ops[q] = prod.op;
        phase = (phase + prod.phasePower) & 3;
    }
    out._phase = phase;
    return out;
}

bool
PauliString::commutesWith(const PauliString &rhs) const
{
    casq_assert(numQubits() == rhs.numQubits(),
                "PauliString size mismatch in commutator");
    std::size_t anti = 0;
    for (std::size_t q = 0; q < numQubits(); ++q)
        if (!commutes(_ops[q], rhs._ops[q]))
            ++anti;
    return (anti % 2) == 0;
}

CMat
PauliString::matrix() const
{
    CMat m = CMat::identity(1);
    // matrix() = op(n-1) (x) ... (x) op(0).
    for (std::size_t q = numQubits(); q > 0; --q)
        m = m.kron(pauliMatrix(_ops[q - 1]));
    return m * phase();
}

bool
PauliString::operator==(const PauliString &rhs) const
{
    return _phase == rhs._phase && _ops == rhs._ops;
}

std::string
PauliString::toString() const
{
    static const char *prefixes[] = {"+", "i", "-", "-i"};
    std::string s = prefixes[_phase];
    for (std::size_t q = numQubits(); q > 0; --q)
        s += pauliChar(_ops[q - 1]);
    return s;
}

std::vector<PauliString>
allPauliStrings(std::size_t num_qubits)
{
    std::size_t count = 1;
    for (std::size_t q = 0; q < num_qubits; ++q)
        count *= 4;
    std::vector<PauliString> out;
    out.reserve(count);
    for (std::size_t code = 0; code < count; ++code) {
        std::vector<PauliOp> ops(num_qubits);
        std::size_t c = code;
        for (std::size_t q = 0; q < num_qubits; ++q) {
            ops[q] = PauliOp(c & 3);
            c >>= 2;
        }
        out.emplace_back(std::move(ops));
    }
    return out;
}

} // namespace casq
