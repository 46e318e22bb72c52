#include "pauli/clifford.hh"

#include <cmath>
#include <cstring>
#include <mutex>

#include "common/logging.hh"

namespace casq {

namespace {

/**
 * The sign s with m == s * q, or 0 when m is not a signed q.  m is
 * Hermitian with m^2 = I, so any Pauli match has sign +-1; detect it
 * from the Hilbert-Schmidt overlap tr(q m)/d, confirmed entry-wise.
 */
int
pauliSign(const CMat &m, const CMat &q, double tol)
{
    const Complex overlap =
        (q * m).trace() * (1.0 / double(m.rows()));
    if (std::abs(std::abs(overlap.real()) - 1.0) >= tol ||
        std::abs(overlap.imag()) >= tol)
        return 0;
    const int sign = overlap.real() > 0 ? 1 : -1;
    return m.approxEqual(q * Complex(double(sign), 0.0), 1e-6) ? sign
                                                              : 0;
}

} // namespace

std::array<Pauli2, 16>
allPauli2()
{
    std::array<Pauli2, 16> out;
    std::size_t k = 0;
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
            out[k++] = Pauli2{PauliOp(b), PauliOp(a)};
    return out;
}

CMat
pauli2Matrix(const Pauli2 &p)
{
    // Qubit 1 occupies the more significant factor.
    return kron(pauliMatrix(p.op1), pauliMatrix(p.op0));
}

std::size_t
Conjugation2Q::index(const Pauli2 &p)
{
    return std::size_t(p.op1) * 4 + std::size_t(p.op0);
}

Conjugation2Q::Conjugation2Q(const CMat &u, double tol)
{
    casq_assert(u.rows() == 4 && u.cols() == 4,
                "Conjugation2Q requires a 4x4 unitary");
    casq_assert(u.isUnitary(1e-7), "Conjugation2Q input is not unitary");
    const CMat udag = u.dagger();
    for (const Pauli2 &p : allPauli2()) {
        const CMat m = u * pauli2Matrix(p) * udag;
        std::optional<SignedPauli2> found;
        for (const Pauli2 &q : allPauli2()) {
            if (const int sign = pauliSign(m, pauli2Matrix(q), tol)) {
                found = SignedPauli2{q, sign};
                break;
            }
        }
        _table[index(p)] = found;
        if (found)
            _twirlSet.push_back(p);
        else
            _isClifford = false;
    }
}

std::optional<SignedPauli2>
Conjugation2Q::conjugate(const Pauli2 &p) const
{
    return _table[index(p)];
}

CliffordImages2Q
Conjugation2Q::images() const
{
    casq_assert(_isClifford, "generator images of a non-Clifford 2q "
                             "unitary");
    return {*conjugate({PauliOp::X, PauliOp::I}),
            *conjugate({PauliOp::Z, PauliOp::I}),
            *conjugate({PauliOp::I, PauliOp::X}),
            *conjugate({PauliOp::I, PauliOp::Z})};
}

Conjugation1Q::Conjugation1Q(const CMat &u, double tol)
{
    casq_assert(u.rows() == 2 && u.cols() == 2,
                "Conjugation1Q requires a 2x2 unitary");
    casq_assert(u.isUnitary(1e-7), "Conjugation1Q input is not unitary");
    const CMat udag = u.dagger();
    _table[0] = SignedPauli1{PauliOp::I, 1};
    for (int k = 1; k < 4; ++k) {
        const PauliOp p = PauliOp(k);
        const CMat m = u * pauliMatrix(p) * udag;
        std::optional<SignedPauli1> found;
        for (int j = 1; j < 4; ++j) {
            const PauliOp q = PauliOp(j);
            if (const int sign = pauliSign(m, pauliMatrix(q), tol)) {
                found = SignedPauli1{q, sign};
                break;
            }
        }
        _table[k] = found;
        if (!found)
            _isClifford = false;
    }
}

std::optional<SignedPauli1>
Conjugation1Q::conjugate(PauliOp p) const
{
    return _table[std::size_t(p)];
}

CliffordImages1Q
Conjugation1Q::images() const
{
    casq_assert(_isClifford, "generator images of a non-Clifford 1q "
                             "unitary");
    return {*conjugate(PauliOp::X), *conjugate(PauliOp::Z)};
}

template <typename Table>
const Table &
ConjugationTable::lookup(std::map<std::string, Table> &tables,
                         const CMat &u)
{
    const auto &data = u.data();
    std::string key(data.size() * sizeof(Complex), '\0');
    std::memcpy(key.data(), data.data(), key.size());
    {
        std::shared_lock<std::shared_mutex> lock(_mutex);
        const auto it = tables.find(key);
        if (it != tables.end())
            return it->second;
    }
    // Build outside any lock (the numeric conjugation is the
    // expensive part), then let the first inserter win.
    Table table(u);
    std::unique_lock<std::shared_mutex> lock(_mutex);
    return tables.emplace(std::move(key), std::move(table))
        .first->second;
}

const Conjugation1Q &
ConjugationTable::of1q(const CMat &u)
{
    return lookup(_tables1q, u);
}

const Conjugation2Q &
ConjugationTable::of2q(const CMat &u)
{
    return lookup(_tables2q, u);
}

} // namespace casq
