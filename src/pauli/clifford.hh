/**
 * @file
 * Numerically-constructed Pauli conjugation tables for two-qubit
 * unitaries.
 *
 * Pauli twirling (paper Sec. III A) requires, for every two-qubit
 * gate U and sampled Pauli pair P, the Pauli Q with Q U P = U (up to
 * a +-1 global phase).  Instead of hand-deriving tables per gate we
 * compute U P U^dagger numerically once per distinct unitary and
 * memoize the result in a ConjugationTable; this also yields the
 * valid twirl subgroup of non-Clifford gates such as the Heisenberg
 * canonical block, for which only {II, XX, YY, ZZ} survives.  The
 * same tables give the stabilizer tableau the generator images of
 * every Clifford gate it applies.
 */

#ifndef CASQ_PAULI_CLIFFORD_HH
#define CASQ_PAULI_CLIFFORD_HH

#include <array>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/matrix.hh"
#include "pauli/pauli.hh"

namespace casq {

/** A two-qubit Pauli (qubit 0 is the less significant factor). */
struct Pauli2
{
    PauliOp op0 = PauliOp::I;
    PauliOp op1 = PauliOp::I;

    bool operator==(const Pauli2 &rhs) const = default;
};

/** A two-qubit Pauli together with a +-1 sign. */
struct SignedPauli2
{
    Pauli2 pauli;
    int sign = 1;
};

/** A single-qubit Pauli together with a +-1 sign. */
struct SignedPauli1
{
    PauliOp op = PauliOp::I;
    int sign = 1;
};

/** Images U X U^dagger, U Z U^dagger of a single-qubit Clifford. */
struct CliffordImages1Q
{
    SignedPauli1 x;
    SignedPauli1 z;
};

/** Images of the generators X0, Z0, X1, Z1 of a two-qubit Clifford. */
struct CliffordImages2Q
{
    SignedPauli2 x0;
    SignedPauli2 z0;
    SignedPauli2 x1;
    SignedPauli2 z1;
};

/** The 16 two-qubit Paulis in (op1, op0) lexicographic order. */
std::array<Pauli2, 16> allPauli2();

/** 4x4 matrix of a two-qubit Pauli (qubit 0 least significant). */
CMat pauli2Matrix(const Pauli2 &p);

/**
 * Conjugation table of a fixed 4x4 unitary: maps each two-qubit
 * Pauli P to U P U^dagger when that conjugation is again a signed
 * Pauli, and records which inputs fail (non-Clifford directions).
 */
class Conjugation2Q
{
  public:
    /** Build the table by conjugating all 16 Paulis through u. */
    explicit Conjugation2Q(const CMat &u, double tol = 1e-8);

    /** True if every Pauli maps to a signed Pauli (U is Clifford). */
    bool isClifford() const { return _isClifford; }

    /**
     * Conjugation U P U^dagger of the given Pauli, or nullopt when
     * the image is not a signed Pauli.
     */
    std::optional<SignedPauli2> conjugate(const Pauli2 &p) const;

    /**
     * The Paulis whose conjugation is again a signed Pauli; this is
     * the valid twirl set for the gate.  Always contains II; for a
     * Clifford gate it is all 16 Paulis.
     */
    const std::vector<Pauli2> &twirlSet() const { return _twirlSet; }

    /** Generator images; U must be Clifford. */
    CliffordImages2Q images() const;

  private:
    std::array<std::optional<SignedPauli2>, 16> _table;
    std::vector<Pauli2> _twirlSet;
    bool _isClifford = true;

    static std::size_t index(const Pauli2 &p);
};

/**
 * Conjugation table of a fixed 2x2 unitary: the single-qubit
 * counterpart of Conjugation2Q, used by the stabilizer backend's
 * Clifford-eligibility analysis and generator-image derivation.
 */
class Conjugation1Q
{
  public:
    /** Build the table by conjugating X, Y, Z through u. */
    explicit Conjugation1Q(const CMat &u, double tol = 1e-8);

    /** True if every Pauli maps to a signed Pauli (U is Clifford). */
    bool isClifford() const { return _isClifford; }

    /**
     * Conjugation U P U^dagger of the given Pauli, or nullopt when
     * the image is not a signed Pauli.
     */
    std::optional<SignedPauli1> conjugate(PauliOp p) const;

    /** Generator images; U must be Clifford. */
    CliffordImages1Q images() const;

  private:
    std::array<std::optional<SignedPauli1>, 4> _table;
    bool _isClifford = true;
};

/**
 * The memo of Conjugation1Q/Conjugation2Q tables, keyed by the
 * bit-exact bytes of the unitary.
 *
 * Safe for concurrent use: parallel ensemble compilation shares one
 * table across worker threads.  Lookups take a shared lock; a miss
 * builds the table outside any lock and the first inserter wins
 * (tables are deterministic functions of the key).  Returned
 * references stay valid for the table's lifetime.
 */
class ConjugationTable
{
  public:
    /** Table of a 2x2 unitary, built on first use. */
    const Conjugation1Q &of1q(const CMat &u);

    /** Table of a 4x4 unitary, built on first use. */
    const Conjugation2Q &of2q(const CMat &u);

  private:
    std::shared_mutex _mutex;
    std::map<std::string, Conjugation1Q> _tables1q;
    std::map<std::string, Conjugation2Q> _tables2q;

    template <typename Table>
    const Table &lookup(std::map<std::string, Table> &tables,
                        const CMat &u);
};

} // namespace casq

#endif // CASQ_PAULI_CLIFFORD_HH
