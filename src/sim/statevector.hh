/**
 * @file
 * Dense statevector with the specialized kernels needed by the
 * trajectory simulator: generic 1q/2q gate application (with the
 * pending ZZ coupling to the rest of the register multiplied in on
 * the way), a fused diagonal-phase kernel for the per-segment Z/ZZ
 * crosstalk errors, a real product-diagonal kernel for pending
 * amplitude-damping weights, Pauli strings, single-qubit
 * probabilities and collapse, and exact Pauli expectation values
 * (all Z-type strings of a batch in one pass).
 */

#ifndef CASQ_SIM_STATEVECTOR_HH
#define CASQ_SIM_STATEVECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hh"
#include "pauli/pauli.hh"

namespace casq {

/**
 * Widest dense statevector (2^24 amplitudes, 256 MiB).  Wider
 * circuits need the stabilizer substrate, which requires Clifford
 * gates and Pauli noise.
 */
inline constexpr std::size_t kMaxDenseQubits = 24;

/** Per-qubit Z-rotation angle entry for the fused phase kernel. */
struct QubitAngle
{
    std::uint32_t qubit;
    double theta; //!< Rz(theta) = exp(-i theta Z / 2)
};

/** Per-pair ZZ-rotation angle entry for the fused phase kernel. */
struct PairAngle
{
    std::uint32_t q0;
    std::uint32_t q1;
    double theta; //!< Rzz(theta) = exp(-i theta ZZ / 2)
};

/**
 * Real per-qubit factors of a product diagonal: amplitudes whose bit
 * `qubit` is 0 are multiplied by w0, the others by w1.
 */
struct QubitWeight
{
    std::uint32_t qubit;
    double w0;
    double w1;
};

/** Dense complex statevector over n qubits (qubit 0 = LSB). */
class Statevector
{
  public:
    explicit Statevector(std::size_t num_qubits);

    std::size_t numQubits() const { return _numQubits; }
    std::size_t size() const { return _amps.size(); }

    /** Reset to |0...0>. */
    void reset();

    /** Copy another state of the same width (no reallocation). */
    void copyFrom(const Statevector &other);

    const std::vector<Complex> &amplitudes() const { return _amps; }
    Complex &amp(std::size_t i) { return _amps[i]; }

    /**
     * Apply the Rzz terms of `coupling`, then a 2x2 unitary to qubit
     * q, in one pass.  Each term pairs two distinct qubits; the
     * result is bit-identical to applyPhases({}, coupling) followed
     * by the gate.  Conditioned on the bits of the other qubits the
     * terms touch, they are a diagonal on q, so the pass multiplies
     * each amplitude by its entry of a factor table over just the
     * qubits the terms touch.  With no terms this is the plain gate.
     */
    void applyGate1q(const CMat &u, std::uint32_t q,
                     const std::vector<PairAngle> &coupling = {});

    /**
     * Apply the Rzz terms of `coupling`, then a 4x4 unitary to
     * (q0 = less significant, q1), in one pass (as applyGate1q).
     */
    void applyGate2q(const CMat &u, std::uint32_t q0,
                     std::uint32_t q1,
                     const std::vector<PairAngle> &coupling = {});

    /** Rzz(theta) on (q0, q1) (diagonal fast path). */
    void applyRzz(std::uint32_t q0, std::uint32_t q1, double theta);

    /**
     * Fused diagonal kernel: applies all the given Rz and Rzz
     * angles in a single pass over the state.  This is the hot path
     * of crosstalk-noise injection (one call per timeline segment).
     */
    void applyPhases(const std::vector<QubitAngle> &z_angles,
                     const std::vector<PairAngle> &zz_angles);

    /** Apply a Pauli string (its phase included). */
    void applyPauli(const PauliString &p);

    /**
     * Squared norm of the half where qubit q reads `outcome` (0 or
     * 1): the probability of that outcome when the state is
     * normalized.
     */
    double probability(std::uint32_t q, int outcome) const;

    /**
     * Project qubit q onto `outcome` and normalize.  The state need
     * not be normalized before: the kept half must hold more than
     * 1e-24 of the squared norm.
     */
    void collapse(std::uint32_t q, int outcome);

    /**
     * Multiply by the real product diagonal of `weights` (at most one
     * entry per qubit) and return the squared norms of qubit q's two
     * halves afterwards, in one pass.  With no weights the pass only
     * reads.
     */
    std::array<double, 2>
    applyWeights(const std::vector<QubitWeight> &weights,
                 std::uint32_t q);

    /** Exact expectation <psi| P |psi> (real part). */
    double expectation(const PauliString &p) const;

    /**
     * Expectations of the Z-type strings Z^zmasks[k] (phase +1) in
     * one pass: out[k] = sum_i (-1)^parity(i & zmasks[k]) |a_i|^2,
     * each summed in index order, so every value is bit-identical to
     * expectation() of that string.
     */
    void zExpectations(std::span<const std::uint64_t> zmasks,
                       std::span<double> out) const;

    /**
     * Full passes over the amplitude array since construction: every
     * kernel counts each walk it makes over the array, so a kernel
     * that reads the state and then writes it counts 2.  A pass that
     * touches only one half (probability) still counts 1.  Const
     * kernels count as well, so concurrent reads of one shared
     * statevector race on the counter; copyFrom only reads its
     * source.
     */
    std::uint64_t sweeps() const { return _sweeps; }

  private:
    std::size_t _numQubits;
    std::vector<Complex> _amps;
    std::vector<Complex> _phaseScratch; //!< lazily sized factor table
    mutable std::vector<double> _signScratch; //!< zExpectations' signs
    mutable std::uint64_t _sweeps = 0;

    /** A ZZ term of a factor table, at its higher qubit's level. */
    struct PairTerm
    {
        std::uint32_t lo; //!< table index bit of the lower qubit
        Complex e0;       //!< even-parity factor e^{-i theta/2}
        Complex e1;       //!< odd-parity factor e^{+i theta/2}
    };
    std::vector<PairTerm> _pairTerms; //!< phaseTable's scratch

    /**
     * Build in _phaseScratch the per-index factor table of the Rz
     * terms `z_angles` and Rzz terms `zz_angles` over the qubits of
     * `touched`, which holds every qubit a term names: bit r of a
     * table index is the bit of the r-th lowest touched qubit.  Over
     * all qubits this is applyPhases' table; the products are the
     * same over any subset, so a table over fewer qubits gives every
     * amplitude the factor applyPhases would.
     */
    const Complex *phaseTable(const std::vector<QubitAngle> &z_angles,
                              const std::vector<PairAngle> &zz_angles,
                              std::uint64_t touched);

    /**
     * Where an amplitude's coupling factor sits: bit r of the table
     * index is the bit of the r-th lowest qubit the terms or the
     * gate touch.
     */
    struct CouplingTable
    {
        const Complex *factor = nullptr; //!< null: no terms
        std::size_t gateBit[2] = {0, 0}; //!< index bit of gate qubit
        std::uint32_t partners = 0;      //!< touched non-gate qubits
        std::uint32_t partner[kMaxDenseQubits] = {};
        std::uint32_t rank[kMaxDenseQubits] = {};

        /** Table index of amplitude i with the gate bits clear. */
        std::size_t
        key(std::size_t i) const
        {
            std::size_t k = 0;
            for (std::uint32_t j = 0; j < partners; ++j)
                k |= ((i >> partner[j]) & 1) << rank[j];
            return k;
        }
    };

    /** The factor table of `coupling` for a gate on `gate`. */
    CouplingTable couplingTable(const std::vector<PairAngle> &coupling,
                                std::span<const std::uint32_t> gate);

    /** Rz(theta) on q: the one-term fast path of applyPhases. */
    void applyRz(std::uint32_t q, double theta);
};

} // namespace casq

#endif // CASQ_SIM_STATEVECTOR_HH
