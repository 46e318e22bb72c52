/**
 * @file
 * Dense statevector with the specialized kernels needed by the
 * trajectory simulator: generic 1q/2q gate application, a fused
 * diagonal-phase kernel for the per-segment Z/ZZ crosstalk errors,
 * a real product-diagonal kernel for pending amplitude-damping
 * weights, Pauli strings, single-qubit probabilities and collapse,
 * and exact Pauli expectation values.
 */

#ifndef CASQ_SIM_STATEVECTOR_HH
#define CASQ_SIM_STATEVECTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
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

    /** Apply a 2x2 unitary to qubit q. */
    void applyGate1q(const CMat &u, std::uint32_t q);

    /** Apply a 4x4 unitary to (q0 = less significant, q1). */
    void applyGate2q(const CMat &u, std::uint32_t q0,
                     std::uint32_t q1);

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
    mutable std::uint64_t _sweeps = 0;

    /** Rz(theta) on q: the one-term fast path of applyPhases. */
    void applyRz(std::uint32_t q, double theta);
};

} // namespace casq

#endif // CASQ_SIM_STATEVECTOR_HH
