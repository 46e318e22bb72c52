/**
 * @file
 * Gate unitaries, Euler-angle decomposition (paper Eq. 4), canonical
 * two-qubit gate synthesis (paper Eq. 5 / Fig. 1d), and lowering of
 * logical circuits to the hardware-native gate set.
 */

#ifndef CASQ_CIRCUIT_UNITARY_HH
#define CASQ_CIRCUIT_UNITARY_HH

#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "common/matrix.hh"

namespace casq {

/**
 * Unitary matrix of a gate op: 2x2 for single-qubit gates, 4x4 for
 * two-qubit gates with qubits[0] as the less significant index.
 */
CMat gateUnitary(Op op, const std::vector<double> &params = {});

/** Unitary of an instruction (must be a unitary op). */
CMat instructionUnitary(const Instruction &inst);

/**
 * Full 2^n x 2^n unitary of a circuit containing only unitary ops
 * (intended for tests; n is capped at 12).  Barriers are skipped.
 */
CMat circuitUnitary(const Circuit &circuit);

/**
 * Euler angles of a single-qubit unitary in the U(theta, phi,
 * lambda) convention, with the residual global phase:
 * u = e^{i phase} U(theta, phi, lambda).
 */
struct EulerAngles
{
    double theta = 0.0;
    double phi = 0.0;
    double lambda = 0.0;
    double phase = 0.0;
};

/** Decompose an arbitrary 2x2 unitary into Euler angles. */
EulerAngles eulerDecompose(const CMat &u);

/**
 * Emit the hardware realization of U(theta, phi, lambda) in the
 * {rz, sx} basis, paper Eq. (4):
 * U = Rz(phi + pi) SX Rz(theta + pi) SX Rz(lambda).
 * Appends onto `circuit` acting on qubit q.
 */
void appendU1q(Circuit &circuit, std::uint32_t q, double theta,
               double phi, double lambda);

/**
 * Attempt to factor a 4x4 unitary as kron(a, b) (a on the more
 * significant qubit).  Returns nullopt when u is entangling.
 */
std::optional<std::pair<CMat, CMat>> factorTensorProduct(
    const CMat &u, double tol = 1e-8);

/**
 * Synthesize can(alpha, beta, gamma) = exp(i(a XX + b YY + c ZZ))
 * into 3 CX gates plus single-qubit rotations (Vatan-Williams /
 * paper Fig. 1d); the result acts on qubits {0, 1} of a 2-qubit
 * circuit and equals the canonical gate up to global phase.
 */
Circuit synthesizeCan(double alpha, double beta, double gamma);

/** Options for lowering to the native gate set. */
struct TranspileOptions
{
    /**
     * Keep rzz as a native (pulse-stretched) gate instead of
     * expanding to CX - rz - CX (paper Sec. IV B).
     */
    bool nativeRzz = true;

    /** Use ECR as the native two-qubit gate where gates allow it. */
    bool preferEcr = false;
};

/**
 * Lower a logical circuit to the native set {rz, sx, x, cx/ecr,
 * rzz?, delay, measure, reset, barrier}.  Can gates expand to 3 CX;
 * generic 1q gates expand via Eq. (4).
 */
Circuit transpileToNative(const Circuit &circuit,
                          const TranspileOptions &options = {});

/**
 * Lower a standalone instruction sequence (a layer being spliced
 * into an already-lowered stream) to the native set.  Because
 * transpileToNative() rewrites instruction by instruction, lowering
 * a fragment equals lowering it as part of the whole circuit -- the
 * property the late-twirl and CA-EC passes rely on when they splice
 * frame and compensation layers into a lowered stream.
 */
std::vector<Instruction> transpileFragment(
    std::vector<Instruction> insts, std::size_t num_qubits,
    std::size_t num_clbits, const TranspileOptions &options = {});

/**
 * Memoizing per-instruction transpiler.  fragmentFor() returns the
 * native lowering of one instruction, computed once per distinct
 * instruction (bit-exact parameter identity) and shared afterwards;
 * splicing the cached fragments in instruction order is
 * byte-identical to transpiling the containing circuit in one call
 * (the transpileFragment() property, per instruction).
 *
 * The scheduled CA-EC pass re-lowers every layer it absorbs a
 * compensation angle into; across an ensemble the absorbed
 * parameters only differ by the twirl-frame sign flips, so the
 * distinct-instruction population is small and a shared cache
 * collapses the per-instance resynthesis (canonical blocks cost a
 * numeric 2q decomposition each) into map lookups.
 *
 * Safe for concurrent use: parallel ensemble compilation shares one
 * cache across worker threads (same locking discipline as
 * ConjugationTable; first inserter wins, values are deterministic).
 */
class TranspileCache
{
  public:
    explicit TranspileCache(TranspileOptions options = {})
        : _options(options)
    {
    }

    const TranspileOptions &options() const { return _options; }

    /** Lowered fragment of one instruction (cached). */
    const std::vector<Instruction> &fragmentFor(
        const Instruction &inst);

  private:
    TranspileOptions _options;
    std::shared_mutex _mutex;
    std::map<std::string, std::vector<Instruction>> _fragments;
};

} // namespace casq

#endif // CASQ_CIRCUIT_UNITARY_HH
