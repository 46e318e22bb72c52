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

/**
 * Lower a logical circuit to the native set {rz, sx, x, cx, ecr,
 * rzz, delay, measure, reset, barrier}.  Can gates expand to 3 CX;
 * generic 1q gates expand via Eq. (4); rzz stays a native
 * pulse-stretched gate (paper Sec. IV B).  The rewrite goes
 * instruction by instruction, so lowering a fragment equals lowering
 * it as part of the whole circuit -- the property TranspileCache
 * relies on.
 */
Circuit transpileToNative(const Circuit &circuit);

/**
 * Memoizing per-instruction transpiler.  fragmentFor() returns the
 * native lowering of one instruction, computed once per distinct
 * instruction (bit-exact parameter identity) and shared afterwards;
 * lower() splices the cached fragments of a layer in instruction
 * order, which is byte-identical to transpiling the containing
 * circuit in one call.
 *
 * A pipeline that lowers to the native set makes one cache and
 * hands it to every pass that splices layers into the lowered
 * stream: late-twirl lowers its frame layers through it, and the
 * scheduled CA-EC pass re-lowers the layers it absorbs a
 * compensation angle into plus the compensation layers it inserts.
 * Across an ensemble those instructions only differ by twirl-frame
 * sign flips, so the distinct-instruction population is small and
 * the per-instance resynthesis (canonical blocks cost a numeric 2q
 * decomposition each) collapses into map lookups.
 *
 * Safe for concurrent use: parallel ensemble compilation shares one
 * cache across worker threads (same locking discipline as
 * ConjugationTable; first inserter wins, values are deterministic).
 */
class TranspileCache
{
  public:
    /** Lowered fragment of one instruction (cached). */
    const std::vector<Instruction> &fragmentFor(
        const Instruction &inst);

    /** Native lowering of a layer, fragment by fragment. */
    std::vector<Instruction> lower(
        const std::vector<Instruction> &insts);

  private:
    std::shared_mutex _mutex;
    std::map<std::string, std::vector<Instruction>> _fragments;
};

} // namespace casq

#endif // CASQ_CIRCUIT_UNITARY_HH
