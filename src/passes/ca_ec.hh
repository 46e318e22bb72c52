/**
 * @file
 * Context-Aware Error Compensation (paper Algorithm 2).
 *
 * The pass walks the twirled layer sequence of a circuit,
 * accumulating the known coherent Z / ZZ error angles per qubit and
 * coupled pair (rates from the backend tables integrated against the
 * toggling-frame sign functions of each layer context), carries the
 * accumulated angles forward through layers (flipping signs through
 * Pauli twirl gates, transforming through Clifford two-qubit gates),
 * and discharges them:
 *  - Z compensations as free virtual rz gates,
 *  - ZZ compensations absorbed into canonical / rzz gates at zero
 *    cost, or inserted as native pulse-stretched rzz rotations,
 *  - pairs with a measured qubit as outcome-conditioned rz gates
 *    (the dynamic-circuit rule of paper Fig. 9b).
 *
 * The walk runs on the flat (scheduled-representation) stream, after
 * lowering and late twirling: applyCaEcFlat() rebuilds the twirled
 * pre-lowering layers from a CaecPlan and the sampled TwirlFrames,
 * and splices its output back into the lowered layer segments.
 */

#ifndef CASQ_PASSES_CA_EC_HH
#define CASQ_PASSES_CA_EC_HH

#include "circuit/stratify.hh"
#include "circuit/unitary.hh"
#include "device/backend.hh"
#include "passes/twirling.hh"

namespace casq {

/**
 * Which error contexts a CA-EC walk compensates.  The strategy
 * picks the scope (buildPipeline() derives it), because each
 * strategy leaves a different remainder to compensation.
 */
enum class CaecScope
{
    /** Every context: Z and ZZ errors on idle, spectator and
     *  gate-active pairs, plus AC Stark shifts (CA-EC alone). */
    All,
    /** ZZ errors only: aligned DD removes the Z errors and Stark
     *  shifts (paper Fig. 3c combined curve). */
    ZzOnly,
    /** Z and ZZ errors on gate-active pairs only: CA-DD covers the
     *  idle contexts (paper Sec. V E). */
    ActiveOnly,
};

/** Tunables of the CA-EC pass. */
struct CaecOptions
{
    /**
     * Drop compensations smaller than this (radians).  Inserting a
     * pulse for a milliradian residual costs more (pulse error plus
     * idle time for everyone else) than it recovers; virtual rz
     * compensations are filtered by the same threshold for
     * consistency.
     */
    double minAngle = 0.02;

    /**
     * Assumed measurement + feedforward idle time for dynamic
     * layers (ns); < 0 means use the backend durations.  Paper
     * Fig. 9c sweeps this value to calibrate the feedforward time.
     */
    double assumedDynamicIdleNs = -1.0;
};

/** Bookkeeping of what the pass did (for tests and benches). */
struct CaecStats
{
    int absorbedIntoGates = 0;  //!< can/rzz parameter updates
    int insertedRz = 0;         //!< virtual Z compensations
    int insertedRzz = 0;        //!< explicit two-qubit corrections
    int conditionalRz = 0;      //!< measurement-conditioned rules
    int flushedEarly = 0;       //!< non-commuting layer flushes
};

/**
 * Deterministic blueprint for the flat-stage CA-EC walk: the
 * pre-twirl layered circuit captured before lowering, from which
 * applyCaEcFlat() reconstructs -- together with the frames the
 * late-twirl pass sampled -- the twirled layer sequence the walk
 * runs over.  Captured once in a pipeline's deterministic prefix and
 * shared across ensemble instances (PassArtifacts holds it as a
 * shared_ptr so the per-instance context forks copy a pointer, not
 * the circuit).
 */
struct CaecPlan
{
    LayeredCircuit layered{0, 0};
};

/** Capture the CA-EC walk blueprint of a layered circuit. */
CaecPlan makeCaecPlan(const LayeredCircuit &circuit);

/**
 * Apply Algorithm 2 on the flat (scheduled-representation) stream:
 * `flat` must be flatten() of the plan's circuit, optionally
 * transpiled (pass the pipeline's TranspileCache through `native`;
 * null means the stream is not lowered), with the late-twirl frames
 * of `frames` already spliced in.  `scope` selects the error
 * contexts the walk compensates.  Layer segments
 * are recovered from the full barriers flatten() emits; the walk
 * runs over the reconstructed pre-lowering twirled layers, passes
 * untouched segments through verbatim, re-lowers the layers it
 * absorbed compensation into, and splices freshly lowered
 * compensation layers between segments.
 *
 * The output is pinned bit for bit, at a given seed, by
 * tests/golden/twirl_reference_schedules.txt.  The walk itself
 * consumes no randomness; `frames == nullptr` means the stream is
 * untwirled.
 *
 * The walk's Pauli-conjugation tables come from `tables` (in a
 * pipeline, the table the twirl-plan pass already warmed).
 */
Circuit applyCaEcFlat(const Circuit &flat, const CaecPlan &plan,
                      const TwirlFrames *frames,
                      const Backend &backend,
                      ConjugationTable &tables,
                      const CaecOptions &options = {},
                      CaecScope scope = CaecScope::All,
                      TranspileCache *native = nullptr,
                      CaecStats *stats = nullptr);

} // namespace casq

#endif // CASQ_PASSES_CA_EC_HH
