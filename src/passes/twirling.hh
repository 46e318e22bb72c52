/**
 * @file
 * Pauli twirling of two-qubit gate layers (paper Sec. III A,
 * Fig. 2).
 *
 * For every two-qubit gate a Pauli pair P is sampled from the gate's
 * valid twirl set (all 16 pairs for Clifford gates such as ECR/CX;
 * the commutant subset such as {II, XX, YY, ZZ} for Heisenberg
 * canonical blocks) and the conjugated Pauli Q = U P U^dagger is
 * inserted after the gate, leaving the logical circuit unchanged up
 * to a global sign.  The frames are sampled after lowering: a
 * deterministic blueprint (TwirlPlan) is captured from the layered
 * circuit, and insertTwirlFrames() splices the tagged single-qubit
 * Pauli frame layers into the lowered stream around each two-qubit
 * layer.  The sampled frames are also recorded (TwirlFrames) so that
 * the CA-EC walk can commute its compensations through them exactly
 * as in Algorithm 2.
 */

#ifndef CASQ_PASSES_TWIRLING_HH
#define CASQ_PASSES_TWIRLING_HH

#include <cstddef>
#include <vector>

#include "circuit/stratify.hh"
#include "circuit/unitary.hh"
#include "common/rng.hh"
#include "pauli/clifford.hh"

namespace casq {

/**
 * Deterministic twirl blueprint of a layered circuit: for every
 * TwoQubit layer, its index and its two-qubit gates, in sampling
 * order.
 *
 * The blueprint is captured before lowering (by the twirl-plan
 * analysis pass) and consumed by the late-twirl pass after
 * flatten/transpile, where the original gate unitaries -- needed to
 * look up the conjugation tables -- are no longer recoverable from
 * the lowered instructions (a canonical block, for example, transpiles
 * into a multi-gate fragment).
 */
struct TwirlPlan
{
    struct LayerGates
    {
        std::size_t layer = 0;          //!< index into layers()
        std::vector<Instruction> gates; //!< 2q gates, sampling order
    };

    /** TwoQubit layers holding at least one two-qubit gate. */
    std::vector<LayerGates> targets;

    /** Layer count at plan time (= flat barrier segments). */
    std::size_t layerCount = 0;

    /** Total gates across targets (for diagnostics/tests). */
    std::size_t gateCount() const;
};

/** Capture the twirl blueprint of a layered circuit. */
TwirlPlan makeTwirlPlan(const LayeredCircuit &circuit);

/**
 * The frames insertTwirlFrames() sampled, recorded *before* native
 * lowering: for every plan target, the tagged Pauli instructions of
 * the pre and post frame layers (possibly empty -- identity frames
 * insert no gates).  The CA-EC walk consumes this to rebuild the
 * twirled pre-lowering layer sequence it runs over, because after
 * transpilation the frame gates are no longer recoverable from the
 * lowered stream (Y lowers to an untagged rz + x fragment, for
 * example).
 */
struct TwirlFrames
{
    struct LayerFrames
    {
        std::size_t layer = 0;          //!< plan target layer index
        std::vector<Instruction> pre;   //!< frames before the layer
        std::vector<Instruction> post;  //!< frames after the layer
    };

    /** One record per plan target, in target order. */
    std::vector<LayerFrames> targets;
};

/**
 * Split a flat circuit into the layer segments flatten() encoded:
 * one segment per stretch between consecutive all-qubit barriers
 * (the barriers themselves are dropped).  Transpilation passes
 * barriers through untouched, so the split works on lowered streams
 * too; both insertTwirlFrames() and the CA-EC walk recover layer
 * boundaries this way.  Partial barriers stay inside their segment:
 * LayeredCircuit::addLayer() rejects all-qubit barriers inside a
 * layer, so every full barrier is a layer separator.
 */
std::vector<std::vector<Instruction>>
barrierSegments(const Circuit &flat);

/**
 * Insert freshly sampled Pauli-twirl frames into a lowered circuit:
 * `flat` must be flatten() of the circuit the plan was captured
 * from, optionally transpiled to the native set (pass the
 * pipeline's TranspileCache through `native` so the frame gates
 * receive the identical lowering; null means the stream is not
 * lowered).  Layer boundaries are recovered from the full barriers
 * flatten() emits; for every target the sampled Pauli P of each
 * two-qubit gate goes into a frame layer before the segment and its
 * conjugation Q = U P U^dagger into one after it, exactly where
 * flatten() would have put them.  Empty frame layers are elided.
 * The gates' conjugation tables come from `tables` (the pipeline's
 * table, warmed by the twirl-plan pass).
 *
 * The output is pinned bit for bit, at a given seed, by
 * tests/golden/twirl_reference_schedules.txt.  `frames`, when
 * given, receives the number of non-identity frame gates before
 * native lowering (what late-twirl publishes as
 * PassArtifacts::twirlGates); `frame_insts`,
 * when given, receives the sampled pre-lowering frame instructions
 * per target (for the CA-EC walk).
 */
Circuit insertTwirlFrames(const Circuit &flat, const TwirlPlan &plan,
                          Rng &rng, ConjugationTable &tables,
                          TranspileCache *native = nullptr,
                          std::size_t *frames = nullptr,
                          TwirlFrames *frame_insts = nullptr);

} // namespace casq

#endif // CASQ_PASSES_TWIRLING_HH
