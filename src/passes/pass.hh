/**
 * @file
 * The Pass and PassContext abstractions of the composable
 * compilation API.
 *
 * A compilation is a sequence of passes run over a PassContext.  The
 * context owns the circuit being lowered -- which moves through three
 * stages, Layered -> Flat -> Scheduled -- plus everything a pass
 * needs to do context-aware work: the target backend, the RNG that
 * drives stochastic passes (twirl sampling), and the PassArtifacts
 * record through which passes hand each other blueprints and
 * publish what they did (twirl gates, idle windows, DD pulses,
 * compensation statistics).
 *
 * Passes never copy the input circuit eagerly: the context starts
 * with a borrowed view of the caller's logical circuit and only
 * materializes an owned copy when a pass first mutates it in place,
 * so compiling an ensemble of N twirled instances copies nothing
 * per instance.
 */

#ifndef CASQ_PASSES_PASS_HH
#define CASQ_PASSES_PASS_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/schedule.hh"
#include "circuit/stratify.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "device/backend.hh"
#include "passes/ca_ec.hh"

namespace casq {

/** Lowering stage of the circuit held by a PassContext. */
enum class CircuitStage
{
    Layered,   //!< LayeredCircuit (twirl / CA-EC operate here)
    Flat,      //!< flat Circuit (transpilation operates here)
    Scheduled, //!< ScheduledCircuit (DD passes operate here)
};

/** Human-readable stage label for diagnostics. */
const char *stageName(CircuitStage stage);

/**
 * What the built-in passes publish, one field per fact.  An unset
 * field means the pass that publishes it did not run.  The two
 * blueprints are shared, so forking a context from a prefix
 * snapshot copies pointers, not plans.
 */
struct PassArtifacts
{
    /** Twirl blueprint (twirl-plan). */
    std::shared_ptr<const TwirlPlan> twirlPlan;

    /** CA-EC walk blueprint (ca-ec-plan). */
    std::shared_ptr<const CaecPlan> caecPlan;

    /**
     * Pre-lowering frames late-twirl sampled, for the CA-EC walk
     * (late-twirl, when a CA-EC pass follows).
     */
    std::optional<TwirlFrames> twirlFrames;

    /** Frame gates inserted before native lowering (late-twirl). */
    std::optional<std::size_t> twirlGates;

    /** Compensation bookkeeping (ca-ec). */
    std::optional<CaecStats> caecStats;

    /** Idle windows of at least kMinIdleNs (idle-analysis). */
    std::optional<std::vector<IdleWindow>> idleWindows;

    /** DD pulses inserted (dd-uniform-*, ca-dd). */
    std::optional<std::size_t> ddPulses;
};

/**
 * Mutable state threaded through a pass pipeline: the circuit at its
 * current lowering stage, the compilation environment, and the
 * artifacts the passes have published so far.
 *
 * Stage accessors are checked: reading layered() once the circuit
 * has been flattened (or scheduled() before scheduling) is a bug in
 * the pipeline's pass ordering and panics with the stage names.
 */
class PassContext
{
  public:
    /**
     * Start a compilation of `logical` for `backend`.  The context
     * borrows both (and the rng); they must outlive it.
     */
    PassContext(const LayeredCircuit &logical, const Backend &backend,
                Rng &rng);

    /**
     * Fork a context from a mid-pipeline snapshot: the new context
     * copies the snapshot's circuit (at whatever stage it reached)
     * and artifacts, but draws randomness from `rng`
     * instead of the snapshot's generator.  PassManager::runEnsemble
     * uses this to run a pipeline's deterministic prefix once and
     * fork one context per ensemble instance from the cached result;
     * anything still borrowed from the snapshot (the logical
     * circuit, the backend) must outlive the fork.
     */
    PassContext(const PassContext &snapshot, Rng &rng);

    const Backend &backend() const { return _backend; }
    Rng &rng() { return _rng; }

    CircuitStage stage() const { return _stage; }

    /** Read the layered circuit (borrowed source or owned copy). */
    const LayeredCircuit &layered() const;

    /**
     * Mutable layered circuit; materializes the private copy of the
     * borrowed source on first use.
     */
    LayeredCircuit &mutableLayered();

    /** Lower to the flat stage. */
    void setFlat(Circuit circuit);
    const Circuit &flat() const;

    /** Lower to the scheduled stage. */
    void setScheduled(ScheduledCircuit circuit);
    const ScheduledCircuit &scheduled() const;
    ScheduledCircuit &mutableScheduled();

    /** Move the final schedule out (context is done afterwards). */
    ScheduledCircuit takeScheduled();

    PassArtifacts &artifacts() { return _artifacts; }

  private:
    const LayeredCircuit *_source; //!< borrowed until first mutation
    const Backend &_backend;
    Rng &_rng;
    CircuitStage _stage = CircuitStage::Layered;
    std::optional<LayeredCircuit> _layered;
    std::optional<Circuit> _flat;
    std::optional<ScheduledCircuit> _scheduled;
    PassArtifacts _artifacts;

    void requireStage(CircuitStage wanted, const char *what) const;
};

/**
 * One unit of compilation work.  Implementations transform the
 * context's circuit, publish artifacts, or both.  Passes may keep
 * state across run() calls (e.g. the pipeline's ConjugationTable),
 * which a PassManager reuses across the instances of an ensemble.
 *
 * Concurrency contract: PassManager::runEnsemble invokes run() on
 * the SAME pass object from multiple worker threads, each with its
 * own PassContext.  A pass whose only state is configuration set at
 * construction is trivially safe; a pass with mutable cross-run
 * state must synchronize it internally (ConjugationTable is the
 * worked example).  All randomness must come from context.rng() --
 * never from shared or global generators -- so that compilation is
 * reproducible per instance regardless of thread schedule.
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable identifier used in metrics, logs, and lookups. */
    virtual std::string name() const = 0;

    /** Transform the context. */
    virtual void run(PassContext &context) = 0;

    /**
     * True when run() consumes the context's rng, i.e. repeated
     * compilations of the same circuit differ.  Ensemble
     * compilation uses this to decide whether N instances are
     * meaningful or would all be identical.
     */
    virtual bool isStochastic() const { return false; }
};

} // namespace casq

#endif // CASQ_PASSES_PASS_HH
