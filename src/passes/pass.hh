/**
 * @file
 * The Pass and PassContext abstractions of the composable
 * compilation API.
 *
 * A compilation is a sequence of passes run over a PassContext.  The
 * context owns the circuit being lowered -- which moves through three
 * stages, Layered -> Flat -> Scheduled -- plus everything a pass
 * needs to do context-aware work: the target backend, the RNG that
 * drives stochastic passes (twirl sampling), and a string-keyed
 * property map through which passes exchange metadata (idle-window
 * analyses, colouring results, compensation statistics).
 *
 * Passes never copy the input circuit eagerly: the context starts
 * with a borrowed view of the caller's logical circuit and only
 * materializes an owned copy when a pass first mutates it in place.
 * A pass that rebuilds the circuit wholesale (twirling, CA-EC)
 * simply installs its result with setLayered(), so compiling an
 * ensemble of N twirled instances copies nothing per instance.
 */

#ifndef CASQ_PASSES_PASS_HH
#define CASQ_PASSES_PASS_HH

#include <any>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/schedule.hh"
#include "circuit/stratify.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "device/backend.hh"

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
 * Typed read of a string-keyed std::any map; nullptr when the key
 * is absent or holds a different type.  Shared by PassContext and
 * CompilationResult.
 */
template <typename T>
const T *
propertyAs(const std::map<std::string, std::any> &properties,
           const std::string &key)
{
    const auto it = properties.find(key);
    if (it == properties.end())
        return nullptr;
    return std::any_cast<T>(&it->second);
}

/**
 * Mutable state threaded through a pass pipeline: the circuit at its
 * current lowering stage, the compilation environment, and the
 * inter-pass property map.
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
     * copies the snapshot's circuit (at whatever stage it reached),
     * property map, and notes, but draws randomness from `rng`
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

    /** Replace the layered circuit without copying the source. */
    void setLayered(LayeredCircuit circuit);

    /** Lower to the flat stage. */
    void setFlat(Circuit circuit);
    const Circuit &flat() const;
    Circuit &mutableFlat();

    /** Lower to the scheduled stage. */
    void setScheduled(ScheduledCircuit circuit);
    const ScheduledCircuit &scheduled() const;
    ScheduledCircuit &mutableScheduled();

    /** Move the final schedule out (context is done afterwards). */
    ScheduledCircuit takeScheduled();

    // ------------------------------------------------ property map

    /** Store a property, replacing any previous value. */
    void setProperty(const std::string &key, std::any value);

    bool hasProperty(const std::string &key) const;

    /** Remove a property; no-op when absent. */
    void eraseProperty(const std::string &key);

    /**
     * Typed read of a property; nullptr when the key is absent or
     * holds a different type.
     */
    template <typename T>
    const T *
    property(const std::string &key) const
    {
        return propertyAs<T>(_properties, key);
    }

    /** Typed read that panics when the property is missing. */
    template <typename T>
    const T &
    requireProperty(const std::string &key) const
    {
        const T *value = property<T>(key);
        casq_assert(value != nullptr,
                    "pass property '", key,
                    "' missing or of the wrong type");
        return *value;
    }

    const std::map<std::string, std::any> &properties() const
    {
        return _properties;
    }

    /** Move the property map out (context is done afterwards). */
    std::map<std::string, std::any> takeProperties()
    {
        return std::move(_properties);
    }

    // ------------------------------------------------- diagnostics

    /** Record a human-readable diagnostic line. */
    void addNote(std::string note);

    const std::vector<std::string> &notes() const { return _notes; }

    /** Move the notes out (context is done afterwards). */
    std::vector<std::string> takeNotes()
    {
        return std::move(_notes);
    }

  private:
    const LayeredCircuit *_source; //!< borrowed until first mutation
    const Backend &_backend;
    Rng &_rng;
    CircuitStage _stage = CircuitStage::Layered;
    std::optional<LayeredCircuit> _layered;
    std::optional<Circuit> _flat;
    std::optional<ScheduledCircuit> _scheduled;
    std::map<std::string, std::any> _properties;
    std::vector<std::string> _notes;

    void requireStage(CircuitStage wanted, const char *what) const;
};

/**
 * One unit of compilation work.  Implementations transform the
 * context's circuit, publish properties, or both.  Passes may keep
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
