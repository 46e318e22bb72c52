/**
 * @file
 * Strategy pipelines on top of the composable pass API.
 *
 * Compilation is a PassManager run: an ordered list of Pass objects
 * (pass.hh) executed over a PassContext, producing a
 * CompilationResult with the scheduled circuit plus per-pass
 * timings and diagnostics (pass_manager.hh).  The error-suppression
 * strategies the paper's figures compare are prebuilt pipelines:
 * buildPipeline(options) assembles the pass list for a Strategy
 * from the built-in passes in builtin.hh.  Every pipeline has one
 * shape: [twirl-plan] -> [ca-ec-plan] -> flatten -> [transpile] ->
 * [late-twirl] -> [ca-ec] -> schedule -> [DD variant], so everything
 * before the stochastic late-twirl pass compiles once per ensemble.
 * The CA-EC strategies run the compensation walk on the flat stream
 * (the scheduled representation), reconstructing the twirled
 * pre-lowering layers from the ca-ec-plan blueprint plus the frames
 * late-twirl sampled.  The schedules are pinned bit for bit by
 * tests/golden/twirl_reference_schedules.txt and
 * tests/golden/dd_schedules.txt.
 *
 * compileCircuit / compileEnsemble are convenience wrappers that
 * build and run the pipeline in one call; callers that sweep a
 * parameter (depth scans, ensembles) should build the pipeline once
 * and reuse it, which also reuses the pipeline's shared caches: one
 * ConjugationTable, and one TranspileCache when it lowers to the
 * native gate set.  Ensemble compilation is parallel and
 * cached under the hood (PassManager::runEnsemble): instances
 * compile concurrently on a work-stealing pool when a thread count
 * is given, and the pipeline's deterministic prefix -- the passes
 * before the first stochastic one -- runs once and is shared across
 * instances.  Both optimizations are exact: instance k's schedule
 * depends only on (pipeline, circuit, backend, seed, k), so any
 * thread count reproduces the serial output byte for byte.  New
 * suppression schemes are added by writing a Pass and appending it
 * to a manager -- no pipeline-core edits required (see
 * docs/passes.md).
 */

#ifndef CASQ_PASSES_PIPELINE_HH
#define CASQ_PASSES_PIPELINE_HH

#include <optional>
#include <string>
#include <vector>

#include "circuit/unitary.hh"
#include "passes/ca_dd.hh"
#include "passes/ca_ec.hh"
#include "passes/pass_manager.hh"
#include "passes/twirling.hh"

namespace casq {

/** Error-suppression strategies compared throughout the paper. */
enum class Strategy
{
    None,          //!< twirling only (when enabled)
    Ec,            //!< context-aware error compensation (CA-EC)
    DdAligned,     //!< context-unaware aligned X2 on idle windows
    DdStaggered,   //!< context-unaware parity-staggered X2
    CaDd,          //!< Algorithm 1
    EcAlignedDd,   //!< ZZ compensation + aligned DD (Fig. 3c)
    Combined,      //!< CA-DD + active-context CA-EC (Sec. V E)
};

/** Human-readable strategy label used in bench output. */
std::string strategyName(Strategy strategy);

/**
 * Inverse of strategyName(): parse a label such as "ca-dd" (e.g.
 * from a --strategy CLI flag).  Returns nullopt for unknown names.
 */
std::optional<Strategy> strategyFromName(const std::string &name);

/** Every Strategy value, in declaration order. */
const std::vector<Strategy> &allStrategies();

/**
 * Pipeline configuration.  The strategy configures the passes: it
 * picks the DD pass and the error contexts CA-EC compensates
 * (CaecScope); the DD tunables are the constants of ca_dd.hh.
 */
struct CompileOptions
{
    Strategy strategy = Strategy::None;

    /** Insert Pauli-twirl layers around two-qubit layers. */
    bool twirl = true;

    /** Lower to the native {rz, sx, x, cx, ecr, rzz} set. */
    bool lowerToNative = false;

    /** CA-EC angle threshold and assumed dynamic idle time. */
    CaecOptions caec;
};

/**
 * Assemble the pass pipeline realizing options.strategy.  The
 * returned manager is reusable: run it across every instance of an
 * ensemble or every point of a sweep.
 */
PassManager buildPipeline(const CompileOptions &options);

/** Pipeline for a strategy with default options. */
PassManager buildPipeline(Strategy strategy);

/**
 * Compile one instance of a logical layered circuit for the
 * backend under the given strategy.  The rng drives twirl sampling.
 * Equivalent to buildPipeline(options).compile(...) keeping only
 * the schedule.
 */
ScheduledCircuit compileCircuit(const LayeredCircuit &logical,
                                const Backend &backend,
                                const CompileOptions &options,
                                Rng &rng);

/**
 * Compile `instances` independently twirled instances (or a single
 * instance when twirling is disabled), on `threads` workers (1 =
 * inline, 0 = one per core).  The result is identical for every
 * thread count.
 */
std::vector<ScheduledCircuit> compileEnsemble(
    const LayeredCircuit &logical, const Backend &backend,
    const CompileOptions &options, int instances,
    std::uint64_t seed, unsigned threads = 1);

/**
 * Ensemble compilation over a caller-built pipeline.  Instance k
 * derives its RNG from the seed exactly as the options-based
 * overload; when no pass reports isStochastic() all instances
 * would be identical, so only one is compiled.
 */
std::vector<ScheduledCircuit> compileEnsemble(
    const LayeredCircuit &logical, const Backend &backend,
    PassManager &pipeline, int instances, std::uint64_t seed,
    unsigned threads = 1);

} // namespace casq

#endif // CASQ_PASSES_PIPELINE_HH
