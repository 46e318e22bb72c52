/**
 * @file
 * PassManager: an ordered, reusable pass pipeline.
 *
 * The manager owns its passes and executes them in registration
 * order over a PassContext, timing each pass and packaging the
 * schedule and the published artifacts into a CompilationResult.
 * Because passes may carry caches (the pipeline's ConjugationTable),
 * a manager is built once and reused across every instance of an
 * ensemble or every depth of a parameter sweep.
 *
 * Ensembles are first-class: runEnsemble() compiles N instances
 * concurrently on a work-stealing pool (common/thread_pool.hh) and
 * reuses the pipeline's deterministic prefix -- every pass before
 * the first isStochastic() one -- across all instances via a cached
 * context snapshot.  Instance k always draws from the RNG stream
 * derived as (seed, k + 7001), so the schedules are bit-identical
 * to the serial path for every thread count.
 */

#ifndef CASQ_PASSES_PASS_MANAGER_HH
#define CASQ_PASSES_PASS_MANAGER_HH

#include <atomic>
#include <memory>
#include <optional>
#include <utility>

#include "passes/pass.hh"

namespace casq {

class ThreadPool;

/** Wall-clock cost of one pass execution. */
struct PassMetric
{
    std::string name;
    double millis = 0.0;
};

/** Everything a pipeline run produces. */
struct CompilationResult
{
    ScheduledCircuit scheduled{0, 0};

    /** Per-pass wall-clock timings, in execution order. */
    std::vector<PassMetric> metrics;

    /** What the passes published (analysis results). */
    PassArtifacts artifacts;

    /** Sum of the per-pass timings. */
    double totalMillis() const;
};

/** Configuration of a runEnsemble() call. */
struct EnsembleOptions
{
    /**
     * Requested instance count.  A pipeline with no stochastic pass
     * compiles a single instance regardless (N identical copies
     * would be waste).
     */
    int instances = 1;

    /**
     * Master seed; instance k uses the derived stream
     * (seed, k + 7001).
     */
    std::uint64_t seed = 0;

    /** Worker threads; 1 compiles inline, 0 means one per core. */
    unsigned threads = 1;

    /**
     * Run the deterministic pass prefix once and fork per-instance
     * contexts from the cached snapshot.  Disabling recompiles the
     * prefix per instance; the schedules are identical either way.
     */
    bool prefixCache = true;
};

/** Everything an ensemble compilation produces. */
struct EnsembleResult
{
    /** One CompilationResult per compiled instance. */
    std::vector<CompilationResult> instances;

    /**
     * Passes served from the shared prefix snapshot (0 when the
     * first pass is stochastic or the cache was disabled).  The
     * prefix ran exactly once; its timings are prefixMetrics and
     * are also replicated into each instance's metrics so that
     * every CompilationResult keeps one entry per pipeline pass.
     */
    std::size_t prefixLength = 0;
    std::vector<PassMetric> prefixMetrics;

    /**
     * Instance compilations served from the prefix snapshot: equal
     * to instances.size() when the cache engaged, 0 when it was
     * bypassed (empty prefix or prefixCache = false).
     */
    std::size_t prefixHits = 0;

    /** End-to-end wall-clock time of the ensemble compilation. */
    double wallMillis = 0.0;
};

class PassManager;

/**
 * A prepared ensemble compilation: the deterministic pass prefix has
 * already run (once) and each instance can be compiled on demand
 * with compileInstance(k).  This is the streaming interface behind
 * PassManager::runEnsemble() -- consumers that want to *do*
 * something with each instance as soon as it exists (e.g.
 * SimulationEngine's fused compile->simulate pipeline) call
 * compileInstance from their own worker tasks instead of waiting
 * for a materialized std::vector of schedules.
 *
 * compileInstance(k) is safe to call concurrently for distinct k
 * (same contract as the runEnsemble worker tasks).  The plan
 * borrows the manager, logical circuit, and backend passed to
 * planEnsemble(); all three must outlive it.
 */
class EnsemblePlan
{
  public:
    EnsemblePlan(EnsemblePlan &&) noexcept = default;
    EnsemblePlan(const EnsemblePlan &) = delete;
    EnsemblePlan &operator=(const EnsemblePlan &) = delete;
    EnsemblePlan &operator=(EnsemblePlan &&) = delete;

    /** Instances to compile (1 for deterministic pipelines). */
    int instanceCount() const { return _count; }

    /** Passes served from the shared prefix snapshot. */
    std::size_t prefixLength() const { return _prefixLength; }

    /** Timings of the one-time prefix run. */
    const std::vector<PassMetric> &prefixMetrics() const
    {
        return _prefixMetrics;
    }

    /**
     * compileInstance() calls served from the prefix snapshot so
     * far (0 when the plan has no cached prefix).  Safe to read
     * concurrently with in-flight compilations.
     */
    std::size_t prefixHits() const
    {
        return _prefixHits
                   ? _prefixHits->load(std::memory_order_relaxed)
                   : 0;
    }

    /**
     * Compile instance k.  Bit-identical to the serial reference:
     * instance k draws from the RNG stream derived as
     * (seed, k + 7001) and its metrics keep one entry per pipeline
     * pass (prefix timings replicated).
     */
    CompilationResult compileInstance(std::size_t k) const;

  private:
    friend class PassManager;

    EnsemblePlan() = default;

    PassManager *_manager = nullptr;
    const LayeredCircuit *_logical = nullptr;
    const Backend *_backend = nullptr;
    Rng _master;
    int _count = 1;
    std::size_t _prefixLength = 0;
    std::vector<PassMetric> _prefixMetrics;

    /** Heap-pinned so the snapshot's Rng& survives plan moves. */
    std::unique_ptr<Rng> _prefixRng;
    std::optional<PassContext> _snapshot;

    /** Heap-pinned (atomics don't move) snapshot-serve counter. */
    std::unique_ptr<std::atomic<std::size_t>> _prefixHits;
};

/** An ordered pass pipeline. */
class PassManager
{
  public:
    // Defined out of line: the worker pool member needs ThreadPool
    // complete.  Moving a manager transfers the pool (its threads
    // reference it through a stable unique_ptr address).
    PassManager();
    ~PassManager();
    PassManager(PassManager &&) noexcept;
    PassManager &operator=(PassManager &&) noexcept;
    PassManager(const PassManager &) = delete;
    PassManager &operator=(const PassManager &) = delete;

    /** Append a pass; returns *this for chaining. */
    PassManager &add(std::unique_ptr<Pass> pass);

    /** Construct and append a pass in place. */
    template <typename PassT, typename... Args>
    PassManager &
    emplace(Args &&...args)
    {
        return add(std::make_unique<PassT>(
            std::forward<Args>(args)...));
    }

    std::size_t size() const { return _passes.size(); }
    bool empty() const { return _passes.empty(); }

    /** Registration-ordered pass names. */
    std::vector<std::string> passNames() const;

    /** True if any registered pass has the given name. */
    bool contains(const std::string &name) const;

    /** True if any registered pass is stochastic (consumes rng). */
    bool stochastic() const;

    /**
     * Length of the deterministic prefix: the number of leading
     * passes before the first stochastic one (size() when the
     * whole pipeline is deterministic).  This is the portion
     * runEnsemble() computes once and shares across instances.
     */
    std::size_t stochasticPrefixLength() const;

    /**
     * Execute every pass in order over the context.  Returns the
     * per-pass timings; artifacts accumulate on the context.  The
     * final stage is whatever the last pass left -- an empty
     * manager leaves the context untouched (the identity pipeline).
     */
    std::vector<PassMetric> run(PassContext &context);

    /**
     * Convenience end-to-end compilation: build a context for the
     * logical circuit, run the pipeline (which must end at the
     * Scheduled stage), and package the CompilationResult.
     */
    CompilationResult compile(const LayeredCircuit &logical,
                              const Backend &backend, Rng &rng);

    /**
     * Compile an ensemble of independently seeded instances, in
     * parallel when options.threads allows.  Determinism guarantee:
     * instance k's schedule depends only on (pipeline, logical,
     * backend, options.seed, k) -- never on the thread count, the
     * prefix cache, or scheduling order -- because each instance
     * draws from its own counter-derived RNG stream and the cached
     * prefix is deterministic by the isStochastic() contract.
     *
     * Passes run concurrently on distinct contexts; see the Pass
     * concurrency contract in pass.hh.  The pipeline must end at
     * the Scheduled stage, as for compile().
     *
     * The worker pool is kept alive on the manager and reused by
     * subsequent runEnsemble calls with the same thread count, so
     * sweeps (one ensemble per depth) do not respawn threads per
     * point.  Consequently a manager must not run two ensembles
     * from different threads at the same time.
     */
    EnsembleResult runEnsemble(const LayeredCircuit &logical,
                               const Backend &backend,
                               const EnsembleOptions &options);

    /**
     * Prepare an ensemble without compiling the instances: runs the
     * deterministic prefix (when options.prefixCache allows) and
     * returns a plan whose compileInstance(k) produces each
     * instance on demand.  runEnsemble() is planEnsemble() plus a
     * worker loop; engines that fuse compilation into downstream
     * work consume the plan directly.  options.threads is ignored
     * here -- the consumer owns the workers.
     */
    EnsemblePlan planEnsemble(const LayeredCircuit &logical,
                              const Backend &backend,
                              const EnsembleOptions &options);

  private:
    friend class EnsemblePlan;

    std::vector<std::unique_ptr<Pass>> _passes;
    std::unique_ptr<ThreadPool> _pool; //!< lazy, reused across runs

    /** Timed execution of passes [begin, end) over the context. */
    std::vector<PassMetric> runRange(PassContext &context,
                                     std::size_t begin,
                                     std::size_t end);

    /** Package a finished (Scheduled) context into a result. */
    static CompilationResult
    packageResult(PassContext &context,
                  std::vector<PassMetric> metrics);
};

} // namespace casq

#endif // CASQ_PASSES_PASS_MANAGER_HH
