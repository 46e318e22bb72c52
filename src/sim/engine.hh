/**
 * @file
 * SimulationEngine: the unified Monte-Carlo estimator behind every
 * figure of the paper.
 *
 * The engine owns the full hot path of the estimator pipeline
 * (PAPER.md Sec. V): twirled circuit variants are lowered once into
 * CompiledVariant execution plans (timeline + per-segment noise
 * plans + instruction unitaries), trajectories run as work-stealing
 * tasks on the shared ThreadPool (common/thread_pool.hh), and the
 * observable estimates are reduced in a fixed order so the results
 * are **bit-identical for every thread count**:
 *
 *  - trajectory t always draws from the RNG stream derived as
 *    (seed, t) and executes variant t mod V -- stream identity never
 *    depends on scheduling;
 *  - every trajectory writes its observable values into its own
 *    slot of a trajectories x observables matrix;
 *  - means and standard errors come from a pairwise reduction over
 *    the slots in trajectory order, on the calling thread.
 *
 * CompiledVariant construction is cached keyed by circuit identity
 * (exact schedule equality behind a 64-bit fingerprint), so sweeps
 * that revisit the same schedules -- repeated observable batches,
 * Ramsey delays, layer-fidelity lengths -- stop recompiling them.
 *
 * One dispatch loop serves every entry point: runShard() groups the
 * trajectories it owns by instance and streams each instance, the
 * moment PassManager::planEnsemble compiles it, into simulation
 * tasks on one pool, with no materialized schedule vector (and no
 * barrier) between the stages.  runEnsemble() is runShard() over a
 * single shard, and run() is the same loop over precompiled
 * variants.  docs/simulator.md has the full architecture notes.
 */

#ifndef CASQ_SIM_ENGINE_HH
#define CASQ_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/backend.hh"
#include "passes/pass_manager.hh"
#include "pauli/pauli.hh"
#include "sim/backend.hh"
#include "sim/noise_model.hh"

namespace casq {

class ThreadPool;

/**
 * Trajectory prefix-checkpoint policy: whether trajectories of a
 * variant may fork from the cached deterministic-prefix state
 * instead of replaying it from |0...0>.  Auto is bit-identical to
 * Off by construction (the checkpoint is produced by the exact FP op
 * sequence the replay would run); Off exists for A/B verification
 * and as a hard fallback.
 */
enum class PrefixStateMode : std::uint8_t
{
    Auto = 0, //!< fork from the cached prefix state when eligible
    Off = 1,  //!< replay the full timeline every trajectory
};

/** Lower-case name of a prefix-state mode ("auto" / "off"). */
const char *prefixStateModeName(PrefixStateMode mode);

/** Parse a prefix-state mode name; nullopt when unrecognized. */
std::optional<PrefixStateMode>
prefixStateModeFromName(const std::string &name);

/**
 * Version of the dense trajectory numerics.  Bumped by any change to
 * the dense kernels or to the sequence of kernel calls that can move
 * a bit of a dense estimate; a dense estimate is byte-stable only
 * within one version.  Shard results carry it, and mergeShards
 * refuses to mix versions (sim/shard.hh).
 *
 *  1 -- eager statevector kernels: every operator swept the state
 *       the moment it was applied.
 *  2 -- DenseBackend's lazy Pauli + diagonal frame and the two-pass
 *       amplitude-damping kernel (docs/simulator.md, "Lazy frame");
 *       within 1e-12 of version 1 on every mean.
 *  3 -- pending no-jump weights in that frame: a damping draw clear
 *       of 1 - e reads no state, and reads normalize through the
 *       weights; within 1e-12 of version 1 on every mean.
 */
inline constexpr std::uint32_t kEngineNumerics = 3;

/** Trajectory-count, seeding and threading options. */
struct ExecutionOptions
{
    /** Total trajectories, distributed round-robin over variants. */
    int trajectories = 200;

    /** Simulation master seed; trajectory t uses (seed, t). */
    std::uint64_t seed = 1234;

    /**
     * Workers of the one pool that drives compilation and
     * simulation (ThreadPool::resolveThreads convention: 0 = one
     * per hardware thread, 1 = inline on the caller).  Results are
     * bit-identical for every value.
     */
    int threads = 1;

    /** Serve repeated schedules from the compiled-variant cache. */
    bool cacheVariants = true;

    /**
     * Simulation substrate (sim/backend.hh).  Dense keeps results
     * bit-identical to earlier runs of the same kEngineNumerics;
     * Auto routes each variant to
     * the stabilizer tableau when its whole execution is Clifford
     * and falls back to dense otherwise; Stabilizer forces the
     * tableau and fails loudly on an ineligible variant.
     */
    SimBackendKind backend = SimBackendKind::Dense;

    /** Trajectory prefix-checkpoint reuse (bit-identical either way). */
    PrefixStateMode prefixState = PrefixStateMode::Auto;
};

/** Averaged observable estimates with statistical errors. */
struct RunResult
{
    std::vector<double> means;
    std::vector<double> stderrs;
    int trajectories = 0;

    /** Trajectories the backend routing sent to the tableau. */
    int stabilizerTrajectories = 0;

    /** Trajectories that forked from a prefix-state checkpoint. */
    std::uint64_t prefixStateHits = 0;

    /**
     * Full passes over the dense amplitude array made by the
     * trajectories (DenseBackend::sweeps), the checkpoint fork or
     * reset included and the one-time checkpoint builds excluded.
     * Deterministic for every thread count and shard split.
     */
    std::uint64_t denseSweeps = 0;

    double mean(std::size_t k = 0) const { return means.at(k); }
};

/**
 * Reduce a trajectories x observables slot matrix (trajectory-major)
 * into means and standard errors with the engine's fixed-order
 * pairwise reduction.  This is THE reduction: every engine result --
 * single-process or merged from shards (sim/shard.hh) -- goes
 * through it over the same slot ordering, which is what makes
 * S shards x any thread count bit-identical to one process.
 */
RunResult reduceTrajectorySlots(const std::vector<double> &slots,
                                std::size_t trajectories,
                                std::size_t observables);

/**
 * Raw output of one shard of a sharded ensemble run: the observable
 * slot values of the trajectories this shard owns, plus compilation
 * provenance so a merger can verify that every shard compiled the
 * same schedules.  Shard k of S owns global trajectories
 * t = k, k + S, k + 2S, ...; slots stores them ordinal-major
 * (slots[j * K + c] is observable c of the j-th owned trajectory,
 * i.e. global trajectory k + j * S).
 */
struct ShardSlots
{
    /** Raw observable values, K per owned trajectory. */
    std::vector<double> slots;

    /** Ensemble instances this shard compiled, ascending. */
    std::vector<std::uint32_t> instances;

    /** Schedule fingerprint of each compiled instance. */
    std::vector<std::uint64_t> fingerprints;

    /** Owned trajectories that forked from a prefix checkpoint. */
    std::uint64_t prefixStateHits = 0;

    /** Dense sweeps of the owned trajectories (RunResult). */
    std::uint64_t denseSweeps = 0;

    /**
     * Owned trajectories the backend routing sent to the tableau
     * (in memory only: ShardResult does not carry it).
     */
    int stabilizerTrajectories = 0;
};

/**
 * Configuration of a fused compile->simulate ensemble run: the
 * simulation options plus the ensemble compilation.
 */
struct EnsembleRunOptions : ExecutionOptions
{
    /** Twirled instances to compile (EnsembleOptions semantics). */
    int instances = 8;

    /** Compilation master seed; instance k uses (seed, k + 7001). */
    std::uint64_t compileSeed = 0;

    /** Share the deterministic pass prefix across instances. */
    bool prefixCache = true;
};

namespace detail {
struct CompiledVariant;
} // namespace detail

/**
 * Reusable noisy-trajectory simulation engine bound to a backend +
 * noise model.
 *
 * Thread-safety: an engine may be driven from one thread at a time
 * (its pool and cache are internal state); the parallelism happens
 * inside run()/runEnsemble()/runShard().  The engine borrows the
 * backend -- mutating backend properties after construction leaves
 * stale entries in the variant cache; call clearVariantCache()
 * first.
 */
class SimulationEngine
{
  public:
    SimulationEngine(const Backend &backend, const NoiseModel &noise);

    /**
     * Drive an explicit composed source list instead of the one a
     * NoiseModel describes (custom or instrumented mechanisms).  The
     * list is the composition order; the sources borrow `backend`.
     */
    SimulationEngine(const Backend &backend,
                     std::vector<std::unique_ptr<NoiseSource>> sources);
    ~SimulationEngine();

    SimulationEngine(const SimulationEngine &) = delete;
    SimulationEngine &operator=(const SimulationEngine &) = delete;

    /** Run a single compiled circuit. */
    RunResult run(const ScheduledCircuit &circuit,
                  const std::vector<PauliString> &observables,
                  const ExecutionOptions &opts = {});

    /**
     * Run a set of circuit variants (e.g. independently twirled
     * instances); trajectory t executes variant t mod V.  This is
     * runShard()'s dispatch loop over the V precompiled variants as
     * a single shard, reduced like runEnsemble().
     */
    RunResult run(const std::vector<ScheduledCircuit> &variants,
                  const std::vector<PauliString> &observables,
                  const ExecutionOptions &opts = {});

    /**
     * Fused ensemble estimate: compile opts.instances instances of
     * `logical` through `pipeline` (sharing the deterministic
     * prefix) and pipe each instance straight into its share of the
     * trajectories, all on one pool.  Implemented as runShard(...,
     * 0, 1) followed by reduceTrajectorySlots(), so it is
     * bit-identical with compileEnsemble() followed by run(), and
     * with the merge of runShard() over every shard of any split.
     */
    RunResult runEnsemble(const LayeredCircuit &logical,
                          PassManager &pipeline,
                          const std::vector<PauliString> &observables,
                          const EnsembleRunOptions &opts);

    /**
     * Run shard `shard_index` of a `shard_count`-way split of the
     * ensemble run described by opts: compile and simulate only the
     * trajectories t with t = shard_index (mod shard_count), and
     * only the instances those trajectories execute (exactly the
     * instances i = shard_index (mod shard_count) when shard_count
     * divides the instance count).  Returns the raw slot matrix
     * instead of reduced means so that mergeShards (sim/shard.hh)
     * can reassemble the single-process reduction order.
     *
     * Because trajectory t always draws the RNG stream (opts.seed,
     * t) and instance i always compiles from (opts.compileSeed,
     * i + 7001), the slot values are independent of the shard
     * decomposition, the host, and the thread count: merging the S
     * shards of any split is bit-identical to runEnsemble(), which
     * is this call with S = 1.
     */
    ShardSlots runShard(const LayeredCircuit &logical,
                        PassManager &pipeline,
                        const std::vector<PauliString> &observables,
                        const EnsembleRunOptions &opts,
                        std::uint32_t shard_index,
                        std::uint32_t shard_count);

    const Backend &backend() const { return _backend; }

    // ------------------------------------- variant cache controls

    /** Compiled variants currently cached. */
    std::size_t variantCacheSize() const;

    /**
     * Cache bound: an insert that would exceed it resets the whole
     * cache first (epoch eviction; see kMaxCachedVariants).
     */
    static constexpr std::size_t
    variantCacheCapacity()
    {
        return kMaxCachedVariants;
    }

    /** Lookups served from the cache since construction. */
    std::size_t variantCacheHits() const;

    /** Lookups that had to compile since construction. */
    std::size_t variantCacheMisses() const;

    /** Drop every cached variant (e.g. after backend mutation). */
    void clearVariantCache();

  private:
    const Backend &_backend;

    /**
     * The composed source list, built once at construction
     * (sim/noise/source.hh).  Owns the sources; the compiled
     * variants and trajectory runners borrow them.
     */
    std::vector<std::unique_ptr<NoiseSource>> _sources;

    /** Lazy shared pool, reused while the thread count matches. */
    std::unique_ptr<ThreadPool> _pool;

    /**
     * Bound on cached variants: a long-lived engine sweeping
     * always-fresh twirled ensembles must not accumulate dead plans
     * forever.  When an insert would exceed the bound the whole
     * cache is reset (epoch eviction: deterministic, O(1) amortized,
     * and a working set that fits the bound never loses an entry).
     */
    static constexpr std::size_t kMaxCachedVariants = 256;

    mutable std::mutex _cacheMutex;
    std::unordered_map<
        std::uint64_t,
        std::vector<std::shared_ptr<const detail::CompiledVariant>>>
        _cache;
    std::size_t _cacheCount = 0; //!< variants currently cached
    std::size_t _cacheHits = 0;
    std::size_t _cacheMisses = 0;

    /** Resolves instance k of a run into its compiled variant. */
    using VariantResolver =
        std::function<std::shared_ptr<const detail::CompiledVariant>(
            std::size_t)>;

    /**
     * The one trajectory-dispatch loop behind run(), runEnsemble()
     * and runShard(): simulate the trajectories t = shard_index
     * (mod shard_count) of a run over `instances` instances
     * (trajectory t executes instance t mod instances), resolving
     * each needed instance once, on the pool, and streaming it
     * straight into simulation tasks.
     */
    ShardSlots dispatch(std::size_t instances,
                        const VariantResolver &resolve,
                        const std::vector<PauliString> &observables,
                        const ExecutionOptions &opts,
                        std::uint32_t shard_index,
                        std::uint32_t shard_count);

    /** Fingerprint-keyed, equality-checked variant lookup. */
    std::shared_ptr<const detail::CompiledVariant>
    compiledVariant(const ScheduledCircuit &circuit, bool use_cache);

    /** Pool sized to `threads`, recreated only on size change. */
    ThreadPool &pool(unsigned threads);
};

} // namespace casq

#endif // CASQ_SIM_ENGINE_HH
