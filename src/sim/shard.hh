/**
 * @file
 * Sharded ensemble execution across processes and hosts.
 *
 * The paper's estimator workloads (hundreds of twirled instances x
 * thousands of trajectories, Figs. 6-10) parallelize beyond one
 * process without any coordination: instance i always compiles from
 * the counter-derived RNG stream (compileSeed, i + 7001) and
 * trajectory t always simulates from (seed, t), so WHERE a unit of
 * work runs is irrelevant to its bits.  Sharding is therefore pure
 * serialization plus a deterministic merge:
 *
 *  - a ShardSpec describes one shard of a job -- the logical
 *    circuit, observables, pipeline and backend recipes, the
 *    ensemble/trajectory options, and the shard index k-of-S -- as
 *    a versioned, endian-stable payload (common/serialize.hh);
 *
 *  - executeShard() replays the spec through
 *    SimulationEngine::runShard, which compiles and simulates only
 *    the trajectories t = k (mod S) (and only the instances those
 *    trajectories execute) and exports the raw per-trajectory
 *    observable slots plus RNG provenance and per-instance schedule
 *    fingerprints as a ShardResult;
 *
 *  - mergeShards() scatters the S slot matrices back into the
 *    single-process trajectory order and reduces them with the
 *    engine's fixed-order pairwise reduction
 *    (reduceTrajectorySlots), so S shards x any thread count is
 *    bit-identical to Engine::runEnsemble in one process.
 *
 * tools/casq_shard drives the flow over files (plan / run / merge),
 * making multi-host fan-out a shell script; docs/sharding.md has
 * the format spec and a two-host walkthrough.
 */

#ifndef CASQ_SIM_SHARD_HH
#define CASQ_SIM_SHARD_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/stratify.hh"
#include "pauli/pauli.hh"
#include "sim/engine.hh"

namespace casq {

/** Inconsistent shard set handed to mergeShards(). */
class ShardError : public std::runtime_error
{
  public:
    explicit ShardError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Backend recipes a spec can instruct a remote host to rebuild. */
enum class BackendRecipe : std::uint8_t
{
    Linear = 0,     //!< makeFakeLinear(qubits, seed)
    Ring = 1,       //!< makeFakeRing(qubits, seed)
    Nazca = 2,      //!< makeFakeNazca(seed); qubits ignored
    Sherbrooke = 3, //!< makeFakeSherbrooke(seed); qubits ignored
};

/** Parse a recipe label ("linear", "ring", ...); throws on junk. */
BackendRecipe backendRecipeFromName(const std::string &name);

/** Inverse of backendRecipeFromName(). */
std::string backendRecipeName(BackendRecipe recipe);

/**
 * Everything a remote process needs to execute one shard of an
 * ensemble run.  encode()/decode() round-trip the spec through the
 * versioned binary format described in docs/sharding.md; decode
 * validates every field (operand counts, qubit ranges, layer
 * disjointness, known names) and throws SerializeError on corrupt,
 * truncated, or version-skewed payloads -- it never aborts.
 */
struct ShardSpec
{
    /** This shard's index k and the total shard count S. */
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;

    // ------------------------------------------------- workload
    LayeredCircuit logical{0, 0};
    std::vector<PauliString> observables;

    // ------------------------------------- pipeline recipe
    std::string strategy = "ca-dd"; //!< strategyFromName() label
    bool twirl = true;
    bool lowerToNative = false;

    // -------------------------------------- backend recipe
    BackendRecipe backend = BackendRecipe::Linear;
    std::uint32_t backendQubits = 8;
    std::uint64_t backendSeed = 0x11;

    /**
     * Full noise configuration the executing host rebuilds, carried
     * verbatim in the payload (format v4; encodeNoiseModel block).
     * Earlier formats shipped only a 3-value recipe byte, silently
     * flattening any other configuration to its nearest preset --
     * now every toggle, scale and extra source survives the wire
     * (pauliOnly keeps twirled circuits Clifford, which is what lets
     * simBackend engage the stabilizer tableau on a shard).
     */
    NoiseModel noise = NoiseModel::standard();

    // --------------------------- ensemble/trajectory options
    std::int32_t instances = 8;
    std::uint64_t compileSeed = 0;
    bool prefixCache = true;
    std::int32_t trajectories = 200;
    std::uint64_t seed = 1234;

    /**
     * Simulation substrate (ExecutionOptions::backend semantics).
     * Auto routes Clifford variants to the stabilizer tableau on
     * every shard identically -- eligibility is a pure function of
     * the compiled variant, so routing never depends on the shard
     * decomposition and merged results stay bit-identical.
     */
    SimBackendKind simBackend = SimBackendKind::Dense;

    /**
     * Trajectory prefix-checkpoint reuse (PrefixStateMode
     * semantics).  Auto vs Off never changes a bit of any result,
     * so merged jobs stay consistent even if shards of one job were
     * executed with different modes.
     */
    PrefixStateMode prefixState = PrefixStateMode::Auto;

    /** Canonical versioned payload. */
    std::vector<std::uint8_t> encode() const;

    /** Parse and fully validate a payload (throws SerializeError). */
    static ShardSpec decode(const std::uint8_t *data,
                            std::size_t size);
    static ShardSpec decode(const std::vector<std::uint8_t> &bytes);

    /**
     * Fingerprint of the job this shard belongs to: the canonical
     * encoding with the shard index masked out, so the S specs of
     * one job share it and mergeShards() can reject results from
     * different jobs.
     */
    std::uint64_t jobFingerprint() const;

    /** Rebuild the device this spec's job targets. */
    Backend makeBackend() const;

    /** Rebuild the noise model this spec's job simulates under. */
    NoiseModel makeNoise() const;

    /**
     * Rebuild the compilation pipeline (buildPipeline over the
     * parsed strategy); throws SerializeError on an unknown
     * strategy label.
     */
    PassManager makePipeline() const;

    /** The engine options this spec describes; threads is local. */
    EnsembleRunOptions runOptions(int threads = 1) const;
};

/**
 * Raw output of one executed shard: the slot matrix of the owned
 * trajectories plus enough provenance (job fingerprint, RNG seeds,
 * per-instance schedule fingerprints) for mergeShards() to verify
 * that every shard of the set executed the same job and compiled
 * identical schedules.
 */
struct ShardResult
{
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;

    /** GLOBAL trajectory and observable counts of the job. */
    std::int32_t trajectories = 0;
    std::uint32_t observableCount = 0;

    /** ShardSpec::jobFingerprint() of the producing spec. */
    std::uint64_t jobFingerprint = 0;

    /** RNG provenance: the spec's simulation and compile seeds. */
    std::uint64_t seed = 0;
    std::uint64_t compileSeed = 0;

    /** Instances this shard compiled + their schedule prints. */
    std::vector<std::uint32_t> instances;
    std::vector<std::uint64_t> fingerprints;

    /** Ordinal-major raw slots (see ShardSlots in sim/engine.hh). */
    std::vector<double> slots;

    /** Owned trajectories that forked from a prefix checkpoint. */
    std::uint64_t prefixStateHits = 0;

    /**
     * kEngineNumerics of the build that executed the shard: slots
     * from different numerics may differ in the last bits, so
     * mergeShards() refuses to mix them.
     */
    std::uint32_t engineNumerics = kEngineNumerics;

    /** Dense sweeps of the owned trajectories (RunResult). */
    std::uint64_t denseSweeps = 0;

    /** Number of global trajectories this shard owns. */
    std::size_t ownedTrajectories() const;

    std::vector<std::uint8_t> encode() const;
    static ShardResult decode(const std::uint8_t *data,
                              std::size_t size);
    static ShardResult decode(const std::vector<std::uint8_t> &bytes);
};

/**
 * Execute the shard a spec describes: rebuild the backend and
 * pipeline, run SimulationEngine::runShard on `threads` workers
 * (0 = one per core; never changes any bit of the result), and
 * package the provenance-stamped ShardResult.
 */
ShardResult executeShard(const ShardSpec &spec, int threads = 1);

/**
 * Deterministically merge the S results of one job back into the
 * single-process estimate.  Validates the set -- exactly the shards
 * 0..S-1 of one job, one engine-numerics version, matching
 * provenance, agreeing schedule fingerprints wherever two shards
 * compiled the same instance --
 * and throws ShardError with a diagnostic on any inconsistency.
 * The reduction is reduceTrajectorySlots over the reassembled
 * global trajectory order, so the merged RunResult is bit-identical
 * to Engine::runEnsemble for any shard count and thread count.
 */
RunResult mergeShards(const std::vector<ShardResult> &shards);

} // namespace casq

#endif // CASQ_SIM_SHARD_HH
