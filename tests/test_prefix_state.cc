/**
 * @file
 * Trajectory prefix-state reuse (sim/engine.cc): forking every
 * trajectory from the variant's deterministic prefix checkpoint
 * must be BIT-identical to replaying the full timeline, for every
 * stock strategy, every backend kind, every thread count, and every
 * shard decomposition -- the prefix consumes no RNG, so skipping it
 * may not move a single byte of any estimate.  Also pins the
 * PrefixStateMode knob surface (names, defaults, wire format) and
 * the prefixStateHits accounting.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "circuit/stratify.hh"
#include "common/serialize.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

/** ECR/idle chain, the stock twirled estimator workload. */
LayeredCircuit
chainWorkload(std::size_t qubits, int depth)
{
    return bench::syntheticChainWorkload(qubits, depth,
                                         /*idle_layers=*/true);
}

std::vector<PauliString>
zObservables(std::size_t qubits)
{
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < qubits; ++q)
        obs.push_back(PauliString::single(qubits, q, PauliOp::Z));
    return obs;
}

/** Bit-exact RunResult comparison (no tolerance anywhere). */
void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    EXPECT_EQ(a.stabilizerTrajectories, b.stabilizerTrajectories)
        << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k]) << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

EnsembleRunOptions
runOptions(SimBackendKind backend, PrefixStateMode prefix,
           int threads)
{
    EnsembleRunOptions opts;
    opts.instances = 4;
    opts.compileSeed = 23;
    opts.trajectories = 21;
    opts.seed = 515;
    opts.threads = threads;
    opts.backend = backend;
    opts.prefixState = prefix;
    return opts;
}

TEST(PrefixState, ModeNamesRoundTrip)
{
    for (PrefixStateMode mode :
         {PrefixStateMode::Auto, PrefixStateMode::Off}) {
        const auto parsed =
            prefixStateModeFromName(prefixStateModeName(mode));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, mode);
    }
    EXPECT_FALSE(prefixStateModeFromName("on").has_value());
    EXPECT_FALSE(prefixStateModeFromName("").has_value());
}

TEST(PrefixState, DefaultsAreAuto)
{
    // Reuse is on by default everywhere because Auto is
    // bit-identical to Off by construction.
    EXPECT_EQ(ExecutionOptions{}.prefixState,
              PrefixStateMode::Auto);
    EXPECT_EQ(EnsembleRunOptions{}.prefixState,
              PrefixStateMode::Auto);
    EXPECT_EQ(ShardSpec{}.prefixState, PrefixStateMode::Auto);
}

TEST(PrefixState, ForkMatchesReplayForEveryStrategyAndBackend)
{
    // The heart of the contract: for all 7 stock strategies x
    // {dense, stabilizer, auto} x threads {1, 8}, forking from the
    // checkpoint (Auto) is byte-identical to full replay (Off).
    // The noise model picks the substrate a kind can legally run
    // on: standard noise exercises the dense path (partial
    // prefixes: leading virtual gates and zero-length segments),
    // pauli noise the tableau path, ideal noise the fully-eligible
    // timeline on both substrates.
    struct Config
    {
        const char *label;
        NoiseModel noise;
        SimBackendKind kind;
    };
    const std::vector<Config> configs{
        {"standard/dense", NoiseModel::standard(),
         SimBackendKind::Dense},
        {"standard/auto", NoiseModel::standard(),
         SimBackendKind::Auto},
        {"pauli/stabilizer", NoiseModel::pauliOnly(),
         SimBackendKind::Stabilizer},
        {"pauli/auto", NoiseModel::pauliOnly(),
         SimBackendKind::Auto},
        {"ideal/dense", NoiseModel::ideal(),
         SimBackendKind::Dense},
        {"ideal/stabilizer", NoiseModel::ideal(),
         SimBackendKind::Stabilizer},
        {"ideal/auto", NoiseModel::ideal(), SimBackendKind::Auto},
    };

    const Backend backend = makeFakeLinear(4, 1);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    for (Strategy strategy : allStrategies()) {
        // CA-EC compensation inserts continuous rz/rzz angles, so
        // an explicit stabilizer request fatals on those variants
        // by contract; Auto still covers their dense fallback.
        const bool clifford_pipeline =
            strategy != Strategy::Ec &&
            strategy != Strategy::EcAlignedDd &&
            strategy != Strategy::Combined;
        PassManager pipeline = buildPipeline(strategy);
        for (const Config &config : configs) {
            if (config.kind == SimBackendKind::Stabilizer &&
                !clifford_pipeline) {
                continue;
            }
            SimulationEngine engine(backend, config.noise);
            const std::string label = strategyName(strategy) +
                                      " " + config.label;
            const RunResult replay = engine.runEnsemble(
                circuit, pipeline, obs,
                runOptions(config.kind, PrefixStateMode::Off,
                           /*threads=*/1));
            EXPECT_EQ(replay.prefixStateHits, 0u) << label;
            for (int threads : {1, 8}) {
                const RunResult forked = engine.runEnsemble(
                    circuit, pipeline, obs,
                    runOptions(config.kind,
                               PrefixStateMode::Auto, threads));
                expectBitIdentical(
                    forked, replay,
                    label + " threads=" +
                        std::to_string(threads));
            }
        }
    }
}

TEST(PrefixState, FullyDeterministicTimelineForksEveryTrajectory)
{
    // Under ideal noise the whole timeline is the prefix, so every
    // trajectory must fork and be counted as a hit.
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::ideal());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const RunResult result = engine.runEnsemble(
        chainWorkload(4, 3), pipeline, zObservables(4),
        runOptions(SimBackendKind::Auto, PrefixStateMode::Auto,
                   /*threads=*/2));
    EXPECT_EQ(result.prefixStateHits,
              std::uint64_t(result.trajectories));
}

TEST(PrefixState, IneligibleWorkloadFallsBackToFullReplay)
{
    // An untwirled plain pipeline under standard noise opens with
    // a driven, stochastically-dephased segment: no event is
    // prefix-eligible, so Auto must take the replay path (zero
    // hits) and still match Off exactly.
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::standard());
    CompileOptions options;
    options.strategy = Strategy::None;
    options.twirl = false;
    PassManager pipeline = buildPipeline(options);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    const RunResult replay = engine.runEnsemble(
        circuit, pipeline, obs,
        runOptions(SimBackendKind::Dense, PrefixStateMode::Off,
                   /*threads=*/1));
    const RunResult forked = engine.runEnsemble(
        circuit, pipeline, obs,
        runOptions(SimBackendKind::Dense, PrefixStateMode::Auto,
                   /*threads=*/1));
    EXPECT_EQ(forked.prefixStateHits, 0u);
    expectBitIdentical(forked, replay, "ineligible fallback");
}

TEST(PrefixState, DynamicCircuitStopsThePrefixAtTheMeasurement)
{
    // Mid-circuit measurement + a conditional consume RNG and
    // clbits; the walk must stop there and Auto must still match
    // Off bit for bit.
    LayeredCircuit circuit(3, 1);
    Layer head{LayerKind::TwoQubit, {}};
    head.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{0, 1});
    circuit.addLayer(std::move(head));
    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 3; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{600.0});
    circuit.addLayer(std::move(idle));
    Layer measure{LayerKind::Dynamic, {}};
    Instruction m(Op::Measure, {1});
    m.cbit = 0;
    measure.insts.push_back(m);
    circuit.addLayer(std::move(measure));
    Layer fix{LayerKind::Dynamic, {}};
    Instruction x(Op::X, {1});
    x.condBit = 0;
    fix.insts.push_back(x);
    circuit.addLayer(std::move(fix));

    const Backend backend = makeFakeLinear(3, 1);
    SimulationEngine engine(backend, NoiseModel::standard());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const auto obs = zObservables(3);

    const RunResult replay = engine.runEnsemble(
        circuit, pipeline, obs,
        runOptions(SimBackendKind::Dense, PrefixStateMode::Off,
                   /*threads=*/1));
    for (int threads : {1, 8}) {
        expectBitIdentical(
            engine.runEnsemble(circuit, pipeline, obs,
                               runOptions(SimBackendKind::Dense,
                                          PrefixStateMode::Auto,
                                          threads)),
            replay, "dynamic threads=" + std::to_string(threads));
    }
}

// ------------------------------------------- shard decompositions

ShardSpec
shardSpec(std::uint32_t index, std::uint32_t count,
          PrefixStateMode prefix, const NoiseModel &noise)
{
    ShardSpec spec;
    spec.shardIndex = index;
    spec.shardCount = count;
    spec.logical = chainWorkload(4, 3);
    spec.observables = zObservables(4);
    spec.strategy = "ca-dd";
    spec.backendQubits = 4;
    spec.instances = 5;
    spec.compileSeed = 31;
    spec.trajectories = 43;
    spec.seed = 616;
    spec.noise = noise;
    spec.prefixState = prefix;
    if (noise == NoiseModel::pauliOnly() ||
        noise == NoiseModel::ideal())
        spec.simBackend = SimBackendKind::Auto;
    return spec;
}

RunResult
mergeJob(std::uint32_t shards, PrefixStateMode prefix,
         const NoiseModel &noise, int threads)
{
    std::vector<ShardResult> results;
    for (std::uint32_t k = 0; k < shards; ++k) {
        // Round-trip the wire format on every shard: the v5 payload
        // must carry the prefix mode out and the hit count back.
        const ShardSpec spec = ShardSpec::decode(
            shardSpec(k, shards, prefix, noise).encode());
        EXPECT_EQ(spec.prefixState, prefix);
        results.push_back(ShardResult::decode(
            executeShard(spec, threads).encode()));
    }
    return mergeShards(results);
}

TEST(PrefixState, ShardedForkMatchesShardedReplay)
{
    for (const NoiseModel &noise :
         {NoiseModel::standard(), NoiseModel::ideal()}) {
        const RunResult replay =
            mergeJob(1, PrefixStateMode::Off, noise, 1);
        for (std::uint32_t shards : {1u, 3u}) {
            for (int threads : {1, 8}) {
                expectBitIdentical(
                    mergeJob(shards, PrefixStateMode::Auto, noise,
                             threads),
                    replay,
                    "noise=" + noiseModelRecipe(noise) +
                        " shards=" + std::to_string(shards) +
                        " threads=" + std::to_string(threads));
            }
        }
    }
}

TEST(PrefixState, ShardResultsCarryAndMergeHitCounts)
{
    // Ideal noise: every owned trajectory forks, so the summed
    // merge count must equal the job's trajectory total -- and the
    // per-shard counts must survive their encode/decode round trip.
    std::vector<ShardResult> results;
    std::uint64_t total = 0;
    for (std::uint32_t k = 0; k < 3; ++k) {
        const ShardSpec spec =
            shardSpec(k, 3, PrefixStateMode::Auto,
                      NoiseModel::ideal());
        const ShardResult result = ShardResult::decode(
            executeShard(spec, 2).encode());
        EXPECT_EQ(result.prefixStateHits,
                  result.ownedTrajectories())
            << "shard " << k;
        total += result.prefixStateHits;
        results.push_back(result);
    }
    const RunResult merged = mergeShards(results);
    EXPECT_EQ(merged.prefixStateHits, total);
    EXPECT_EQ(merged.prefixStateHits,
              std::uint64_t(merged.trajectories));

    // Off on every shard reports zero hits.
    const ShardSpec off = shardSpec(0, 1, PrefixStateMode::Off,
                                    NoiseModel::ideal());
    EXPECT_EQ(executeShard(off, 1).prefixStateHits, 0u);
}

TEST(PrefixState, CorruptPrefixModeByteIsRejected)
{
    std::vector<std::uint8_t> bytes =
        shardSpec(0, 1, PrefixStateMode::Auto,
                  NoiseModel::standard())
            .encode();
    // The mode byte sits right after the serialized noise block;
    // rather than hardcoding its offset, corrupt every byte position
    // and require that no mutation of a single byte to 0xee ever
    // decodes into an out-of-range mode.
    bool rejected_mode = false;
    for (std::size_t off = 0; off < bytes.size(); ++off) {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[off] = 0xee;
        try {
            const ShardSpec spec = ShardSpec::decode(corrupt);
            EXPECT_LE(std::uint8_t(spec.prefixState),
                      std::uint8_t(PrefixStateMode::Off));
        } catch (const SerializeError &err) {
            if (std::string(err.what()).find("prefix-state") !=
                std::string::npos) {
                rejected_mode = true;
            }
        }
    }
    EXPECT_TRUE(rejected_mode);
}

} // namespace
} // namespace casq
