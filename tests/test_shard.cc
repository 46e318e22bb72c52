/**
 * @file
 * Sharded ensemble execution: merging the S shard results of a job
 * must be BIT-identical to the single-process Engine::runEnsemble,
 * for every shard count, thread count, and uneven split -- the
 * determinism contract that makes multi-host fan-out a pure
 * serialization problem.  Also pins the shard/instance ownership
 * arithmetic and mergeShards' validation diagnostics.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "common/serialize.hh"
#include "passes/pipeline.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

/**
 * Small but representative job: twirled CA-DD (twirl-plan and
 * flatten form the deterministic prefix, late-twirl onwards compiles
 * per instance), M = 7 instances and 61 trajectories so that neither
 * divides the shard counts below evenly.
 */
ShardSpec
testSpec(std::uint32_t shard_index = 0,
         std::uint32_t shard_count = 1)
{
    ShardSpec spec;
    spec.shardIndex = shard_index;
    spec.shardCount = shard_count;
    spec.logical = bench::syntheticChainWorkload(
        4, 3, /*idle_layers=*/true);
    for (std::uint32_t q = 0; q < 4; ++q)
        spec.observables.push_back(
            PauliString::single(4, q, PauliOp::Z));
    spec.observables.push_back(PauliString::fromLabel("ZZZZ"));
    spec.strategy = "ca-dd";
    spec.backendQubits = 4;
    spec.instances = 7;
    spec.compileSeed = 11;
    spec.trajectories = 61;
    spec.seed = 99;
    return spec;
}

/** Single-process reference for a spec's job. */
RunResult
singleProcessReference(const ShardSpec &spec)
{
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, NoiseModel::standard());
    return engine.runEnsemble(spec.logical, pipeline,
                              spec.observables,
                              spec.runOptions(/*threads=*/1));
}

/** Bit-exact RunResult comparison (no tolerance anywhere). */
void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    ASSERT_EQ(a.stderrs.size(), b.stderrs.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k]) << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

/** Execute every shard of a job through the serialized protocol. */
std::vector<ShardResult>
executeAllShards(std::uint32_t shard_count, int threads)
{
    std::vector<ShardResult> results;
    for (std::uint32_t k = 0; k < shard_count; ++k) {
        const ShardSpec spec = testSpec(k, shard_count);
        // Round-trip both payloads so every test run exercises the
        // same path a remote host would.
        const ShardSpec remote = ShardSpec::decode(spec.encode());
        const auto bytes = executeShard(remote, threads).encode();
        results.push_back(ShardResult::decode(bytes));
    }
    return results;
}

TEST(Shard, MergedShardsBitIdenticalToSingleProcess)
{
    const RunResult reference =
        singleProcessReference(testSpec());
    for (std::uint32_t shards : {1u, 2u, 3u, 8u}) {
        for (int threads : {1, 4}) {
            const RunResult merged =
                mergeShards(executeAllShards(shards, threads));
            expectBitIdentical(
                merged, reference,
                "S=" + std::to_string(shards) +
                    " threads=" + std::to_string(threads));
        }
    }
}

TEST(Shard, UnevenSplitOwnershipArithmetic)
{
    // 61 trajectories over 8 shards: shards 0-4 own 8, shards 5-7
    // own 7 -- the uneven tail must neither drop nor duplicate a
    // trajectory.
    const auto results = executeAllShards(8, 1);
    std::size_t total = 0;
    for (std::uint32_t k = 0; k < 8; ++k) {
        const std::size_t owned = results[k].ownedTrajectories();
        EXPECT_EQ(owned, std::size_t(k < 5 ? 8 : 7)) << "k=" << k;
        EXPECT_EQ(results[k].slots.size(),
                  owned * results[k].observableCount);
        total += owned;
    }
    EXPECT_EQ(total, 61u);
}

TEST(Shard, ShardsCompileOnlyTheirInstanceResidue)
{
    // With S dividing the instance count M = 8, shard k compiles
    // exactly the instances i = k (mod S) -- the ROADMAP's sketch.
    ShardSpec spec = testSpec(0, 2);
    spec.instances = 8;
    const ShardResult even = executeShard(spec, 1);
    EXPECT_EQ(even.instances,
              (std::vector<std::uint32_t>{0, 2, 4, 6}));
    spec.shardIndex = 1;
    const ShardResult odd = executeShard(spec, 1);
    EXPECT_EQ(odd.instances,
              (std::vector<std::uint32_t>{1, 3, 5, 7}));
}

TEST(Shard, DeterministicPipelineCollapsesToOneInstance)
{
    // An untwirled pipeline has no stochastic pass: planEnsemble
    // compiles a single instance and every shard executes it.
    auto spec_of = [](std::uint32_t k, std::uint32_t S) {
        ShardSpec spec = testSpec(k, S);
        spec.strategy = "dd-aligned";
        spec.twirl = false;
        return spec;
    };
    const RunResult reference =
        singleProcessReference(spec_of(0, 1));
    for (std::uint32_t S : {2u, 3u}) {
        std::vector<ShardResult> results;
        for (std::uint32_t k = 0; k < S; ++k) {
            results.push_back(executeShard(spec_of(k, S), 2));
            EXPECT_EQ(results.back().instances,
                      std::vector<std::uint32_t>{0});
        }
        expectBitIdentical(mergeShards(results), reference,
                           "deterministic S=" + std::to_string(S));
    }
}

TEST(Shard, RunShardIsThreadCountInvariant)
{
    const ShardSpec spec = testSpec(1, 3);
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, NoiseModel::standard());
    const ShardSlots serial = engine.runShard(
        spec.logical, pipeline, spec.observables,
        spec.runOptions(1), spec.shardIndex, spec.shardCount);
    for (int threads : {2, 8}) {
        PassManager fresh = spec.makePipeline();
        SimulationEngine parallel(backend,
                                  NoiseModel::standard());
        const ShardSlots slots = parallel.runShard(
            spec.logical, fresh, spec.observables,
            spec.runOptions(threads), spec.shardIndex,
            spec.shardCount);
        EXPECT_EQ(slots.slots, serial.slots)
            << "threads=" << threads;
        EXPECT_EQ(slots.instances, serial.instances);
        EXPECT_EQ(slots.fingerprints, serial.fingerprints);
    }
}

TEST(Shard, MergeAcceptsShardsInAnyOrder)
{
    auto results = executeAllShards(3, 1);
    const RunResult forward = mergeShards(results);
    std::swap(results[0], results[2]);
    expectBitIdentical(mergeShards(results), forward, "reversed");
}

TEST(Shard, MergeRejectsIncompleteOrDuplicatedSets)
{
    auto results = executeAllShards(3, 1);

    std::vector<ShardResult> missing{results[0], results[1]};
    EXPECT_THROW(mergeShards(missing), ShardError);

    std::vector<ShardResult> duplicated{results[0], results[1],
                                        results[1]};
    EXPECT_THROW(mergeShards(duplicated), ShardError);

    EXPECT_THROW(mergeShards({}), ShardError);
}

TEST(Shard, MergeRejectsResultsFromDifferentJobs)
{
    auto results = executeAllShards(2, 1);

    // Same shape, different job: the foreign shard must be named.
    ShardSpec foreign = testSpec(1, 2);
    foreign.seed ^= 1;
    results[1] = executeShard(foreign, 1);
    try {
        mergeShards(results);
        FAIL() << "merge accepted shards of different jobs";
    } catch (const ShardError &err) {
        EXPECT_NE(std::string(err.what()).find("provenance"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Shard, MergeRejectsScheduleFingerprintDisagreement)
{
    auto results = executeAllShards(3, 1);
    // Shards of one job must have compiled identical schedules
    // wherever they compiled the same instance.  With S=3 and
    // M=7 instances, gcd(3,7)=1 means every shard compiles every
    // instance, so tampering with one fingerprint must collide.
    ASSERT_FALSE(results[1].fingerprints.empty());
    results[1].fingerprints[0] ^= 1;
    try {
        mergeShards(results);
        FAIL() << "merge accepted disagreeing schedules";
    } catch (const ShardError &err) {
        EXPECT_NE(std::string(err.what()).find("fingerprint"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Shard, ExecuteShardRejectsMismatchedBackendWidth)
{
    ShardSpec spec = testSpec();
    spec.backendQubits = 5; // logical circuit has 4 qubits
    EXPECT_THROW(executeShard(spec, 1), ShardError);
}

/** A CA-DD job whose only layer is {ECR(0,1), Barrier(2,3)}. */
ShardSpec
partialBarrierSpec()
{
    ShardSpec spec = testSpec();
    spec.logical = LayeredCircuit(4, 0);
    Layer layer{LayerKind::TwoQubit, {}};
    layer.insts.emplace_back(Op::ECR,
                             std::vector<std::uint32_t>{0, 1});
    layer.insts.emplace_back(Op::Barrier,
                             std::vector<std::uint32_t>{2, 3});
    spec.logical.addLayer(std::move(layer));
    return spec;
}

TEST(Shard, PartialBarrierSpecExecutes)
{
    // A partial barrier inside a layer decodes cleanly, so the
    // worker must run it, not abort.
    const ShardSpec spec =
        ShardSpec::decode(partialBarrierSpec().encode());
    const ShardResult result = executeShard(spec, 1);
    expectBitIdentical(mergeShards({result}),
                       singleProcessReference(spec),
                       "partial-barrier spec");
}

TEST(Shard, DecodeRejectsAllQubitBarrierLayer)
{
    // All-qubit barriers are reserved as layer separators, so a
    // layer holding one is a corrupt payload.  Bypass addLayer() to
    // put one on the wire.
    ShardSpec spec = partialBarrierSpec();
    Layer layer{LayerKind::OneQubit, {}};
    layer.insts.emplace_back(Op::Barrier,
                             std::vector<std::uint32_t>{0, 1, 2, 3});
    spec.logical.layers().push_back(std::move(layer));
    try {
        ShardSpec::decode(spec.encode());
        FAIL() << "decode accepted an all-qubit barrier layer";
    } catch (const SerializeError &err) {
        EXPECT_NE(std::string(err.what()).find("all-qubit barrier"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Shard, BackendRecipeNamesRoundTrip)
{
    for (BackendRecipe recipe :
         {BackendRecipe::Linear, BackendRecipe::Ring,
          BackendRecipe::Nazca, BackendRecipe::Sherbrooke}) {
        EXPECT_EQ(backendRecipeFromName(backendRecipeName(recipe)),
                  recipe);
    }
    EXPECT_THROW(backendRecipeFromName("osprey"), SerializeError);
}

TEST(Shard, ReduceTrajectorySlotsMatchesEngineReduction)
{
    // The merge reduction is the engine reduction: a 1-shard job
    // reduced through mergeShards equals runEnsemble exactly, even
    // though the numbers flow through encode/decode in between.
    const ShardSpec spec = testSpec(0, 1);
    const RunResult merged = mergeShards(
        {ShardResult::decode(executeShard(spec, 1).encode())});
    expectBitIdentical(merged, singleProcessReference(spec),
                       "one-shard merge");
}

TEST(Shard, MergeRefusesMixedEngineNumerics)
{
    // Slots computed under different dense numerics may differ in
    // their last bits: the merge must name the skew, not reduce it.
    auto results = executeAllShards(2, 1);
    results[1].engineNumerics = kEngineNumerics + 1;
    try {
        mergeShards(results);
        FAIL() << "merge accepted mixed engine numerics";
    } catch (const ShardError &err) {
        EXPECT_NE(std::string(err.what()).find("engine numerics"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Shard, ResultRoundTripCarriesNumericsAndSweeps)
{
    const ShardResult result = executeShard(testSpec(0, 2), 1);
    EXPECT_EQ(result.engineNumerics, kEngineNumerics);
    EXPECT_GT(result.denseSweeps, 0u);
    const auto bytes = result.encode();
    const ShardResult back = ShardResult::decode(bytes);
    EXPECT_EQ(back.engineNumerics, result.engineNumerics);
    EXPECT_EQ(back.denseSweeps, result.denseSweeps);
    EXPECT_EQ(back.prefixStateHits, result.prefixStateHits);
    EXPECT_EQ(back.slots, result.slots);
    EXPECT_EQ(back.encode(), bytes);

    // The merged count is the single-process count.
    EXPECT_EQ(mergeShards(executeAllShards(3, 2)).denseSweeps,
              singleProcessReference(testSpec()).denseSweeps);
}

TEST(Shard, DecodeRejectsVersionFourPayloads)
{
    // A version-4 result is today's payload without the trailing
    // numerics stamp (u32) and sweep counter (u64); a version-4 spec
    // differs only in the version field.
    auto result = executeShard(testSpec(), 1).encode();
    result.resize(result.size() - 12);
    auto spec = testSpec().encode();
    for (auto *bytes : {&result, &spec}) {
        (*bytes)[4] = 4; // version field follows the 4-byte magic
        try {
            if (bytes == &result)
                ShardResult::decode(*bytes);
            else
                ShardSpec::decode(*bytes);
            FAIL() << "decode accepted a version-4 payload";
        } catch (const SerializeError &err) {
            EXPECT_NE(std::string(err.what()).find("version 4"),
                      std::string::npos)
                << err.what();
        }
    }
}

} // namespace
} // namespace casq
