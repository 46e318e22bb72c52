/**
 * @file
 * Parallel + prefix-cached ensemble compilation
 * (PassManager::runEnsemble): determinism across thread counts,
 * exactness of the stochastic-prefix cache, and the bypass when the
 * pipeline starts with a stochastic pass.
 */

#include <gtest/gtest.h>

#include "experiments/ramsey.hh"
#include "passes/builtin.hh"
#include "passes/pass_manager.hh"
#include "passes/pipeline.hh"

namespace casq {
namespace {

Backend
testBackend()
{
    return makeFakeLinear(4, 1);
}

/** Gates + idles: both twirl and DD passes have work to do. */
LayeredCircuit
workload()
{
    LayeredCircuit circuit =
        buildCaseControlControl(4, 1, 0, 2, 3, 2);
    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 4; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{900.0});
    circuit.addLayer(std::move(idle));
    return circuit;
}

/**
 * Stochastic scheduled-stage pass: appends an X on an rng-chosen
 * qubit after the schedule, so different rng streams give
 * byte-visibly different schedules.
 */
class RandomTailPass : public Pass
{
  public:
    std::string name() const override { return "random-tail"; }
    bool isStochastic() const override { return true; }

    void
    run(PassContext &context) override
    {
        const auto qubit = static_cast<std::uint32_t>(
            context.rng().uniformInt(
                context.scheduled().numQubits()));
        const double start = context.scheduled().totalDuration();
        const double duration =
            context.backend().durations().oneQubit;
        Instruction inst(Op::X, {qubit});
        context.mutableScheduled().add(
            TimedInstruction{inst, start, duration});
    }
};

/** Per-instance schedules of the serial, uncached reference path. */
std::vector<std::string>
serialReference(PassManager &pipeline, const LayeredCircuit &logical,
                const Backend &backend, int instances,
                std::uint64_t seed)
{
    // Mirrors the documented derivation: instance k draws from the
    // stream (seed, k + 7001) and runs every pass itself.
    std::vector<std::string> out;
    const Rng master(seed);
    const int count = pipeline.stochastic() ? instances : 1;
    for (int k = 0; k < count; ++k) {
        Rng rng = master.derive(std::uint64_t(k) + 7001);
        out.push_back(
            pipeline.compile(logical, backend, rng)
                .scheduled.toString());
    }
    return out;
}

std::vector<std::string>
fingerprints(const EnsembleResult &result)
{
    std::vector<std::string> prints;
    for (const CompilationResult &instance : result.instances)
        prints.push_back(instance.scheduled.toString());
    return prints;
}

TEST(RunEnsemble, ByteIdenticalAcrossThreadCounts)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    const int instances = 6;
    const std::uint64_t seed = 2024;
    const auto expected = serialReference(pipeline, circuit,
                                          backend, instances, seed);

    for (unsigned threads : {1u, 2u, 8u}) {
        EnsembleOptions options;
        options.instances = instances;
        options.seed = seed;
        options.threads = threads;
        const EnsembleResult result =
            pipeline.runEnsemble(circuit, backend, options);
        EXPECT_EQ(fingerprints(result), expected)
            << "threads=" << threads;
    }
}

TEST(RunEnsemble, CompileEnsembleThreadsParameterIsExact)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    CompileOptions options;
    options.strategy = Strategy::Combined;

    const auto serial =
        compileEnsemble(circuit, backend, options, 5, 11, 1);
    const auto parallel =
        compileEnsemble(circuit, backend, options, 5, 11, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t k = 0; k < serial.size(); ++k)
        EXPECT_EQ(serial[k].toString(), parallel[k].toString())
            << "instance " << k;
}

TEST(RunEnsemble, PrefixCacheIsExactForLateStochasticPipeline)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();

    auto build = [] {
        PassManager pipeline;
        pipeline.emplace<FlattenPass>();
        pipeline.emplace<SchedulePass>();
        pipeline.emplace<CaDdPass>();
        pipeline.emplace<RandomTailPass>();
        return pipeline;
    };
    PassManager pipeline = build();
    EXPECT_EQ(pipeline.stochasticPrefixLength(), 3u);

    EnsembleOptions options;
    options.instances = 8;
    options.seed = 7;

    options.prefixCache = false;
    const auto uncached = fingerprints(
        pipeline.runEnsemble(circuit, backend, options));

    for (unsigned threads : {1u, 2u, 8u}) {
        options.prefixCache = true;
        options.threads = threads;
        const EnsembleResult cached =
            pipeline.runEnsemble(circuit, backend, options);
        EXPECT_EQ(cached.prefixLength, 3u);
        ASSERT_EQ(cached.prefixMetrics.size(), 3u);
        EXPECT_EQ(cached.prefixMetrics[0].name, "flatten");
        EXPECT_EQ(fingerprints(cached), uncached)
            << "threads=" << threads;
    }
}

/**
 * Stochastic Layered-stage pass: appends a layer of random Paulis
 * (X or Z per qubit), so every instance differs.
 */
class RandomPauliLayerPass : public Pass
{
  public:
    std::string name() const override { return "random-paulis"; }
    bool isStochastic() const override { return true; }

    void
    run(PassContext &context) override
    {
        Layer layer{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < context.layered().numQubits();
             ++q)
            layer.insts.emplace_back(
                context.rng().randomSign() > 0 ? Op::X : Op::Z,
                std::vector<std::uint32_t>{q});
        context.mutableLayered().addLayer(std::move(layer));
    }
};

TEST(RunEnsemble, StochasticFirstPassBypassesCache)
{
    // A pipeline that starts with a stochastic pass must cache
    // nothing -- a shared draw would correlate the ensemble -- and
    // the results must still match the serial reference exactly.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline;
    pipeline.emplace<RandomPauliLayerPass>();
    pipeline.emplace<FlattenPass>();
    pipeline.emplace<SchedulePass>();
    pipeline.emplace<CaDdPass>();
    ASSERT_TRUE(pipeline.stochastic());
    EXPECT_EQ(pipeline.stochasticPrefixLength(), 0u);

    EnsembleOptions options;
    options.instances = 5;
    options.seed = 13;
    options.prefixCache = true;
    const EnsembleResult result =
        pipeline.runEnsemble(circuit, backend, options);

    EXPECT_EQ(result.prefixLength, 0u);
    EXPECT_TRUE(result.prefixMetrics.empty());
    EXPECT_EQ(fingerprints(result),
              serialReference(pipeline, circuit, backend, 5, 13));

    // All instances identical would mean the stochastic pass was
    // wrongly served from a cache.
    const auto prints = fingerprints(result);
    bool any_difference = false;
    for (std::size_t k = 1; k < prints.size(); ++k)
        any_difference |= prints[k] != prints[0];
    EXPECT_TRUE(any_difference);
}

TEST(RunEnsemble, DeterministicPipelineCompilesOneInstance)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline;
    pipeline.emplace<FlattenPass>();
    pipeline.emplace<SchedulePass>();
    EXPECT_EQ(pipeline.stochasticPrefixLength(), pipeline.size());

    EnsembleOptions options;
    options.instances = 9;
    options.seed = 1;
    options.threads = 4;
    const EnsembleResult result =
        pipeline.runEnsemble(circuit, backend, options);
    EXPECT_EQ(result.instances.size(), 1u);

    Rng reference_rng = Rng(1).derive(7001);
    PassManager reference;
    reference.emplace<FlattenPass>();
    reference.emplace<SchedulePass>();
    EXPECT_EQ(result.instances[0].scheduled.toString(),
              reference.compile(circuit, backend, reference_rng)
                  .scheduled.toString());
}

TEST(RunEnsemble, InstanceResultsKeepOneMetricPerPass)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline;
    pipeline.emplace<FlattenPass>();
    pipeline.emplace<SchedulePass>();
    pipeline.emplace<RandomTailPass>();

    EnsembleOptions options;
    options.instances = 3;
    options.seed = 5;
    const EnsembleResult result =
        pipeline.runEnsemble(circuit, backend, options);

    ASSERT_EQ(result.instances.size(), 3u);
    for (const CompilationResult &instance : result.instances) {
        ASSERT_EQ(instance.metrics.size(), pipeline.size());
        EXPECT_EQ(instance.metrics[0].name, "flatten");
        EXPECT_EQ(instance.metrics[1].name, "schedule-asap");
        EXPECT_EQ(instance.metrics[2].name, "random-tail");
        // Suffix passes run per instance: each schedule ends with
        // its own random tail.
        EXPECT_EQ(instance.scheduled.instructions().back().inst.op,
                  Op::X);
    }
}

TEST(RunEnsemble, WallClockAndMetricsArePopulated)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    EnsembleOptions options;
    options.instances = 4;
    options.seed = 3;
    options.threads = 2;
    const EnsembleResult result =
        pipeline.runEnsemble(circuit, backend, options);
    EXPECT_GE(result.wallMillis, 0.0);
    for (const CompilationResult &instance : result.instances)
        EXPECT_GE(instance.totalMillis(), 0.0);
}

TEST(PassContext, ForkCopiesSnapshotStateWithFreshRng)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    Rng base_rng(1);
    PassContext base(circuit, backend, base_rng);
    base.artifacts().twirlPlan =
        std::make_shared<const TwirlPlan>(makeTwirlPlan(circuit));
    base.artifacts().twirlGates = 3;
    base.setFlat(base.layered().flatten());

    Rng fork_rng(2);
    PassContext fork(base, fork_rng);
    EXPECT_EQ(fork.stage(), CircuitStage::Flat);
    EXPECT_EQ(fork.flat().toString(), base.flat().toString());
    EXPECT_EQ(fork.artifacts().twirlPlan, base.artifacts().twirlPlan);
    EXPECT_EQ(fork.artifacts().twirlGates, 3u);
    EXPECT_EQ(&fork.rng(), &fork_rng);

    // Mutating the fork must not leak back into the snapshot.
    fork.artifacts().twirlGates = 5;
    fork.artifacts().caecStats = CaecStats{};
    EXPECT_EQ(base.artifacts().twirlGates, 3u);
    EXPECT_FALSE(base.artifacts().caecStats.has_value());

    // The prefix publishes the blueprints once: every instance of
    // one ensemble holds the same plans, not copies.
    PassManager pipeline = buildPipeline(Strategy::Combined);
    EnsembleOptions options;
    options.instances = 4;
    options.seed = 9;
    options.threads = 2;
    const EnsembleResult result =
        pipeline.runEnsemble(circuit, backend, options);
    ASSERT_EQ(result.instances.size(), 4u);
    const PassArtifacts &first = result.instances[0].artifacts;
    ASSERT_NE(first.twirlPlan, nullptr);
    ASSERT_NE(first.caecPlan, nullptr);
    for (const CompilationResult &instance : result.instances) {
        EXPECT_EQ(instance.artifacts.twirlPlan, first.twirlPlan);
        EXPECT_EQ(instance.artifacts.caecPlan, first.caecPlan);
    }
}

} // namespace
} // namespace casq
