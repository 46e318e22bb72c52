#include <gtest/gtest.h>

#include "experiments/ramsey.hh"
#include "passes/builtin.hh"
#include "passes/pass_manager.hh"
#include "passes/pipeline.hh"
#include "workloads.hh"

namespace casq {
namespace {

Backend
testBackend()
{
    return makeFakeLinear(4, 1);
}

/** Pass that appends its label to a string property. */
class TracePass : public Pass
{
  public:
    explicit TracePass(std::string label)
        : _label(std::move(label))
    {
    }

    std::string name() const override { return "trace-" + _label; }

    void
    run(PassContext &context) override
    {
        std::string trace;
        if (const auto *prev =
                context.property<std::string>("trace"))
            trace = *prev;
        trace += _label;
        context.setProperty("trace", trace);
    }

  private:
    std::string _label;
};

TEST(PassManager, RespectsRegistrationOrder)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 2, 300.0);
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    PassManager manager;
    manager.emplace<TracePass>("a");
    manager.emplace<TracePass>("b");
    manager.emplace<TracePass>("c");
    EXPECT_EQ(manager.size(), 3u);

    const auto metrics = manager.run(context);
    EXPECT_EQ(context.requireProperty<std::string>("trace"), "abc");

    ASSERT_EQ(metrics.size(), 3u);
    EXPECT_EQ(metrics[0].name, "trace-a");
    EXPECT_EQ(metrics[1].name, "trace-b");
    EXPECT_EQ(metrics[2].name, "trace-c");
}

TEST(PassManager, PropertyMapSurvivesAcrossStages)
{
    // Properties set at the layered stage must still be readable
    // after flatten + schedule lowered the circuit twice.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 2, 300.0);
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    PassManager manager;
    manager.emplace<TracePass>("early");
    manager.emplace<FlattenPass>();
    manager.emplace<SchedulePass>();
    manager.run(context);

    EXPECT_EQ(context.stage(), CircuitStage::Scheduled);
    EXPECT_EQ(context.requireProperty<std::string>("trace"),
              "early");
}

TEST(PassManager, EmptyPipelineIsIdentity)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseSpectator(4, 1, 2, 3, {0});
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    PassManager manager;
    EXPECT_TRUE(manager.empty());
    const auto metrics = manager.run(context);

    EXPECT_TRUE(metrics.empty());
    EXPECT_EQ(context.stage(), CircuitStage::Layered);
    EXPECT_EQ(context.layered().flatten().toString(),
              circuit.flatten().toString());
    EXPECT_TRUE(context.properties().empty());
    EXPECT_TRUE(context.notes().empty());
}

TEST(PassManager, PassNamesAndContains)
{
    PassManager manager = buildPipeline(Strategy::CaDd);
    const auto names = manager.passNames();
    // Stock twirled pipelines are prefix-friendly: the stochastic
    // late-twirl pass comes after the deterministic lowering.
    const std::vector<std::string> expected{
        "twirl-plan", "flatten", "late-twirl", "schedule-asap",
        "ca-dd"};
    EXPECT_EQ(names, expected);
    EXPECT_EQ(manager.stochasticPrefixLength(), 2u);
    EXPECT_TRUE(manager.contains("ca-dd"));
    EXPECT_FALSE(manager.contains("ca-ec"));
    EXPECT_TRUE(manager.stochastic());

    PassManager caec = buildPipeline(Strategy::Combined);
    // CA-EC runs on the flat stream after late-twirl, fed by the
    // deterministic ca-ec-plan blueprint, so the whole lowering
    // front end sits in the prefix.
    const std::vector<std::string> combined{
        "twirl-plan", "ca-ec-plan", "flatten", "late-twirl",
        "ca-ec", "schedule-asap", "ca-dd"};
    EXPECT_EQ(caec.passNames(), combined);
    EXPECT_EQ(caec.stochasticPrefixLength(), 3u);

    PassManager bare = buildPipeline([] {
        CompileOptions options;
        options.twirl = false;
        return options;
    }());
    EXPECT_FALSE(bare.stochastic());
}

TEST(PassManager, CompileCollectsMetricsAndProperties)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    CompileOptions options;
    options.strategy = Strategy::CaDd;
    options.twirl = false;
    Rng rng(1);

    PassManager manager = buildPipeline(options);
    const CompilationResult result =
        manager.compile(circuit, backend, rng);

    ASSERT_EQ(result.metrics.size(), manager.size());
    EXPECT_EQ(result.metrics.front().name, "flatten");
    EXPECT_EQ(result.metrics.back().name, "ca-dd");
    EXPECT_GE(result.totalMillis(), 0.0);

    const auto *pulses =
        result.property<std::size_t>(kDdPulsesKey);
    ASSERT_NE(pulses, nullptr);
    EXPECT_GE(*pulses, 4u);
}

TEST(PassManager, IdleAnalysisPublishesWindows)
{
    // The analysis pass is not part of the stock pipelines (the DD
    // pass scans windows itself); grafting it in publishes the
    // windows through the property map.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    Rng rng(1);

    PassManager manager;
    manager.emplace<FlattenPass>();
    manager.emplace<SchedulePass>();
    manager.emplace<IdleAnalysisPass>();
    manager.emplace<CaDdPass>();
    const CompilationResult result =
        manager.compile(circuit, backend, rng);

    const auto *windows =
        result.property<std::vector<IdleWindow>>(kIdleWindowsKey);
    ASSERT_NE(windows, nullptr);
    EXPECT_FALSE(windows->empty());
}

/** Stochastic pass that is not the built-in twirl. */
class CoinFlipPass : public Pass
{
  public:
    std::string name() const override { return "coin-flip"; }
    bool isStochastic() const override { return true; }

    void
    run(PassContext &context) override
    {
        context.setProperty("coin",
                            context.rng().randomSign());
    }
};

TEST(PassManager, CustomStochasticPassGetsFullEnsemble)
{
    // Ensemble sizing keys off Pass::isStochastic(), not the
    // built-in twirl pass name.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 2, 300.0);

    PassManager pipeline;
    pipeline.emplace<CoinFlipPass>();
    pipeline.emplace<FlattenPass>();
    pipeline.emplace<SchedulePass>();
    EXPECT_TRUE(pipeline.stochastic());
    EXPECT_EQ(
        compileEnsemble(circuit, backend, pipeline, 5, 1).size(),
        5u);

    PassManager deterministic;
    deterministic.emplace<FlattenPass>();
    deterministic.emplace<SchedulePass>();
    EXPECT_FALSE(deterministic.stochastic());
    EXPECT_EQ(compileEnsemble(circuit, backend, deterministic, 5, 1)
                  .size(),
              1u);
}

TEST(PassManager, TwirlPassPublishesGateCount)
{
    // The stock pipeline's late-twirl pass publishes the number of
    // frame gates it inserted, counted before native lowering.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseSpectator(4, 1, 2, 2, {0});
    Rng rng(3);
    PassManager manager = buildPipeline(Strategy::None);
    ASSERT_TRUE(manager.contains("late-twirl"));
    const CompilationResult result =
        manager.compile(circuit, backend, rng);

    const auto *gates = result.property<std::size_t>(kTwirlGatesKey);
    ASSERT_NE(gates, nullptr);
    std::size_t tagged = 0;
    for (const TimedInstruction &timed :
         result.scheduled.instructions())
        tagged += timed.inst.tag == InstTag::Twirl;
    EXPECT_EQ(*gates, tagged);
    EXPECT_GT(*gates, 0u);
}

TEST(PassManager, CaEcPassPublishesStats)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    CompileOptions options;
    options.strategy = Strategy::Ec;
    options.twirl = false;
    Rng rng(1);
    PassManager manager = buildPipeline(options);
    ASSERT_TRUE(manager.contains("ca-ec"));
    const CompilationResult result =
        manager.compile(circuit, backend, rng);
    const auto *stats = result.property<CaecStats>(kCaecStatsKey);
    ASSERT_NE(stats, nullptr);
    EXPECT_GE(stats->insertedRz, 1);
}

TEST(PassManager, EnsembleOverloadsAgree)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = equivalenceWorkload();
    CompileOptions options;
    options.strategy = Strategy::CaDd;

    const auto via_options =
        compileEnsemble(circuit, backend, options, 3, 11);
    PassManager pipeline = buildPipeline(options);
    const auto via_manager =
        compileEnsemble(circuit, backend, pipeline, 3, 11);

    ASSERT_EQ(via_options.size(), via_manager.size());
    for (std::size_t k = 0; k < via_options.size(); ++k)
        EXPECT_EQ(via_options[k].toString(),
                  via_manager[k].toString());
}

TEST(PassContext, StageAccessorsAreChecked)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 1, 300.0);
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    EXPECT_EQ(context.stage(), CircuitStage::Layered);
    EXPECT_DEATH(context.flat(), "cannot access");
    context.setFlat(context.layered().flatten());
    EXPECT_EQ(context.stage(), CircuitStage::Flat);
    EXPECT_DEATH(context.layered(), "cannot access");
    context.setScheduled(
        scheduleASAP(context.flat(), backend.durations()));
    EXPECT_EQ(context.stage(), CircuitStage::Scheduled);
    EXPECT_DEATH(context.flat(), "cannot access");
}

TEST(PassContext, LazyCopyOnlyOnMutation)
{
    // Reading through the context must not copy; the borrowed
    // source address is returned until a pass mutates.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 1, 300.0);
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    EXPECT_EQ(&context.layered(), &circuit);
    LayeredCircuit &owned = context.mutableLayered();
    EXPECT_NE(&owned, &circuit);
    EXPECT_EQ(&context.layered(), &owned);
}

} // namespace
} // namespace casq
