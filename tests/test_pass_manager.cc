#include <atomic>

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

/** Pass that appends its label to a trace the test owns. */
class TracePass : public Pass
{
  public:
    TracePass(std::string label, std::string &trace)
        : _label(std::move(label)), _trace(trace)
    {
    }

    std::string name() const override { return "trace-" + _label; }

    void run(PassContext &) override { _trace += _label; }

  private:
    std::string _label;
    std::string &_trace;
};

TEST(PassManager, RespectsRegistrationOrder)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 2, 300.0);
    Rng rng(1);
    PassContext context(circuit, backend, rng);

    std::string trace;
    PassManager manager;
    manager.emplace<TracePass>("a", trace);
    manager.emplace<TracePass>("b", trace);
    manager.emplace<TracePass>("c", trace);
    EXPECT_EQ(manager.size(), 3u);

    const auto metrics = manager.run(context);
    EXPECT_EQ(trace, "abc");

    ASSERT_EQ(metrics.size(), 3u);
    EXPECT_EQ(metrics[0].name, "trace-a");
    EXPECT_EQ(metrics[1].name, "trace-b");
    EXPECT_EQ(metrics[2].name, "trace-c");
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

    const auto &pulses = result.artifacts.ddPulses;
    ASSERT_TRUE(pulses.has_value());
    EXPECT_GE(*pulses, 4u);
}

TEST(PassManager, IdleAnalysisPublishesWindows)
{
    // The analysis pass is not part of the stock pipelines (the DD
    // pass scans windows itself); grafting it in publishes the
    // windows as an artifact.
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

    const auto &windows = result.artifacts.idleWindows;
    ASSERT_TRUE(windows.has_value());
    EXPECT_FALSE(windows->empty());
}

/**
 * Stochastic pass that is not the built-in twirl: heads appends an
 * X layer on qubit 0, so the flip shows in the emitted circuit.
 */
class CoinFlipPass : public Pass
{
  public:
    std::string name() const override { return "coin-flip"; }
    bool isStochastic() const override { return true; }

    void
    run(PassContext &context) override
    {
        if (context.rng().randomSign() < 0)
            return;
        Layer flip{LayerKind::OneQubit, {}};
        flip.insts.emplace_back(Op::X, std::vector<std::uint32_t>{0});
        context.mutableLayered().addLayer(std::move(flip));
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

    const auto &gates = result.artifacts.twirlGates;
    ASSERT_TRUE(gates.has_value());
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
    const auto &stats = result.artifacts.caecStats;
    ASSERT_TRUE(stats.has_value());
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

TEST(PassManager, MissingBlueprintPanics)
{
    // late-twirl and ca-ec read the blueprints their plan passes
    // publish; running either without it is a pass-ordering bug.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 1, 300.0);
    auto tables = std::make_shared<ConjugationTable>();
    Rng rng(1);

    PassManager twirl;
    twirl.emplace<FlattenPass>();
    twirl.emplace<LateTwirlPass>(tables);
    twirl.emplace<SchedulePass>();
    EXPECT_DEATH(twirl.compile(circuit, backend, rng),
                 "'twirl.plan' missing");

    PassManager caec;
    caec.emplace<FlattenPass>();
    caec.emplace<CaEcFlatPass>(CaecOptions{}, CaecScope::All, nullptr,
                               tables);
    caec.emplace<SchedulePass>();
    EXPECT_DEATH(caec.compile(circuit, backend, rng),
                 "'caec.plan' missing");
}

// docs/passes.md's worked example, copied verbatim so the docs
// cannot silently stop compiling.
class MeasurePadPass : public Pass
{
  public:
    explicit MeasurePadPass(double pad_ns) : _padNs(pad_ns) {}

    std::string name() const override { return "measure-pad"; }

    /** Delays added, summed over every run of this pass. */
    std::size_t added() const { return _added.load(); }

    void
    run(PassContext &context) override
    {
        // Operates on the layered stage, before flattening.
        LayeredCircuit &circuit = context.mutableLayered();
        std::size_t added = 0;
        for (Layer &layer : circuit.layers()) {
            if (layer.kind != LayerKind::Dynamic)
                continue;
            for (std::uint32_t q = 0; q < circuit.numQubits(); ++q) {
                if (layer.actsOn(q))
                    continue;
                layer.insts.emplace_back(
                    Op::Delay, std::vector<std::uint32_t>{q},
                    std::vector<double>{_padNs});
                ++added;
            }
        }
        _added += added;
    }

  private:
    double _padNs;
    std::atomic<std::size_t> _added{0};
};

/** Scheduled delays of exactly the pad length. */
std::size_t
countPads(const ScheduledCircuit &schedule, double pad_ns)
{
    std::size_t pads = 0;
    for (const TimedInstruction &timed : schedule.instructions())
        pads += timed.inst.op == Op::Delay &&
                timed.inst.params.at(0) == pad_ns;
    return pads;
}

TEST(PassManager, DocsMeasurePadExamplePadsEveryInstance)
{
    // twirlWorkload's measure and feedforward layers each act on
    // one of five qubits: 2 x 4 spectators get a pad.
    const Backend backend = makeFakeLinear(5, 7);
    const LayeredCircuit logical = twirlWorkload();
    Rng rng(3);

    // The docs' pipeline, verbatim.
    auto tables = std::make_shared<ConjugationTable>();
    auto pad = std::make_unique<MeasurePadPass>(160.0);
    const MeasurePadPass &pads = *pad;
    PassManager manager;
    manager.add(std::move(pad));              // <-- the new pass
    manager.emplace<TwirlPlanPass>(tables);
    manager.emplace<FlattenPass>();
    manager.emplace<LateTwirlPass>(tables);
    manager.emplace<SchedulePass>();
    manager.emplace<CaDdPass>();

    CompilationResult result = manager.compile(logical, backend, rng);
    const std::size_t delays = pads.added();
    EXPECT_EQ(delays, 8u);
    EXPECT_EQ(countPads(result.scheduled, 160.0), delays);
    EXPECT_TRUE(result.artifacts.ddPulses.has_value());

    // The pad sits in the deterministic prefix: one run per
    // ensemble, and every instance carries the padded delays.
    std::vector<std::string> reference;
    for (unsigned threads : {1u, 4u}) {
        EnsembleOptions options;
        options.instances = 4;
        options.seed = 11;
        options.threads = threads;
        const EnsembleResult ensemble =
            manager.runEnsemble(logical, backend, options);
        EXPECT_EQ(ensemble.prefixLength, 3u);
        ASSERT_EQ(ensemble.instances.size(), 4u);
        std::vector<std::string> prints;
        for (const CompilationResult &instance : ensemble.instances) {
            EXPECT_EQ(countPads(instance.scheduled, 160.0), delays)
                << "threads=" << threads;
            prints.push_back(instance.scheduled.toString());
        }
        if (reference.empty())
            reference = prints;
        EXPECT_EQ(prints, reference) << "threads=" << threads;
    }
    EXPECT_EQ(pads.added(), 3 * delays);
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
