#include <gtest/gtest.h>

#include "experiments/ramsey.hh"
#include "passes/builtin.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

namespace casq {
namespace {

Backend
testBackend()
{
    Backend backend = makeFakeLinear(4, 1);
    return backend;
}

TEST(Pipeline, StrategyNames)
{
    EXPECT_EQ(strategyName(Strategy::None), "none");
    EXPECT_EQ(strategyName(Strategy::Ec), "ca-ec");
    EXPECT_EQ(strategyName(Strategy::CaDd), "ca-dd");
    EXPECT_EQ(strategyName(Strategy::Combined), "ca-ec+dd");
}

TEST(Pipeline, StrategyNameRoundTripsForEveryValue)
{
    for (Strategy strategy : allStrategies()) {
        const auto parsed =
            strategyFromName(strategyName(strategy));
        ASSERT_TRUE(parsed.has_value())
            << strategyName(strategy);
        EXPECT_EQ(*parsed, strategy);
    }
    EXPECT_EQ(allStrategies().size(), 7u);
    EXPECT_FALSE(strategyFromName("no-such-strategy").has_value());
    EXPECT_FALSE(strategyFromName("").has_value());
}

TEST(Pipeline, EnsembleSizeRespectsTwirlFlag)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseSpectator(4, 1, 2, 2, {0});
    CompileOptions opts;
    opts.twirl = true;
    EXPECT_EQ(compileEnsemble(circuit, backend, opts, 5, 1).size(),
              5u);
    opts.twirl = false;
    EXPECT_EQ(compileEnsemble(circuit, backend, opts, 5, 1).size(),
              1u);
}

TEST(Pipeline, CaDdStrategyInsertsPulses)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    CompileOptions opts;
    opts.strategy = Strategy::CaDd;
    opts.twirl = false;
    Rng rng(1);
    const ScheduledCircuit sched =
        compileCircuit(circuit, backend, opts, rng);
    std::size_t dd = 0;
    for (const auto &t : sched.instructions())
        dd += t.inst.tag == InstTag::DD;
    EXPECT_GE(dd, 4u);
    EXPECT_EQ(sched.findOverlap(), -1);
}

TEST(Pipeline, EcStrategyInsertsCompensation)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    CompileOptions opts;
    opts.strategy = Strategy::Ec;
    opts.twirl = false;
    Rng rng(1);
    const ScheduledCircuit sched =
        compileCircuit(circuit, backend, opts, rng);
    std::size_t comp = 0;
    for (const auto &t : sched.instructions())
        comp += t.inst.tag == InstTag::Compensation;
    EXPECT_GE(comp, 2u);
}

TEST(Pipeline, StrategyPicksTheCompensationScope)
{
    // ec+aligned-dd leaves Z errors to aligned DD (ZZ only), ca-ec
    // compensates them too: same circuit, published CaecStats.
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseIdleIdle(4, 1, 2, 4, 500.0);
    auto statsFor = [&](Strategy strategy) {
        CompileOptions opts;
        opts.strategy = strategy;
        Rng rng(1);
        const CompilationResult result =
            buildPipeline(opts).compile(circuit, backend, rng);
        const auto &stats = result.artifacts.caecStats;
        EXPECT_TRUE(stats.has_value()) << strategyName(strategy);
        return stats.value_or(CaecStats{});
    };
    const CaecStats zz_only = statsFor(Strategy::EcAlignedDd);
    const CaecStats all = statsFor(Strategy::Ec);
    EXPECT_EQ(zz_only.insertedRz, 0);
    EXPECT_GT(all.insertedRz, 0);
    EXPECT_GT(zz_only.insertedRzz + zz_only.absorbedIntoGates, 0);
}

TEST(Pipeline, NoneStrategyLeavesCircuitBare)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseSpectator(4, 1, 2, 3, {0});
    CompileOptions opts;
    opts.strategy = Strategy::None;
    opts.twirl = false;
    Rng rng(1);
    const ScheduledCircuit sched =
        compileCircuit(circuit, backend, opts, rng);
    for (const auto &t : sched.instructions()) {
        EXPECT_EQ(t.inst.tag, InstTag::None);
    }
}

TEST(Pipeline, CombinedStrategyHasBothTags)
{
    const Backend backend = testBackend();
    // Control-control context: EC must add compensation; idle
    // spectators give CA-DD pulses.
    LayeredCircuit circuit = buildCaseControlControl(4, 1, 0, 2, 3,
                                                     3);
    CompileOptions opts;
    opts.strategy = Strategy::Combined;
    opts.twirl = false;
    Rng rng(1);
    const ScheduledCircuit sched =
        compileCircuit(circuit, backend, opts, rng);
    bool has_comp = false;
    for (const auto &t : sched.instructions())
        has_comp |= t.inst.tag == InstTag::Compensation;
    EXPECT_TRUE(has_comp);
    EXPECT_EQ(sched.findOverlap(), -1);
}

TEST(Pipeline, TwirledInstancesShareLogicalAction)
{
    // All twirled instances of a Clifford circuit agree on ideal
    // expectation values (checked through the engine).
    const Backend backend = testBackend();
    const LayeredCircuit circuit =
        buildCaseSpectator(4, 1, 2, 2, {0});
    CompileOptions opts;
    opts.strategy = Strategy::None;
    opts.twirl = true;
    const auto ensemble =
        compileEnsemble(circuit, backend, opts, 6, 3);
    SimulationEngine engine(backend, NoiseModel::ideal());
    ExecutionOptions eopts;
    eopts.trajectories = 1;
    const PauliString obs =
        PauliString::single(4, 0, PauliOp::X);
    double first = 0.0;
    for (std::size_t k = 0; k < ensemble.size(); ++k) {
        const double value =
            engine.run(ensemble[k], {obs}, eopts).means[0];
        if (k == 0)
            first = value;
        else
            EXPECT_NEAR(value, first, 1e-9);
    }
}

TEST(Pipeline, LowerToNativeProducesNativeOps)
{
    const Backend backend = testBackend();
    LayeredCircuit circuit(4, 0);
    Layer layer{LayerKind::TwoQubit, {}};
    layer.insts.emplace_back(Op::Can,
                             std::vector<std::uint32_t>{1, 2},
                             std::vector<double>{0.3, 0.2, 0.1});
    circuit.addLayer(std::move(layer));
    CompileOptions opts;
    opts.twirl = false;
    opts.lowerToNative = true;
    Rng rng(1);
    const ScheduledCircuit sched =
        compileCircuit(circuit, backend, opts, rng);
    for (const auto &t : sched.instructions())
        EXPECT_NE(t.inst.op, Op::Can);
}

} // namespace
} // namespace casq
