/**
 * @file
 * Late twirling on the cached prefix (TwirlPlanPass +
 * LateTwirlPass): prefix-cache engagement for every stock strategy,
 * independent instances, the blueprint, the frame count, and partial
 * barriers.  The schedules themselves are pinned bit for bit by
 * tests/golden/twirl_reference_schedules.txt (test_dd_golden.cc).
 */

#include <gtest/gtest.h>

#include "passes/builtin.hh"
#include "passes/pipeline.hh"
#include "workloads.hh"

namespace casq {
namespace {

Backend
testBackend()
{
    return makeFakeLinear(5, 7);
}

EnsembleResult
runStrategy(const CompileOptions &options,
            const LayeredCircuit &circuit, const Backend &backend,
            int instances, std::uint64_t seed, unsigned threads)
{
    PassManager pipeline = buildPipeline(options);
    EnsembleOptions ensemble;
    ensemble.instances = instances;
    ensemble.seed = seed;
    ensemble.threads = threads;
    return pipeline.runEnsemble(circuit, backend, ensemble);
}

TEST(LateTwirl, EveryStockStrategyEngagesThePrefixCache)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = twirlWorkload();
    const int instances = 5;

    for (Strategy strategy : allStrategies()) {
        CompileOptions options;
        options.strategy = strategy;
        PassManager pipeline = buildPipeline(options);

        // Every strategy shares the full lowering front end; the
        // CA-EC strategies additionally capture their scheduled
        // walk's blueprint in the prefix.
        const bool caec = strategy == Strategy::Ec ||
                          strategy == Strategy::EcAlignedDd ||
                          strategy == Strategy::Combined;
        EXPECT_EQ(pipeline.stochasticPrefixLength(), caec ? 3u : 2u)
            << strategyName(strategy);

        for (unsigned threads : {1u, 8u}) {
            EnsembleOptions ensemble;
            ensemble.instances = instances;
            ensemble.seed = 11;
            ensemble.threads = threads;
            const EnsembleResult result =
                pipeline.runEnsemble(circuit, backend, ensemble);
            EXPECT_GT(result.prefixLength, 0u)
                << strategyName(strategy);
            EXPECT_EQ(result.prefixHits, std::size_t(instances))
                << strategyName(strategy) << " threads "
                << threads;
        }
    }
}

TEST(LateTwirl, InstancesStayIndependentlyTwirled)
{
    // The shared prefix must not correlate the ensemble: late
    // twirled instances still differ from each other.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = twirlWorkload();
    const EnsembleResult result = runStrategy(
        CompileOptions{}, circuit, backend, 6, 13, 1);
    bool any_difference = false;
    for (std::size_t k = 1; k < result.instances.size(); ++k)
        any_difference |=
            result.instances[k].scheduled.toString() !=
            result.instances[0].scheduled.toString();
    EXPECT_TRUE(any_difference);
}

TEST(LateTwirl, PlanCapturesTwoQubitGatesInSamplingOrder)
{
    const LayeredCircuit circuit = twirlWorkload();
    const TwirlPlan plan = makeTwirlPlan(circuit);
    ASSERT_EQ(plan.targets.size(), 3u);
    EXPECT_EQ(plan.layerCount, circuit.layers().size());
    EXPECT_EQ(plan.gateCount(), circuit.countTwoQubitGates());
    EXPECT_EQ(plan.targets[0].layer, 0u);
    ASSERT_EQ(plan.targets[1].gates.size(), 2u);
    EXPECT_EQ(plan.targets[1].gates[0].op, Op::RZZ);
    EXPECT_EQ(plan.targets[1].gates[1].op, Op::Can);
    EXPECT_EQ(plan.targets[2].layer, 6u);
}

TEST(LateTwirl, PartialBarrierInsideALayerIsTwirled)
{
    // Only all-qubit barriers separate layers, so a partial barrier
    // inside a layer leaves the segment recovery intact and the
    // layer next to it is twirled like any other.
    const Backend backend = testBackend();
    LayeredCircuit circuit(5, 0);
    Layer gates{LayerKind::TwoQubit, {}};
    gates.insts.emplace_back(Op::ECR,
                             std::vector<std::uint32_t>{0, 1});
    gates.insts.emplace_back(Op::Barrier,
                             std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(gates));
    Layer odd{LayerKind::OneQubit, {}};
    odd.insts.emplace_back(Op::Barrier,
                           std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(odd));

    for (Strategy strategy : allStrategies()) {
        PassManager pipeline = buildPipeline(strategy);
        EnsembleOptions ensemble;
        ensemble.instances = 8;
        ensemble.seed = 1;
        const EnsembleResult result =
            pipeline.runEnsemble(circuit, backend, ensemble);
        std::size_t frames = 0;
        for (const CompilationResult &instance : result.instances) {
            std::size_t ecr = 0;
            for (const TimedInstruction &timed :
                 instance.scheduled.instructions()) {
                ecr += timed.inst.op == Op::ECR;
                frames += timed.inst.tag == InstTag::Twirl;
            }
            EXPECT_EQ(ecr, 1u) << strategyName(strategy);
        }
        EXPECT_GT(frames, 0u) << strategyName(strategy);
    }
}

TEST(LateTwirl, LateTwirlPassCountsPreLoweringFrames)
{
    // The published twirlGates counts the frame gates before native
    // lowering: the same number with and without --native, and
    // exactly the Twirl-tagged gates when nothing is lowered.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = twirlWorkload();

    std::vector<std::size_t> counts;
    for (bool native : {false, true}) {
        CompileOptions options;
        options.lowerToNative = native;
        Rng rng(5);
        PassManager pipeline = buildPipeline(options);
        const CompilationResult result =
            pipeline.compile(circuit, backend, rng);
        const auto &gates = result.artifacts.twirlGates;
        ASSERT_TRUE(gates.has_value());
        counts.push_back(*gates);
        if (!native) {
            std::size_t tagged = 0;
            for (const TimedInstruction &timed :
                 result.scheduled.instructions())
                tagged += timed.inst.tag == InstTag::Twirl;
            EXPECT_EQ(*gates, tagged);
        }
    }
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_GT(counts[0], 0u);
}

} // namespace
} // namespace casq
