#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "experiments/ramsey.hh"
#include "passes/builtin.hh"
#include "passes/ca_ec.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "sim/shard.hh"
#include "workloads.hh"

namespace casq {
namespace {

Backend
coherentBackend(std::size_t n, double zz = 0.08)
{
    Backend backend("coh", makeLinear(n));
    for (std::uint32_t q = 0; q < n; ++q) {
        QubitProperties &p = backend.qubit(q);
        p.t1Ns = 1e15;
        p.t2Ns = 1e15;
        p.readoutError = 0.0;
        p.quasiStaticSigmaMHz = 0.0;
        p.gateError1q = 0.0;
    }
    for (const auto &edge : backend.coupling().edges()) {
        PairProperties &p = backend.pair(edge.a, edge.b);
        p.zzRateMHz = zz;
        p.starkShiftMHz = 0.0;
        p.gateError2q = 0.0;
    }
    return backend;
}

double
ramseyFidelity(const Circuit &flat, const Backend &backend,
               const std::vector<std::uint32_t> &probes)
{
    SimulationEngine engine(backend, NoiseModel::coherentOnly());
    const ScheduledCircuit sched =
        scheduleASAP(flat, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 4;
    const auto obs =
        plusStateObservables(backend.numQubits(), probes);
    const RunResult result = engine.run(sched, obs, opts);
    return plusStateFidelity(result.means);
}

/** Algorithm 2 over an untwirled circuit's flat stream. */
Circuit
compensate(const LayeredCircuit &circuit, const Backend &backend,
           CaecStats *stats = nullptr,
           CaecScope scope = CaecScope::All,
           const CaecOptions &options = {})
{
    ConjugationTable tables;
    return applyCaEcFlat(circuit.flatten(), makeCaecPlan(circuit),
                         nullptr, backend, tables, options, scope,
                         nullptr, stats);
}

TEST(CaEc, CompensatesIdleIdleZz)
{
    const Backend backend = coherentBackend(2);
    const LayeredCircuit base =
        buildCaseIdleIdle(2, 0, 1, 6, 500.0);
    const double bare = ramseyFidelity(base.flatten(), backend, {0, 1});
    EXPECT_LT(bare, 0.9); // errors are significant

    CaecStats stats;
    const Circuit fixed = compensate(base, backend, &stats);
    const double comp = ramseyFidelity(fixed, backend, {0, 1});
    EXPECT_GT(comp, 0.999);
    EXPECT_GT(stats.insertedRz, 0);
    EXPECT_GT(stats.insertedRzz, 0);
}

TEST(CaEc, CompensatesSpectatorZ)
{
    const Backend backend = coherentBackend(4);
    const LayeredCircuit base =
        buildCaseSpectator(4, 1, 2, 8, {0, 3});
    const double bare = ramseyFidelity(base.flatten(), backend, {0, 3});
    EXPECT_LT(bare, 0.9);

    const Circuit fixed = compensate(base, backend);
    const double comp = ramseyFidelity(fixed, backend, {0, 3});
    EXPECT_GT(comp, 0.999);
}

TEST(CaEc, CompensatesControlControlZz)
{
    const Backend backend = coherentBackend(4);
    const LayeredCircuit base =
        buildCaseControlControl(4, 1, 0, 2, 3, 4);
    const double bare = ramseyFidelity(base.flatten(), backend, {1, 2});
    EXPECT_LT(bare, 0.95);

    CaecStats stats;
    const Circuit fixed = compensate(base, backend, &stats);
    const double comp = ramseyFidelity(fixed, backend, {1, 2});
    EXPECT_GT(comp, 0.99);
}

TEST(CaEc, AbsorbsIntoCanGates)
{
    // A can gate following an idle period absorbs the ZZ
    // compensation for free: gamma is modified, nothing inserted.
    const Backend backend = coherentBackend(2);
    LayeredCircuit circuit(2, 0);
    Layer prep{LayerKind::OneQubit, {}};
    prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{0});
    prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{1});
    circuit.addLayer(std::move(prep));
    Layer idle{LayerKind::OneQubit, {}};
    idle.insts.emplace_back(Op::Delay,
                            std::vector<std::uint32_t>{0},
                            std::vector<double>{800.0});
    idle.insts.emplace_back(Op::Delay,
                            std::vector<std::uint32_t>{1},
                            std::vector<double>{800.0});
    circuit.addLayer(std::move(idle));
    Layer gate{LayerKind::TwoQubit, {}};
    gate.insts.emplace_back(Op::Can,
                            std::vector<std::uint32_t>{0, 1},
                            std::vector<double>{0.3, 0.2, 0.4});
    circuit.addLayer(std::move(gate));

    CaecStats stats;
    const Circuit fixed = compensate(circuit, backend, &stats);
    EXPECT_GE(stats.absorbedIntoGates, 1);
    // Find the can gate: gamma must have moved from 0.4.
    bool found = false;
    for (const auto &inst : fixed.instructions())
        if (inst.op == Op::Can) {
            EXPECT_NE(inst.params[2], 0.4);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(CaEc, AbsorbsIntoRzzGates)
{
    const Backend backend = coherentBackend(2);
    LayeredCircuit circuit(2, 0);
    Layer idle{LayerKind::OneQubit, {}};
    idle.insts.emplace_back(Op::Delay,
                            std::vector<std::uint32_t>{0},
                            std::vector<double>{800.0});
    idle.insts.emplace_back(Op::Delay,
                            std::vector<std::uint32_t>{1},
                            std::vector<double>{800.0});
    circuit.addLayer(std::move(idle));
    Layer gate{LayerKind::TwoQubit, {}};
    gate.insts.emplace_back(Op::RZZ,
                            std::vector<std::uint32_t>{0, 1},
                            std::vector<double>{0.9});
    circuit.addLayer(std::move(gate));

    CaecStats stats;
    const Circuit fixed = compensate(circuit, backend, &stats);
    EXPECT_GE(stats.absorbedIntoGates, 1);
    for (const auto &inst : fixed.instructions()) {
        if (inst.op == Op::RZZ && inst.tag != InstTag::Compensation) {
            EXPECT_LT(inst.params[0], 0.9);
        }
    }
}

TEST(CaEc, SignFlipsThroughTwirlPaulis)
{
    // Twirled instances must be compensated just as well as bare
    // ones: the pass commutes compensation through the Pauli
    // layers (Algorithm 2 lines 22-27).
    const Backend backend = coherentBackend(2);
    const LayeredCircuit base =
        buildCaseIdleIdle(2, 0, 1, 6, 500.0);
    Rng rng(11);
    // Build a fake twirl situation: insert X gates around the
    // idle layers manually.
    LayeredCircuit twirled(2, 0);
    for (std::size_t li = 0; li < base.layers().size(); ++li) {
        twirled.addLayer(base.layers()[li]);
        if (li == 3) {
            Layer paulis{LayerKind::OneQubit, {}};
            Instruction x0(Op::X, {0});
            x0.tag = InstTag::Twirl;
            paulis.insts.push_back(std::move(x0));
            twirled.addLayer(std::move(paulis));
            Layer undo{LayerKind::OneQubit, {}};
            Instruction x1(Op::X, {0});
            x1.tag = InstTag::Twirl;
            undo.insts.push_back(std::move(x1));
            twirled.addLayer(std::move(undo));
        }
    }
    const Circuit fixed = compensate(twirled, backend);
    const double comp = ramseyFidelity(fixed, backend, {0, 1});
    EXPECT_GT(comp, 0.995);
}

TEST(CaEc, MinAngleSkipsTinyCompensations)
{
    const Backend backend = coherentBackend(2, 1e-7);
    const LayeredCircuit base =
        buildCaseIdleIdle(2, 0, 1, 2, 500.0);
    CaecOptions opts;
    opts.minAngle = 1e-3;
    CaecStats stats;
    compensate(base, backend, &stats, CaecScope::All, opts);
    EXPECT_EQ(stats.insertedRz, 0);
    EXPECT_EQ(stats.insertedRzz, 0);
}

TEST(CaEc, ActiveOnlyOptionsSkipIdlePairs)
{
    const Backend backend = coherentBackend(2);
    const LayeredCircuit base =
        buildCaseIdleIdle(2, 0, 1, 6, 500.0);
    CaecStats stats;
    compensate(base, backend, &stats, CaecScope::ActiveOnly);
    EXPECT_EQ(stats.insertedRzz, 0);
}

TEST(CaEc, ZzOnlyScopeInsertsRzzButNoRz)
{
    // Aligned DD removes the Z errors, so ZzOnly compensates the
    // case-I pair's ZZ and leaves its Z errors alone.
    const Backend backend = coherentBackend(2);
    const LayeredCircuit base =
        buildCaseIdleIdle(2, 0, 1, 6, 500.0);
    CaecStats stats;
    const Circuit fixed =
        compensate(base, backend, &stats, CaecScope::ZzOnly);
    EXPECT_GT(stats.insertedRzz, 0);
    EXPECT_EQ(stats.insertedRz, 0);
    for (const Instruction &inst : fixed.instructions())
        EXPECT_FALSE(inst.op == Op::RZ &&
                     inst.tag == InstTag::Compensation);
}

TEST(CaEc, StarkCompensationOnlyInAllScope)
{
    // A driven qubit Stark-shifts its undriven neighbour (Fig. 4a).
    // With no ZZ, that Z error is the only context: All compensates
    // it; ZzOnly leaves Z errors to aligned DD and ActiveOnly leaves
    // spectators to CA-DD.
    Backend backend = coherentBackend(2, 0.0);
    backend.pair(0, 1).starkShiftMHz = 0.5;
    LayeredCircuit circuit(2, 0);
    for (int k = 0; k < 6; ++k) {
        Layer drive{LayerKind::OneQubit, {}};
        drive.insts.emplace_back(Op::X,
                                 std::vector<std::uint32_t>{0});
        circuit.addLayer(std::move(drive));
    }

    CaecStats all;
    compensate(circuit, backend, &all, CaecScope::All);
    EXPECT_GT(all.insertedRz, 0);

    for (CaecScope scope : {CaecScope::ZzOnly, CaecScope::ActiveOnly}) {
        CaecStats stats;
        compensate(circuit, backend, &stats, scope);
        EXPECT_EQ(stats.insertedRz, 0);
        EXPECT_EQ(stats.insertedRzz, 0);
    }
}

TEST(CaEc, StatsCountConditionalRules)
{
    Backend backend = coherentBackend(3);
    LayeredCircuit circuit(3, 1);
    Layer prep{LayerKind::OneQubit, {}};
    prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{0});
    circuit.addLayer(std::move(prep));
    Layer dyn{LayerKind::Dynamic, {}};
    Instruction meas(Op::Measure, {1});
    meas.cbit = 0;
    dyn.insts.push_back(std::move(meas));
    circuit.addLayer(std::move(dyn));

    CaecStats stats;
    compensate(circuit, backend, &stats);
    // Pairs (0,1) and (1,2) accumulate during the measurement and
    // convert into conditional rules.
    EXPECT_GE(stats.conditionalRz, 1);
}

// ------------------- the CA-EC pipeline end to end ---------------
//
// ca-ec-plan -> flatten -> (transpile) -> late-twirl -> ca-ec on the
// flat stream.  Its schedules for this workload are pinned bit for
// bit by tests/golden/twirl_reference_schedules.txt (the caec-walk
// lines); these tests check what the fingerprints cannot name.

EnsembleResult
runCaecStrategy(const CompileOptions &options,
                const LayeredCircuit &circuit,
                const Backend &backend, int instances,
                std::uint64_t seed, unsigned threads)
{
    PassManager pipeline = buildPipeline(options);
    EnsembleOptions ensemble;
    ensemble.instances = instances;
    ensemble.seed = seed;
    ensemble.threads = threads;
    return pipeline.runEnsemble(circuit, backend, ensemble);
}

TEST(CaEcScheduled, DynamicRuleEmitsConditionalRz)
{
    // Fig. 9b: pairs accumulating across a measurement discharge as
    // outcome-conditioned rz rules, which must actually be present
    // in every compiled instance's schedule.
    const Backend backend = makeFakeLinear(5, 7);
    const LayeredCircuit circuit = caecWalkWorkload();

    CompileOptions options;
    options.strategy = Strategy::Ec;
    const EnsembleResult result =
        runCaecStrategy(options, circuit, backend, 4, 7, 1);

    ASSERT_EQ(result.instances.size(), 4u);
    for (std::size_t k = 0; k < result.instances.size(); ++k) {
        bool any_conditional = false;
        for (const TimedInstruction &timed :
             result.instances[k].scheduled.instructions())
            any_conditional |=
                timed.inst.op == Op::RZ &&
                timed.inst.condBit >= 0 &&
                timed.inst.tag == InstTag::Compensation;
        EXPECT_TRUE(any_conditional) << "instance " << k;
        const auto &stats = result.instances[k].artifacts.caecStats;
        ASSERT_TRUE(stats.has_value());
        EXPECT_GE(stats->conditionalRz, 1);
    }
}

TEST(CaEcScheduled, ShardedMergesByteIdentical)
{
    // End to end through the sharded executor: the scheduled CA-EC
    // pipeline's prefix snapshot must not perturb the shard
    // determinism contract -- S shards merge bit-identically to the
    // single-process run.
    ShardSpec spec;
    spec.logical = caecWalkWorkload();
    for (std::uint32_t q = 0; q < 5; ++q)
        spec.observables.push_back(
            PauliString::single(5, q, PauliOp::Z));
    spec.strategy = "ca-ec";
    spec.backendQubits = 5;
    spec.instances = 5;
    spec.compileSeed = 21;
    spec.trajectories = 33;
    spec.seed = 77;

    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, NoiseModel::standard());
    const RunResult reference = engine.runEnsemble(
        spec.logical, pipeline, spec.observables,
        spec.runOptions(/*threads=*/1));

    for (std::uint32_t shards : {1u, 3u}) {
        std::vector<ShardResult> results;
        for (std::uint32_t k = 0; k < shards; ++k) {
            ShardSpec shard = spec;
            shard.shardIndex = k;
            shard.shardCount = shards;
            const ShardSpec remote =
                ShardSpec::decode(shard.encode());
            results.push_back(ShardResult::decode(
                executeShard(remote, /*threads=*/1).encode()));
        }
        const RunResult merged = mergeShards(results);
        ASSERT_EQ(merged.means.size(), reference.means.size());
        EXPECT_EQ(merged.trajectories, reference.trajectories);
        for (std::size_t k = 0; k < merged.means.size(); ++k) {
            EXPECT_EQ(merged.means[k], reference.means[k])
                << "S=" << shards << " mean " << k;
            EXPECT_EQ(merged.stderrs[k], reference.stderrs[k])
                << "S=" << shards << " stderr " << k;
        }
    }
}

} // namespace
} // namespace casq
