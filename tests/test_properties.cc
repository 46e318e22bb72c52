/**
 * @file
 * Randomized property sweeps over generated circuits: the compiler
 * passes must preserve the logical circuit (twirling, DD dressing)
 * or improve fidelity under the noise they target (CA-EC), and the
 * scheduling invariants must hold for arbitrary input.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

namespace casq {
namespace {

constexpr std::size_t kQubits = 4;

/** Random layered circuit on a 4-qubit chain. */
LayeredCircuit
randomLayered(std::uint64_t seed, int layers)
{
    Rng rng(seed);
    Circuit qc(kQubits, 0);
    for (int l = 0; l < layers; ++l) {
        if (rng.bernoulli(0.5)) {
            // Two-qubit layer on one or two disjoint edges.
            if (rng.bernoulli(0.5)) {
                qc.ecr(0, 1);
                if (rng.bernoulli(0.7))
                    qc.cx(2, 3);
            } else {
                qc.cx(1, 2);
            }
        } else {
            // Single-qubit layer.
            for (std::uint32_t q = 0; q < kQubits; ++q) {
                switch (rng.uniformInt(5)) {
                  case 0:
                    qc.h(q);
                    break;
                  case 1:
                    qc.sx(q);
                    break;
                  case 2:
                    qc.x(q);
                    break;
                  case 3:
                    qc.rz(q, rng.uniform(-1.5, 1.5));
                    break;
                  default:
                    break; // idle
                }
            }
        }
        qc.barrier();
    }
    return stratify(qc);
}

Backend
coherentBackend(std::uint64_t seed)
{
    Backend backend("prop", makeLinear(kQubits));
    Rng rng(seed);
    for (std::uint32_t q = 0; q < kQubits; ++q) {
        QubitProperties &p = backend.qubit(q);
        p.t1Ns = 1e15;
        p.t2Ns = 1e15;
        p.readoutError = 0.0;
        p.quasiStaticSigmaMHz = 0.0;
        p.gateError1q = 0.0;
    }
    for (const auto &edge : backend.coupling().edges()) {
        PairProperties &p = backend.pair(edge.a, edge.b);
        p.zzRateMHz = rng.uniform(0.05, 0.1);
        p.starkShiftMHz = rng.uniform(0.01, 0.03);
        p.gateError2q = 0.0;
    }
    return backend;
}

std::vector<PauliString>
probeObservables()
{
    return {PauliString::fromLabel("XIII"),
            PauliString::fromLabel("IZXI"),
            PauliString::fromLabel("ZZII"),
            PauliString::fromLabel("IXYZ"),
            PauliString::fromLabel("ZIIZ")};
}

double
deviation(const std::vector<double> &a, const std::vector<double> &b)
{
    double acc = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        acc += (a[k] - b[k]) * (a[k] - b[k]);
    return std::sqrt(acc);
}

class RandomCircuits : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCircuits, StratifyFlattenPreservesUnitary)
{
    const LayeredCircuit layered =
        randomLayered(GetParam() * 101 + 1, 6);
    const Circuit flat = layered.flatten();
    // Re-stratifying the flattened circuit must preserve the
    // unitary again.
    const LayeredCircuit again = stratify(flat);
    EXPECT_TRUE(circuitUnitary(again.flatten())
                    .equalUpToGlobalPhase(circuitUnitary(flat),
                                          1e-9));
}

TEST_P(RandomCircuits, ScheduleHasNoOverlapsAndCoversAllGates)
{
    const Backend backend = coherentBackend(GetParam());
    const LayeredCircuit layered =
        randomLayered(GetParam() * 131 + 7, 8);
    const Circuit flat = layered.flatten();
    const ScheduledCircuit sched =
        scheduleASAP(flat, backend.durations());
    EXPECT_EQ(sched.findOverlap(), -1);
    std::size_t gates = 0;
    for (const auto &inst : flat.instructions())
        gates += inst.op != Op::Barrier;
    EXPECT_EQ(sched.instructions().size(), gates);
}

TEST_P(RandomCircuits, TwirlPreservesUnitary)
{
    const LayeredCircuit layered =
        randomLayered(GetParam() * 17 + 3, 6);
    Rng rng(GetParam());
    ConjugationTable tables;
    const Circuit twirled = insertTwirlFrames(
        layered.flatten(), makeTwirlPlan(layered), rng, tables);
    EXPECT_TRUE(circuitUnitary(twirled).equalUpToGlobalPhase(
        circuitUnitary(layered.flatten()), 1e-8));
}

TEST_P(RandomCircuits, CaDdPreservesIdealAction)
{
    // DD pulses come in frame-restoring groups: in a noiseless
    // simulation the dressed circuit acts identically.
    const Backend backend = coherentBackend(GetParam());
    const LayeredCircuit layered =
        randomLayered(GetParam() * 29 + 11, 6);
    CompileOptions options;
    options.twirl = false;
    Rng rng(1);
    options.strategy = Strategy::None;
    const ScheduledCircuit bare =
        compileCircuit(layered, backend, options, rng);
    options.strategy = Strategy::CaDd;
    const ScheduledCircuit dressed =
        compileCircuit(layered, backend, options, rng);
    EXPECT_EQ(dressed.findOverlap(), -1);

    SimulationEngine ideal(backend, NoiseModel::ideal());
    ExecutionOptions exec;
    exec.trajectories = 1;
    const auto obs = probeObservables();
    const RunResult a = ideal.run(bare, obs, exec);
    const RunResult b = ideal.run(dressed, obs, exec);
    for (std::size_t k = 0; k < obs.size(); ++k)
        EXPECT_NEAR(a.means[k], b.means[k], 1e-9) << "obs " << k;
}

TEST_P(RandomCircuits, CaEcReducesCoherentDeviation)
{
    // Under purely coherent crosstalk, the compensated circuit
    // must sit closer to the ideal expectations than the bare one
    // (or both are already essentially ideal).
    const Backend backend = coherentBackend(GetParam() + 500);
    const LayeredCircuit layered =
        randomLayered(GetParam() * 37 + 5, 8);
    const auto obs = probeObservables();

    CompileOptions options;
    options.twirl = false;
    Rng rng(1);
    options.strategy = Strategy::None;
    const ScheduledCircuit bare =
        compileCircuit(layered, backend, options, rng);
    options.strategy = Strategy::Ec;
    const ScheduledCircuit fixed =
        compileCircuit(layered, backend, options, rng);

    SimulationEngine ideal(backend, NoiseModel::ideal());
    SimulationEngine noisy(backend, NoiseModel::coherentOnly());
    ExecutionOptions one;
    one.trajectories = 1;
    ExecutionOptions few;
    few.trajectories = 4;
    const RunResult ref = ideal.run(bare, obs, one);
    const double bare_dev =
        deviation(noisy.run(bare, obs, few).means, ref.means);
    const double fixed_dev =
        deviation(noisy.run(fixed, obs, few).means, ref.means);
    if (bare_dev > 0.3) {
        // Coherent errors matter here: compensation must help.
        EXPECT_LT(fixed_dev, bare_dev) << "bare_dev = " << bare_dev;
    } else {
        // Nothing much to fix: the compensation machinery (pulse
        // insertions, thresholded residuals) may cost a little,
        // but must never hurt catastrophically.
        EXPECT_LT(fixed_dev, 0.35) << "bare_dev = " << bare_dev;
    }
}

TEST_P(RandomCircuits, EnsembleCompilationIsDeterministic)
{
    const Backend backend = coherentBackend(GetParam());
    const LayeredCircuit layered =
        randomLayered(GetParam() * 41 + 13, 5);
    CompileOptions options;
    options.strategy = Strategy::Combined;
    const auto a =
        compileEnsemble(layered, backend, options, 3, 99);
    const auto b =
        compileEnsemble(layered, backend, options, 3, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].instructions().size(),
                  b[k].instructions().size());
        for (std::size_t i = 0; i < a[k].instructions().size();
             ++i) {
            EXPECT_EQ(a[k].instructions()[i].inst.toString(),
                      b[k].instructions()[i].inst.toString());
            EXPECT_DOUBLE_EQ(a[k].instructions()[i].start,
                             b[k].instructions()[i].start);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits,
                         ::testing::Range(0, 10));

} // namespace
} // namespace casq
