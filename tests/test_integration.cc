/**
 * @file
 * End-to-end checks that the compiler strategies actually suppress
 * the simulated noise the way the paper reports: CA-EC and
 * staggered/context-aware DD beat bare execution and aligned DD on
 * the contexts of Fig. 3, and the dynamic-circuit compensation
 * rescues the Bell fidelity of Fig. 9.
 */

#include <gtest/gtest.h>

#include "experiments/dynamic.hh"
#include "experiments/ramsey.hh"
#include "sim/engine.hh"

namespace casq {
namespace {

Backend
paperishBackend(std::size_t n)
{
    Backend backend = makeFakeLinear(n, 77);
    // Make the coherent error dominant and uniform for clarity.
    for (const auto &edge : backend.coupling().edges()) {
        backend.pair(edge.a, edge.b).zzRateMHz = 0.08;
        backend.pair(edge.a, edge.b).starkShiftMHz = 0.02;
    }
    return backend;
}

double
meanFidelity(const std::vector<RamseyPoint> &points)
{
    double acc = 0.0;
    for (const auto &p : points)
        acc += p.fidelity;
    return acc / double(points.size());
}

std::vector<RamseyPoint>
caseIdleIdle(const Backend &backend, Strategy strategy)
{
    CompileOptions compile;
    compile.strategy = strategy;
    compile.twirl = false;
    ExecutionOptions exec;
    exec.trajectories = 160;
    return runRamsey(
        [&](int d) { return buildCaseIdleIdle(2, 0, 1, d, 500.0); },
        {0, 1}, backend, NoiseModel::standard(), compile,
        {4, 8, 12}, exec);
}

TEST(Integration, CaseI_SuppressionOrdering)
{
    const Backend backend = paperishBackend(2);
    const double bare =
        meanFidelity(caseIdleIdle(backend, Strategy::None));
    const double aligned =
        meanFidelity(caseIdleIdle(backend, Strategy::DdAligned));
    const double ec =
        meanFidelity(caseIdleIdle(backend, Strategy::Ec));
    const double cadd =
        meanFidelity(caseIdleIdle(backend, Strategy::CaDd));
    const double ec_dd = meanFidelity(
        caseIdleIdle(backend, Strategy::EcAlignedDd));

    // Paper Fig. 3c: the bare and aligned-DD curves oscillate and
    // decay (aligned DD cannot remove the ZZ term); EC, staggered
    // CA-DD and EC+aligned-DD stay near ideal.  Both bare and
    // aligned must sit well below every context-aware strategy.
    EXPECT_LT(bare, 0.75);
    EXPECT_LT(aligned, 0.75);
    EXPECT_GT(ec, 0.9);
    EXPECT_GT(cadd, 0.9);
    EXPECT_GT(ec_dd, 0.9);
    EXPECT_GT(ec, aligned + 0.15);
    EXPECT_GT(cadd, aligned + 0.15);
}

TEST(Integration, AlignedDdSuppressesSlowSingleQubitNoise)
{
    // With the two-qubit coupling switched off, the classic
    // aligned X2 sequence refocuses quasi-static detuning and must
    // clearly beat the bare circuit.
    Backend backend = paperishBackend(2);
    backend.pair(0, 1).zzRateMHz = 0.0;
    backend.pair(0, 1).starkShiftMHz = 0.0;
    backend.qubit(0).quasiStaticSigmaMHz = 0.03;
    backend.qubit(1).quasiStaticSigmaMHz = 0.03;
    const double bare =
        meanFidelity(caseIdleIdle(backend, Strategy::None));
    const double aligned =
        meanFidelity(caseIdleIdle(backend, Strategy::DdAligned));
    EXPECT_GT(aligned, bare + 0.1);
    EXPECT_GT(aligned, 0.9);
}

TEST(Integration, CaseII_III_SpectatorSuppression)
{
    const Backend backend = paperishBackend(4);
    auto run = [&](Strategy strategy) {
        CompileOptions compile;
        compile.strategy = strategy;
        compile.twirl = false;
        ExecutionOptions exec;
        exec.trajectories = 160;
        return meanFidelity(runRamsey(
            [&](int d) {
                return buildCaseSpectator(4, 1, 2, d, {0, 3});
            },
            {0, 3}, backend, NoiseModel::standard(), compile,
            {4, 8}, exec));
    };
    const double bare = run(Strategy::None);
    const double ec = run(Strategy::Ec);
    const double cadd = run(Strategy::CaDd);
    EXPECT_LT(bare, 0.85);
    EXPECT_GT(ec, bare + 0.1);
    EXPECT_GT(cadd, bare + 0.1);
}

TEST(Integration, CaseIV_OnlyEcHelps)
{
    const Backend backend = paperishBackend(4);
    auto run = [&](Strategy strategy) {
        CompileOptions compile;
        compile.strategy = strategy;
        compile.twirl = false;
        ExecutionOptions exec;
        exec.trajectories = 160;
        return meanFidelity(runRamsey(
            [&](int d) {
                return buildCaseControlControl(4, 1, 0, 2, 3, d);
            },
            {1, 2}, backend, NoiseModel::standard(), compile,
            {2, 4}, exec));
    };
    const double bare = run(Strategy::None);
    const double cadd = run(Strategy::CaDd);
    const double ec = run(Strategy::Ec);
    // No idle qubits: DD cannot address the ctrl-ctrl ZZ.
    EXPECT_LT(bare, 0.9);
    EXPECT_GT(ec, bare + 0.05);
    EXPECT_GT(ec, cadd);
}

TEST(Integration, DynamicBellCompensationRescuesFidelity)
{
    Backend backend = makeFakeLinear(3, 99);
    backend.pair(0, 1).zzRateMHz = 0.09;
    backend.pair(1, 2).zzRateMHz = 0.05;
    backend.pair(0, 1).measureStarkMHz = 0.09;
    backend.pair(1, 2).measureStarkMHz = 0.05;

    SimulationEngine engine(backend, NoiseModel::standard());
    const LayeredCircuit bell = buildDynamicBell();
    ExecutionOptions exec;
    exec.trajectories = 300;

    auto fidelity = [&](Strategy strategy) {
        CompileOptions compile;
        compile.strategy = strategy;
        compile.twirl = false;
        Rng rng(1);
        const ScheduledCircuit sched =
            compileCircuit(bell, backend, compile, rng);
        const RunResult result = engine.run(
            sched, bellFidelityObservables(), exec);
        return bellFidelity(result.means);
    };

    const double bare = fidelity(Strategy::None);
    const double ec = fidelity(Strategy::Ec);
    // Paper Fig. 9: ~8x improvement; shapes must reproduce: the
    // bare fidelity collapses under the readout-window coherent
    // errors, compensation restores most of it.
    EXPECT_LT(bare, 0.35);
    EXPECT_GT(ec, bare + 0.35);
    EXPECT_GT(ec, 0.6);
}

TEST(Integration, TwirlingConvertsCoherentToDecay)
{
    // With twirling, the case-I fidelity decays smoothly instead
    // of oscillating; suppression on top still helps.
    const Backend backend = paperishBackend(2);
    CompileOptions compile;
    compile.twirl = true;
    ExecutionOptions exec;
    exec.trajectories = 240;
    const auto bare = runRamsey(
        [&](int d) { return buildCaseIdleIdle(2, 0, 1, d, 500.0); },
        {0, 1}, backend, NoiseModel::standard(), compile,
        {2, 6, 10}, exec, 12);
    compile.strategy = Strategy::Ec;
    const auto ec = runRamsey(
        [&](int d) { return buildCaseIdleIdle(2, 0, 1, d, 500.0); },
        {0, 1}, backend, NoiseModel::standard(), compile,
        {2, 6, 10}, exec, 12);
    EXPECT_GT(meanFidelity(ec), meanFidelity(bare) + 0.05);
}

} // namespace
} // namespace casq
