/**
 * @file
 * Single-circuit trajectory simulation through SimulationEngine::run:
 * ideal expectations, every noise channel switched off or on,
 * feedforward, reset, thread invariance and the width check.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/engine.hh"

namespace casq {
namespace {

/** Backend with every error channel zeroed out. */
Backend
cleanLinearBackend(std::size_t n)
{
    Backend backend("clean", makeLinear(n));
    for (std::uint32_t q = 0; q < n; ++q) {
        QubitProperties &p = backend.qubit(q);
        p.t1Ns = 1e15;
        p.t2Ns = 1e15;
        p.readoutError = 0.0;
        p.chargeParityMHz = 0.0;
        p.quasiStaticSigmaMHz = 0.0;
        p.gateError1q = 0.0;
    }
    for (const auto &edge : backend.coupling().edges()) {
        PairProperties &p = backend.pair(edge.a, edge.b);
        p.zzRateMHz = 0.0;
        p.starkShiftMHz = 0.0;
        p.gateError2q = 0.0;
    }
    return backend;
}

TEST(Executor, IdealGhzExpectations)
{
    const Backend backend = cleanLinearBackend(3);
    SimulationEngine engine(backend, NoiseModel::ideal());
    Circuit qc(3, 0);
    qc.h(0).cx(0, 1).cx(1, 2);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 4;
    const RunResult result = engine.run(
        sched,
        {PauliString::fromLabel("XXX"),
         PauliString::fromLabel("ZZI"),
         PauliString::fromLabel("IZZ"),
         PauliString::fromLabel("ZII")},
        opts);
    EXPECT_NEAR(result.means[0], 1.0, 1e-9);
    EXPECT_NEAR(result.means[1], 1.0, 1e-9);
    EXPECT_NEAR(result.means[2], 1.0, 1e-9);
    EXPECT_NEAR(result.means[3], 0.0, 1e-9);
}

TEST(Executor, CleanBackendNoiseModelIsNoiseless)
{
    // All mechanisms enabled but all rates zero: still ideal.
    const Backend backend = cleanLinearBackend(2);
    SimulationEngine engine(backend, NoiseModel::standard());
    Circuit qc(2, 0);
    qc.h(0).ecr(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 8;
    const RunResult r1 = engine.run(
        sched, {PauliString::fromLabel("ZZ")}, opts);
    SimulationEngine ideal(backend, NoiseModel::ideal());
    const RunResult r2 = ideal.run(
        sched, {PauliString::fromLabel("ZZ")}, opts);
    EXPECT_NEAR(r1.means[0], r2.means[0], 1e-9);
}

TEST(Executor, ThreadCountDoesNotChangeResult)
{
    Backend backend = cleanLinearBackend(2);
    backend.pair(0, 1).zzRateMHz = 0.08;
    backend.qubit(0).quasiStaticSigmaMHz = 0.01;
    SimulationEngine engine(backend, NoiseModel::standard());
    Circuit qc(2, 0);
    qc.h(0).h(1).delay(0, 2000).delay(1, 2000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());

    ExecutionOptions opts1;
    opts1.trajectories = 64;
    opts1.threads = 1;
    ExecutionOptions opts2 = opts1;
    opts2.threads = 2;
    const RunResult r1 = engine.run(
        sched, {PauliString::fromLabel("XI")}, opts1);
    const RunResult r2 = engine.run(
        sched, {PauliString::fromLabel("XI")}, opts2);
    EXPECT_NEAR(r1.means[0], r2.means[0], 1e-9);
}

TEST(Executor, FeedforwardBellIsIdealWithoutNoise)
{
    const Backend backend = cleanLinearBackend(3);
    SimulationEngine engine(backend, NoiseModel::ideal());
    Circuit qc(3, 1);
    qc.h(0).h(2).cx(0, 1).cx(2, 1).measure(1, 0);
    qc.x(2).conditionedOn(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 64;
    const RunResult result = engine.run(
        sched,
        {PauliString::fromLabel("XIX"),
         PauliString::fromLabel("YIY"),
         PauliString::fromLabel("ZIZ")},
        opts);
    // Data qubits 0 and 2 form |Phi+>: XX = +1, YY = -1, ZZ = +1.
    EXPECT_NEAR(result.means[0], 1.0, 1e-9);
    EXPECT_NEAR(result.means[1], -1.0, 1e-9);
    EXPECT_NEAR(result.means[2], 1.0, 1e-9);
}

TEST(Executor, ResetReturnsToGround)
{
    const Backend backend = cleanLinearBackend(1);
    SimulationEngine engine(backend, NoiseModel::ideal());
    Circuit qc(1, 0);
    qc.h(0).reset(0);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 32;
    const RunResult result = engine.run(
        sched, {PauliString::fromLabel("Z")}, opts);
    EXPECT_NEAR(result.means[0], 1.0, 1e-9);
}

TEST(Executor, ReadoutErrorFlipsRecordsOnly)
{
    Backend backend = cleanLinearBackend(2);
    backend.qubit(0).readoutError = 1.0; // always misreport
    SimulationEngine engine(backend, NoiseModel::standard());
    Circuit qc(2, 1);
    qc.measure(0, 0);
    qc.x(1).conditionedOn(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 16;
    const RunResult result = engine.run(
        sched, {PauliString::fromLabel("ZI")}, opts);
    // Qubit 0 is |0> but the record reads 1, so the conditional X
    // fires and qubit 1 flips: <Z_1> = -1.
    EXPECT_NEAR(result.means[0], -1.0, 1e-9);
}

TEST(Executor, GateDepolarizingReducesFidelity)
{
    Backend backend = cleanLinearBackend(2);
    backend.pair(0, 1).gateError2q = 0.05;
    SimulationEngine engine(backend, NoiseModel::standard());
    Circuit qc(2, 0);
    // 20 self-inverse gate pairs amplify the depolarizing error.
    for (int k = 0; k < 20; ++k)
        qc.ecr(0, 1).ecr(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 600;
    const RunResult result = engine.run(
        sched, {PauliString::fromLabel("ZI")}, opts);
    // Ideal value is +1; 40 gates at p=0.05 must degrade it.
    EXPECT_LT(result.means[0], 0.75);
    EXPECT_GT(result.means[0], 0.0);
}

TEST(Executor, StderrShrinksWithTrajectories)
{
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).quasiStaticSigmaMHz = 0.02;
    SimulationEngine engine(backend, NoiseModel::standard());
    Circuit qc(1, 0);
    qc.h(0).delay(0, 4000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions small;
    small.trajectories = 50;
    ExecutionOptions large;
    large.trajectories = 800;
    const double se_small =
        engine.run(sched, {PauliString::fromLabel("X")}, small)
            .stderrs[0];
    const double se_large =
        engine.run(sched, {PauliString::fromLabel("X")}, large)
            .stderrs[0];
    EXPECT_LT(se_large, se_small);
}

TEST(ExecutorDeath, WidthMismatchRejected)
{
    const Backend backend = cleanLinearBackend(2);
    SimulationEngine engine(backend, NoiseModel::ideal());
    Circuit qc(3, 0);
    qc.h(0);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    EXPECT_DEATH(
        engine.run(sched, {PauliString::fromLabel("XII")}, {}),
        "width");
}

} // namespace
} // namespace casq
