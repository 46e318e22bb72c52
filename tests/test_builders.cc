#include <gtest/gtest.h>

#include "experiments/dynamic.hh"
#include "experiments/floquet.hh"
#include "experiments/heisenberg.hh"
#include "sim/engine.hh"

namespace casq {
namespace {

Backend
cleanBackend(const CouplingMap &map)
{
    Backend backend("clean", map);
    for (std::uint32_t q = 0; q < backend.numQubits(); ++q) {
        QubitProperties &p = backend.qubit(q);
        p.t1Ns = 1e15;
        p.t2Ns = 1e15;
        p.readoutError = 0.0;
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

TEST(Builders, FloquetIsingStructure)
{
    const LayeredCircuit circuit = buildFloquetIsing(6, 3);
    // 1 prep + 3 steps x 2 half-steps x (2 gate layers + X layer).
    EXPECT_EQ(circuit.layers().size(), 1u + 3u * 6u);
    EXPECT_EQ(circuit.countTwoQubitGates(), 3u * 2u * (3u + 2u));
}

TEST(Builders, FloquetIsingBoundaryObservableIsClifford)
{
    // At the Clifford point <X0 X5> must be exactly +-1 for all
    // depths in the noiseless simulator.
    const Backend backend = cleanBackend(makeLinear(6));
    SimulationEngine engine(backend, NoiseModel::ideal());
    const PauliString obs =
        PauliString::two(6, 0, PauliOp::X, 5, PauliOp::X);
    for (int d = 1; d <= 4; ++d) {
        const LayeredCircuit circuit = buildFloquetIsing(6, d);
        const ScheduledCircuit sched = scheduleASAP(
            circuit.flatten(), backend.durations());
        ExecutionOptions opts;
        opts.trajectories = 1;
        const double value =
            engine.run(sched, {obs}, opts).means[0];
        // The boundary stabilizer alternates sign each step.
        EXPECT_NEAR(value, (d % 2) ? -1.0 : 1.0, 1e-9)
            << "depth " << d;
    }
}

TEST(Builders, FloquetIdentityIsIdentityOnProbes)
{
    const Backend backend = cleanBackend(makeLinear(6));
    SimulationEngine engine(backend, NoiseModel::ideal());
    for (int d = 1; d <= 3; ++d) {
        const LayeredCircuit circuit = buildFloquetIdentity(d);
        const ScheduledCircuit sched = scheduleASAP(
            circuit.flatten(), backend.durations());
        ExecutionOptions opts;
        opts.trajectories = 1;
        // P00 on the probes: (1 + <Z1> + <Z2> + <Z1 Z2>) / 4 = 1.
        const auto probes = floquetIdentityProbes();
        const RunResult result = engine.run(
            sched,
            {PauliString::single(6, probes[0], PauliOp::Z),
             PauliString::single(6, probes[1], PauliOp::Z),
             PauliString::two(6, probes[0], PauliOp::Z, probes[1],
                              PauliOp::Z)},
            opts);
        const double p00 = (1.0 + result.means[0] +
                            result.means[1] + result.means[2]) /
                           4.0;
        EXPECT_NEAR(p00, 1.0, 1e-9) << "depth " << d;
    }
}

TEST(Builders, HeisenbergStructure)
{
    const LayeredCircuit circuit = buildHeisenbergRing(12, 5);
    // 1 prep layer + 5 steps x 3 interaction layers.
    EXPECT_EQ(circuit.layers().size(), 1u + 15u);
    // 12 edges per step, each one can block = 3 CX equivalents:
    // the paper's 180-CNOT circuit at d = 5.
    EXPECT_EQ(circuit.countTwoQubitGates(), 60u);
}

TEST(Builders, HeisenbergConservesTotalZ)
{
    // The isotropic Heisenberg model conserves total
    // magnetization: sum_q <Z_q> stays 0 for the Neel state.
    const Backend backend = cleanBackend(makeRing(6));
    SimulationEngine engine(backend, NoiseModel::ideal());
    const LayeredCircuit circuit = buildHeisenbergRing(6, 3);
    const ScheduledCircuit sched =
        scheduleASAP(circuit.flatten(), backend.durations());
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < 6; ++q)
        obs.push_back(PauliString::single(6, q, PauliOp::Z));
    ExecutionOptions opts;
    opts.trajectories = 1;
    const RunResult result = engine.run(sched, obs, opts);
    double total = 0.0;
    for (double z : result.means)
        total += z;
    EXPECT_NEAR(total, 0.0, 1e-9);
}

TEST(Builders, HeisenbergDynamicsNontrivial)
{
    const Backend backend = cleanBackend(makeRing(6));
    SimulationEngine engine(backend, NoiseModel::ideal());
    const PauliString obs = PauliString::single(6, 2, PauliOp::Z);
    const LayeredCircuit circuit = buildHeisenbergRing(6, 3);
    const ScheduledCircuit sched =
        scheduleASAP(circuit.flatten(), backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 1;
    const double z2 = engine.run(sched, {obs}, opts).means[0];
    // The Neel state starts at <Z2> = +1 and must have moved.
    EXPECT_LT(std::abs(z2), 0.999);
}

TEST(Builders, DynamicBellIdealFidelityIsOne)
{
    const Backend backend = cleanBackend(makeLinear(3));
    SimulationEngine engine(backend, NoiseModel::ideal());
    const LayeredCircuit circuit = buildDynamicBell();
    const ScheduledCircuit sched =
        scheduleASAP(circuit.flatten(), backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 64;
    const RunResult result =
        engine.run(sched, bellFidelityObservables(), opts);
    EXPECT_NEAR(bellFidelity(result.means), 1.0, 1e-9);
}

TEST(Builders, BellFidelityCombination)
{
    EXPECT_DOUBLE_EQ(bellFidelity({1.0, -1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(bellFidelity({0.0, 0.0, 0.0}), 0.25);
}

TEST(BuildersDeath, HeisenbergRejectsBadRingSize)
{
    EXPECT_DEATH(buildHeisenbergRing(8, 1), "multiple of 3");
}

} // namespace
} // namespace casq
