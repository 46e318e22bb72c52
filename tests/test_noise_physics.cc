/**
 * @file
 * Physics validation of the noise injector: the refocusing
 * behaviour of the paper's cases I-IV (Fig. 3) must *emerge* from
 * the toggling-frame segment model, and the stochastic channels
 * must reproduce their analytic decay laws.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "sim/engine.hh"
#include "sim/statevector.hh"

namespace casq {
namespace {

constexpr double kTwoPi = 6.28318530717958647692;

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

double
angleOf(double nu_mhz, double tau_ns)
{
    return kTwoPi * nu_mhz * tau_ns * 1e-3;
}

RunResult
runObs(const Backend &backend, const Circuit &qc,
       const std::vector<PauliString> &obs, int trajectories = 8)
{
    SimulationEngine engine(backend, NoiseModel::coherentOnly());
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = trajectories;
    return engine.run(sched, obs, opts);
}

TEST(NoisePhysics, CaseIdleIdleMatchesU11)
{
    // Two idle coupled qubits for time T accumulate exactly
    // U11 = Rzz(theta) [Rz(-theta) (x) Rz(-theta)] (paper Eq. 2).
    Backend backend = cleanLinearBackend(2);
    const double nu = 0.08, tau = 1400.0;
    backend.pair(0, 1).zzRateMHz = nu;
    Circuit qc(2, 0);
    qc.h(0).h(1).delay(0, tau).delay(1, tau);

    const auto obs = std::vector<PauliString>{
        PauliString::fromLabel("IX"), PauliString::fromLabel("XI"),
        PauliString::fromLabel("XX")};
    const RunResult result = runObs(backend, qc, obs);

    Statevector ref(2);
    const CMat h = gateUnitary(Op::H);
    ref.applyGate1q(h, 0);
    ref.applyGate1q(h, 1);
    const double theta = angleOf(nu, tau);
    ref.applyPhases(
        {QubitAngle{0, -theta}, QubitAngle{1, -theta}},
        {PairAngle{0, 1, theta}});
    EXPECT_NEAR(result.means[0], ref.expectation(obs[0]), 1e-9);
    EXPECT_NEAR(result.means[1], ref.expectation(obs[1]), 1e-9);
    EXPECT_NEAR(result.means[2], ref.expectation(obs[2]), 1e-9);
    // And the error is non-trivial for these parameters.
    EXPECT_LT(result.means[0], 0.95);
}

TEST(NoisePhysics, CaseControlSpectatorZzRefocused)
{
    // Spectator next to an ECR control: the gate echo refocuses
    // the ZZ, leaving exactly the local Rz(-theta) on the
    // spectator, so <X> = cos(theta) with no extra dephasing.
    Backend backend = cleanLinearBackend(4);
    const double nu = 0.09;
    backend.pair(0, 1).zzRateMHz = nu; // spectator 0 - control 1
    Circuit qc(4, 0);
    qc.h(0).barrier().ecr(1, 2);

    const RunResult result =
        runObs(backend, qc,
               {PauliString::single(4, 0, PauliOp::X),
                PauliString::single(4, 0, PauliOp::Y)});
    const double theta =
        angleOf(nu, backend.durations().twoQubit);
    EXPECT_NEAR(result.means[0], std::cos(theta), 1e-9);
    EXPECT_NEAR(result.means[1], -std::sin(theta), 1e-9);
}

TEST(NoisePhysics, CaseTargetSpectatorZzRefocused)
{
    // Spectator next to the ECR target: rotary refocuses the ZZ;
    // the spectator keeps its local Rz(-theta).
    Backend backend = cleanLinearBackend(4);
    const double nu = 0.07;
    backend.pair(2, 3).zzRateMHz = nu; // target 2 - spectator 3
    Circuit qc(4, 0);
    qc.h(3).barrier().ecr(1, 2);

    const RunResult result = runObs(
        backend, qc, {PauliString::single(4, 3, PauliOp::X)});
    const double theta =
        angleOf(nu, backend.durations().twoQubit);
    EXPECT_NEAR(result.means[0], std::cos(theta), 1e-9);
}

TEST(NoisePhysics, CaseControlControlZzSurvives)
{
    // Two parallel ECR gates with adjacent controls: both echoes
    // align, so the control-control ZZ accumulates at full
    // strength (paper case IV).  Compare against an explicit
    // reference that applies the full U11 before the ideal gates.
    Backend backend = cleanLinearBackend(4);
    const double nu = 0.08;
    backend.pair(1, 2).zzRateMHz = nu; // control 1 - control 2
    Circuit qc(4, 0);
    qc.h(1).h(2).barrier().append(
        Instruction(Op::ECR, {1, 0}));
    qc.append(Instruction(Op::ECR, {2, 3}));

    const auto obs = std::vector<PauliString>{
        PauliString::two(4, 1, PauliOp::X, 2, PauliOp::X),
        PauliString::two(4, 1, PauliOp::Y, 2, PauliOp::Y)};
    const RunResult result = runObs(backend, qc, obs);

    Statevector ref(4);
    const CMat h = gateUnitary(Op::H);
    ref.applyGate1q(h, 1);
    ref.applyGate1q(h, 2);
    const double theta =
        angleOf(nu, backend.durations().twoQubit);
    // ZZ at full strength; the local Z terms refocus to zero.
    ref.applyPhases({}, {PairAngle{1, 2, theta}});
    ref.applyGate2q(gateUnitary(Op::ECR), 1, 0);
    ref.applyGate2q(gateUnitary(Op::ECR), 2, 3);
    EXPECT_NEAR(result.means[0], ref.expectation(obs[0]), 1e-9);
    EXPECT_NEAR(result.means[1], ref.expectation(obs[1]), 1e-9);
}

TEST(NoisePhysics, AlignedDdPulsesCancelZButNotZz)
{
    // Real X gates inserted at identical times on both qubits:
    // the local Z errors refocus through the statevector algebra,
    // but the ZZ term survives in full (paper Fig. 3c).
    Backend backend = cleanLinearBackend(2);
    const double nu = 0.05;
    backend.pair(0, 1).zzRateMHz = nu;
    backend.durations().oneQubit = 0.0; // idealized pulses here
    const double tau = 1000.0;
    Circuit qc(2, 0);
    qc.h(0).h(1);
    qc.delay(0, tau).delay(1, tau);
    qc.x(0).x(1);
    qc.delay(0, tau).delay(1, tau);
    qc.x(0).x(1);

    const auto obs = std::vector<PauliString>{
        PauliString::fromLabel("XX"),
        PauliString::fromLabel("IX")};
    const RunResult result = runObs(backend, qc, obs);

    Statevector ref(2);
    const CMat h = gateUnitary(Op::H);
    ref.applyGate1q(h, 0);
    ref.applyGate1q(h, 1);
    // Local Z cancelled; ZZ at full strength over 2 tau.
    ref.applyPhases({}, {PairAngle{0, 1, angleOf(nu, 2 * tau)}});
    EXPECT_NEAR(result.means[0], ref.expectation(obs[0]), 1e-9);
    EXPECT_NEAR(result.means[1], ref.expectation(obs[1]), 1e-9);
}

TEST(NoisePhysics, StaggeredDdPulsesCancelZz)
{
    // Staggering the second qubit's pulses at the quarter points
    // refocuses the mutual ZZ as well: fidelity returns to 1.
    Backend backend = cleanLinearBackend(2);
    backend.pair(0, 1).zzRateMHz = 0.05;
    backend.durations().oneQubit = 0.0;
    const double q = 500.0; // quarter interval
    Circuit qc(2, 0);
    qc.h(0).h(1);
    // Qubit 0: X at 2q and 4q.  Qubit 1: X at q and 3q.
    qc.delay(0, 2 * q).x(0).delay(0, 2 * q).x(0);
    qc.delay(1, q).x(1).delay(1, 2 * q).x(1).delay(1, q);

    const auto obs = std::vector<PauliString>{
        PauliString::fromLabel("IX"),
        PauliString::fromLabel("XI"),
        PauliString::fromLabel("XX")};
    const RunResult result = runObs(backend, qc, obs);
    EXPECT_NEAR(result.means[0], 1.0, 1e-9);
    EXPECT_NEAR(result.means[1], 1.0, 1e-9);
    EXPECT_NEAR(result.means[2], 1.0, 1e-9);
}

TEST(NoisePhysics, StarkShiftOnSpectator)
{
    // A driven neighbour Stark-shifts the spectator: the total
    // phase is the always-on local part minus the Stark part (the
    // two enter with opposite Hamiltonian signs).
    Backend backend = cleanLinearBackend(3);
    const double nu = 0.06, stark = 0.02;
    backend.pair(0, 1).zzRateMHz = nu;
    backend.pair(0, 1).starkShiftMHz = stark;
    Circuit qc(3, 0);
    qc.h(0).barrier().ecr(1, 2);

    SimulationEngine engine(backend, NoiseModel::coherentOnly());
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 4;
    const RunResult result = engine.run(
        sched,
        {PauliString::single(3, 0, PauliOp::X),
         PauliString::single(3, 0, PauliOp::Y)},
        opts);
    const double tau = backend.durations().twoQubit;
    const double phase = -angleOf(nu, tau) + angleOf(stark, tau);
    EXPECT_NEAR(result.means[0], std::cos(phase), 1e-9);
    EXPECT_NEAR(result.means[1], std::sin(phase), 1e-9);
}

TEST(NoisePhysics, ChargeParityBeating)
{
    // Per-shot +-delta Z: averaging over the sign gives
    // <X(t)> = cos(2 pi delta t).
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).chargeParityMHz = 0.04;
    NoiseModel noise = NoiseModel::ideal();
    noise.chargeParity = true;
    SimulationEngine engine(backend, noise);

    for (double tau : {2000.0, 5000.0, 9000.0}) {
        Circuit qc(1, 0);
        qc.h(0).delay(0, tau);
        const ScheduledCircuit sched =
            scheduleASAP(qc, backend.durations());
        ExecutionOptions opts;
        opts.trajectories = 4000;
        const RunResult result = engine.run(
            sched, {PauliString::fromLabel("X")}, opts);
        EXPECT_NEAR(result.means[0],
                    std::cos(angleOf(0.04, tau)), 0.02)
            << "tau = " << tau;
    }
}

TEST(NoisePhysics, QuasiStaticGaussianDecay)
{
    // Gaussian-distributed static detuning: <X(t)> =
    // exp(-(2 pi sigma t)^2 / 2).
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).quasiStaticSigmaMHz = 0.02;
    NoiseModel noise = NoiseModel::ideal();
    noise.quasiStatic = true;
    SimulationEngine engine(backend, noise);

    const double tau = 6000.0;
    Circuit qc(1, 0);
    qc.h(0).delay(0, tau);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 6000;
    const RunResult result =
        engine.run(sched, {PauliString::fromLabel("X")}, opts);
    const double w = angleOf(0.02, tau);
    EXPECT_NEAR(result.means[0], std::exp(-w * w / 2.0), 0.02);
}

TEST(NoisePhysics, EchoRefocusesQuasiStaticNoise)
{
    // A Hahn echo (X at the midpoint, X at the end) removes the
    // per-shot static detuning entirely.
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).quasiStaticSigmaMHz = 0.02;
    backend.durations().oneQubit = 0.0;
    NoiseModel noise = NoiseModel::ideal();
    noise.quasiStatic = true;
    SimulationEngine engine(backend, noise);

    Circuit qc(1, 0);
    qc.h(0).delay(0, 3000).x(0).delay(0, 3000).x(0);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 500;
    const RunResult result =
        engine.run(sched, {PauliString::fromLabel("X")}, opts);
    EXPECT_NEAR(result.means[0], 1.0, 1e-9);
}

TEST(NoisePhysics, WhiteDephasingExponentialDecay)
{
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).t2Ns = 20e3;
    backend.qubit(0).t1Ns = 1e15;
    NoiseModel noise = NoiseModel::ideal();
    noise.whiteDephasing = true;
    SimulationEngine engine(backend, noise);

    const double tau = 15e3;
    Circuit qc(1, 0);
    qc.h(0).delay(0, tau);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 6000;
    const RunResult result =
        engine.run(sched, {PauliString::fromLabel("X")}, opts);
    EXPECT_NEAR(result.means[0], std::exp(-tau / 20e3), 0.02);
}

TEST(NoisePhysics, EchoDoesNotRefocusWhiteDephasing)
{
    // Markovian dephasing is echo-proof: the Hahn echo leaves the
    // same exponential decay.
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).t2Ns = 20e3;
    backend.qubit(0).t1Ns = 1e15;
    backend.durations().oneQubit = 0.0;
    NoiseModel noise = NoiseModel::ideal();
    noise.whiteDephasing = true;
    SimulationEngine engine(backend, noise);

    const double tau = 15e3;
    Circuit qc(1, 0);
    qc.h(0).delay(0, tau / 2).x(0).delay(0, tau / 2).x(0);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 6000;
    const RunResult result =
        engine.run(sched, {PauliString::fromLabel("X")}, opts);
    EXPECT_NEAR(result.means[0], std::exp(-tau / 20e3), 0.03);
}

TEST(NoisePhysics, T1RelaxationDuringIdle)
{
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).t1Ns = 50e3;
    backend.qubit(0).t2Ns = 1e15;
    NoiseModel noise = NoiseModel::ideal();
    noise.amplitudeDamping = true;
    SimulationEngine engine(backend, noise);

    const double tau = 30e3;
    Circuit qc(1, 0);
    qc.x(0).delay(0, tau);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    ExecutionOptions opts;
    opts.trajectories = 6000;
    const RunResult result =
        engine.run(sched, {PauliString::fromLabel("Z")}, opts);
    // <Z> = 1 - 2 P(1) = 1 - 2 exp(-t/T1).
    EXPECT_NEAR(result.means[0],
                1.0 - 2.0 * std::exp(-tau / 50e3), 0.03);
}

} // namespace
} // namespace casq
