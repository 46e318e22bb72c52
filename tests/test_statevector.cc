#include <cmath>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "sim/backend.hh"
#include "sim/statevector.hh"

namespace casq {
namespace {

TEST(Statevector, InitialState)
{
    Statevector sv(3);
    EXPECT_EQ(sv.size(), 8u);
    EXPECT_EQ(sv.amplitudes()[0], Complex(1));
    EXPECT_NEAR(sv.probability(0, 0) + sv.probability(0, 1), 1.0,
                1e-12);
}

TEST(Statevector, HadamardCreatesSuperposition)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]),
                1.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(sv.probability(0, 1), 0.5, 1e-12);
}

TEST(Statevector, BellStateViaCx)
{
    Statevector sv(2);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyGate2q(gateUnitary(Op::CX), 0, 1);
    EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 0.5, 1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("XX")), 1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("YY")), -1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZZ")), 1.0,
                1e-12);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZI")), 0.0,
                1e-12);
}

TEST(Statevector, RzPhaseOnPlusState)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.applyPhases({{0, 0.7}}, {});
    EXPECT_NEAR(sv.expectation(
                    PauliString::single(1, 0, PauliOp::X)),
                std::cos(0.7), 1e-12);
    EXPECT_NEAR(sv.expectation(
                    PauliString::single(1, 0, PauliOp::Y)),
                std::sin(0.7), 1e-12);
}

TEST(Statevector, RzzMatchesGateMatrix)
{
    Statevector a(2), b(2);
    for (Statevector *sv : {&a, &b}) {
        sv->applyGate1q(gateUnitary(Op::H), 0);
        sv->applyGate1q(gateUnitary(Op::H), 1);
    }
    a.applyRzz(0, 1, 0.9);
    b.applyGate2q(gateUnitary(Op::RZZ, {0.9}), 0, 1);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, 1e-12);
}

TEST(Statevector, FusedPhasesMatchSequential)
{
    Statevector a(3), b(3);
    for (Statevector *sv : {&a, &b})
        for (std::uint32_t q = 0; q < 3; ++q)
            sv->applyGate1q(gateUnitary(Op::H), q);

    a.applyPhases({QubitAngle{0, 0.3}, QubitAngle{2, -0.5}},
                  {PairAngle{0, 1, 0.7}, PairAngle{1, 2, 0.2}});
    b.applyPhases({{0, 0.3}}, {});
    b.applyPhases({{2, -0.5}}, {});
    b.applyRzz(0, 1, 0.7);
    b.applyRzz(1, 2, 0.2);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                    0.0, 1e-12);
}

TEST(Statevector, ApplyPauliMatchesMatrix)
{
    for (const char *label : {"XI", "IY", "ZZ", "XY", "YZ"}) {
        Statevector a(2), b(2);
        for (Statevector *sv : {&a, &b}) {
            sv->applyGate1q(gateUnitary(Op::H), 0);
            sv->applyGate1q(gateUnitary(Op::SX), 1);
        }
        const PauliString p = PauliString::fromLabel(label);
        a.applyPauli(p);
        b.applyGate2q(
            [&] {
                CMat m(4, 4);
                const CMat full = p.matrix();
                for (std::size_t i = 0; i < 4; ++i)
                    for (std::size_t j = 0; j < 4; ++j)
                        m(i, j) = full(i, j);
                return m;
            }(),
            0, 1);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_NEAR(
                std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                0.0, 1e-12)
                << label;
    }
}

// Measurement is StateBackend::measure (probabilityOne, one
// uniform, collapse); these pin it on the dense backend.

TEST(Statevector, MeasureCollapses)
{
    Rng rng(5);
    DenseBackend backend(2);
    backend.applyGate1q(gateUnitary(Op::H), 0, nullptr);
    backend.applyGate2q(gateUnitary(Op::CX), 0, 1, nullptr);
    const int outcome = backend.measure(0, rng);
    // After collapse both qubits agree.
    EXPECT_NEAR(backend.probabilityOne(1), double(outcome), 1e-12);
    const Statevector &sv = backend.state();
    EXPECT_NEAR(sv.probability(0, 0) + sv.probability(0, 1), 1.0,
                1e-12);
}

TEST(Statevector, MeasurementStatistics)
{
    Rng rng(11);
    int ones = 0;
    const int shots = 2000;
    for (int s = 0; s < shots; ++s) {
        DenseBackend backend(1);
        backend.applyGate1q(gateUnitary(Op::H), 0, nullptr);
        ones += backend.measure(0, rng);
    }
    EXPECT_NEAR(ones / double(shots), 0.5, 0.05);
}

TEST(Statevector, CollapseDeterministic)
{
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    sv.collapse(0, 1);
    EXPECT_NEAR(sv.probability(0, 1), 1.0, 1e-12);
}

TEST(Statevector, CollapseNormalizesAScaledState)
{
    // The guard is relative to the state's own norm: a state scaled
    // to a squared norm of 1e-26 still collapses onto a half that
    // holds half of it.
    Statevector sv(1);
    sv.applyGate1q(gateUnitary(Op::H), 0);
    for (std::size_t i = 0; i < sv.size(); ++i)
        sv.amp(i) *= 1e-13;
    sv.collapse(0, 1);
    EXPECT_NEAR(sv.probability(0, 1), 1.0, 1e-12);
}

TEST(Statevector, AmplitudeDampDecaysExcitedState)
{
    // Average over many trajectories: P(1) ~ exp(-t/T1).
    Rng rng(17);
    const double tau = 100.0, t1 = 300.0;
    const int shots = 4000;
    double p1 = 0.0;
    for (int s = 0; s < shots; ++s) {
        DenseBackend backend(1);
        backend.applyGate1q(gateUnitary(Op::X), 0, nullptr);
        backend.amplitudeDamp(0, tau, t1, rng);
        p1 += backend.probabilityOne(0);
    }
    EXPECT_NEAR(p1 / shots, std::exp(-tau / t1), 0.03);
}

TEST(Statevector, AmplitudeDampPreservesGroundState)
{
    Rng rng(19);
    DenseBackend backend(1);
    backend.amplitudeDamp(0, 1000.0, 100.0, rng);
    EXPECT_NEAR(backend.probabilityOne(0), 0.0, 1e-12);
    const Statevector &sv = backend.state();
    EXPECT_NEAR(sv.probability(0, 0) + sv.probability(0, 1), 1.0,
                1e-12);
}

TEST(Statevector, CopyFromMatchesSourceExactly)
{
    Statevector src(3), dst(3);
    src.applyGate1q(gateUnitary(Op::H), 0);
    src.applyGate2q(gateUnitary(Op::ECR), 0, 2);
    src.applyPhases({{1, 0.37}}, {});
    dst.copyFrom(src);
    for (std::size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(dst.amplitudes()[i], src.amplitudes()[i]) << i;
    // The copy is independent state, not a view.
    dst.applyGate1q(gateUnitary(Op::X), 1);
    EXPECT_NE(dst.amplitudes()[0], src.amplitudes()[0]);
}

// ----------------------- randomized old-vs-new kernel equivalence
//
// The block-structured kernels replaced mask-skip loops and
// per-amplitude trig; these references reimplement the historical
// per-element arithmetic, so any divergence beyond accumulated
// rounding (1e-15) is a kernel bug.

/** Haar-ish random normalized state via per-amplitude Gaussians. */
Statevector
randomState(std::size_t qubits, Rng &rng)
{
    Statevector sv(qubits);
    double nrm = 0.0;
    for (std::size_t i = 0; i < sv.size(); ++i) {
        const Complex a(rng.uniform(-1.0, 1.0),
                        rng.uniform(-1.0, 1.0));
        sv.amp(i) = a;
        nrm += std::norm(a);
    }
    const double inv = 1.0 / std::sqrt(nrm);
    for (std::size_t i = 0; i < sv.size(); ++i)
        sv.amp(i) *= inv;
    return sv;
}

/** Historical mask-skip 1q kernel. */
void
refGate1q(std::vector<Complex> &amps, const CMat &u,
          std::uint32_t q)
{
    const std::size_t mask = std::size_t(1) << q;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & mask)
            continue;
        const Complex a = amps[i];
        const Complex b = amps[i | mask];
        amps[i] = u(0, 0) * a + u(0, 1) * b;
        amps[i | mask] = u(1, 0) * a + u(1, 1) * b;
    }
}

/** Historical mask-skip 2q kernel (q0 = less significant index). */
void
refGate2q(std::vector<Complex> &amps, const CMat &u,
          std::uint32_t q0, std::uint32_t q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    for (std::size_t i = 0; i < amps.size(); ++i) {
        if (i & (m0 | m1))
            continue;
        const Complex a00 = amps[i];
        const Complex a01 = amps[i | m0];
        const Complex a10 = amps[i | m1];
        const Complex a11 = amps[i | m0 | m1];
        amps[i] = u(0, 0) * a00 + u(0, 1) * a01 + u(0, 2) * a10 +
                  u(0, 3) * a11;
        amps[i | m0] = u(1, 0) * a00 + u(1, 1) * a01 +
                       u(1, 2) * a10 + u(1, 3) * a11;
        amps[i | m1] = u(2, 0) * a00 + u(2, 1) * a01 +
                       u(2, 2) * a10 + u(2, 3) * a11;
        amps[i | m0 | m1] = u(3, 0) * a00 + u(3, 1) * a01 +
                            u(3, 2) * a10 + u(3, 3) * a11;
    }
}

/** Historical per-amplitude-trig fused phase kernel. */
void
refPhases(std::vector<Complex> &amps,
          const std::vector<QubitAngle> &z,
          const std::vector<PairAngle> &zz)
{
    for (std::size_t i = 0; i < amps.size(); ++i) {
        double acc = 0.0;
        for (const QubitAngle &za : z)
            acc += ((i >> za.qubit) & 1) ? 0.5 * za.theta
                                         : -0.5 * za.theta;
        for (const PairAngle &pa : zz) {
            const int parity = int((i >> pa.q0) & 1) ^
                               int((i >> pa.q1) & 1);
            acc += parity ? 0.5 * pa.theta : -0.5 * pa.theta;
        }
        amps[i] *= Complex(std::cos(acc), std::sin(acc));
    }
}

void
expectAmpsNear(const Statevector &sv,
               const std::vector<Complex> &ref, double tol,
               const std::string &label)
{
    ASSERT_EQ(sv.size(), ref.size()) << label;
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(std::abs(sv.amplitudes()[i] - ref[i]), 0.0,
                    tol)
            << label << " amp " << i;
}

TEST(StatevectorKernels, RandomizedGate1qMatchesMaskSkipReference)
{
    Rng rng(71);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + round % 6;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        const std::uint32_t q =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        for (Op op : {Op::H, Op::SX, Op::T, Op::Y}) {
            sv.applyGate1q(gateUnitary(op), q);
            refGate1q(ref, gateUnitary(op), q);
        }
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, RandomizedGate2qMatchesMaskSkipReference)
{
    Rng rng(72);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 2 + round % 5;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        std::uint32_t q0 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        std::uint32_t q1 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        if (q0 == q1)
            q1 = (q1 + 1) % n;
        for (Op op : {Op::CX, Op::ECR, Op::Swap}) {
            sv.applyGate2q(gateUnitary(op), q0, q1);
            refGate2q(ref, gateUnitary(op), q0, q1);
        }
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, CoupledFoldEqualsPhasesThenGate)
{
    // The fold multiplies its coupling terms in within its own pass;
    // it must reproduce applyPhases followed by the gate bit for bit,
    // whatever qubits the partners are, with one term or two per
    // partner and one to three partners.
    Rng rng(74);
    const auto sameBits = [](const Statevector &a, const Statevector &b) {
        for (std::size_t i = 0; i < a.size(); ++i)
            if (a.amplitudes()[i] != b.amplitudes()[i])
                return false;
        return true;
    };
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 5 + round % 4;
        const bool two = round % 2;
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t q = 0; q < n; ++q)
            order[q] = q;
        for (std::size_t k = n - 1; k > 0; --k)
            std::swap(order[k], order[rng.uniformInt(k + 1)]);
        const std::uint32_t q0 = order[0], q1 = order[1];
        const std::size_t partners = 1 + round % 3;
        std::vector<PairAngle> coupling;
        for (std::size_t k = 0; k < partners; ++k) {
            const std::uint32_t p = order[2 + k];
            coupling.push_back({q0, p, rng.uniform(-3.2, 3.2)});
            if (two && rng.uniformInt(2))
                coupling.push_back({p, q1, rng.uniform(-3.2, 3.2)});
        }
        const CMat u = two ? gateUnitary(Op::Can, {rng.uniform(-1.0, 1.0),
                                                   rng.uniform(-1.0, 1.0),
                                                   rng.uniform(-1.0, 1.0)})
                           : gateUnitary(Op::U, {rng.uniform(-3.0, 3.0),
                                                 rng.uniform(-3.0, 3.0),
                                                 rng.uniform(-3.0, 3.0)});
        Statevector fused = randomState(n, rng);
        Statevector ref(n);
        ref.copyFrom(fused);
        ref.applyPhases({}, coupling);
        if (two) {
            fused.applyGate2q(u, q0, q1, coupling);
            ref.applyGate2q(u, q0, q1);
        } else {
            fused.applyGate1q(u, q0, coupling);
            ref.applyGate1q(u, q0);
        }
        EXPECT_TRUE(sameBits(fused, ref))
            << "round " << round << ": " << coupling.size()
            << " terms";
    }
}

TEST(StatevectorKernels, RandomizedRzzMatchesPerAmplitudeTrig)
{
    Rng rng(73);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 2 + round % 5;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        std::uint32_t q0 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        std::uint32_t q1 =
            std::uint32_t(rng.uniform(0.0, double(n))) % n;
        if (q0 == q1)
            q1 = (q1 + 1) % n;
        const double theta = rng.uniform(-3.0, 3.0);
        sv.applyRzz(q0, q1, theta);
        refPhases(ref, {}, {PairAngle{q0, q1, theta}});
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, RandomizedPhasesMatchPerAmplitudeTrig)
{
    Rng rng(74);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 3 + round % 4;
        Statevector sv = randomState(n, rng);
        std::vector<Complex> ref = sv.amplitudes();
        std::vector<QubitAngle> z;
        std::vector<PairAngle> zz;
        for (std::uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.7))
                z.push_back(
                    QubitAngle{q, rng.uniform(-2.0, 2.0)});
        for (std::uint32_t q = 0; q + 1 < n; ++q)
            if (rng.bernoulli(0.7))
                zz.push_back(PairAngle{q, q + 1,
                                       rng.uniform(-2.0, 2.0)});
        sv.applyPhases(z, zz);
        refPhases(ref, z, zz);
        expectAmpsNear(sv, ref, 1e-15,
                       "round " + std::to_string(round));
    }
}

TEST(StatevectorKernels, RandomizedPauliMatchesMatrixKernel)
{
    Rng rng(75);
    for (const char *label :
         {"XX", "YY", "ZX", "XZ", "YX", "ZY", "IX", "YI"}) {
        Statevector a = randomState(2, rng);
        Statevector b(2);
        b.copyFrom(a);
        const PauliString p = PauliString::fromLabel(label);
        a.applyPauli(p);
        CMat m(4, 4);
        const CMat full = p.matrix();
        for (std::size_t i = 0; i < 4; ++i)
            for (std::size_t j = 0; j < 4; ++j)
                m(i, j) = full(i, j);
        b.applyGate2q(m, 0, 1);
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_NEAR(
                std::abs(a.amplitudes()[i] - b.amplitudes()[i]),
                0.0, 1e-15)
                << label;
    }
}

TEST(StatevectorKernels, AmplitudeDampGroundStateIsExact)
{
    // The no-jump branch must leave an exact ground state
    // bit-untouched: the pending weight scales only the empty |1>
    // halves, the weight pass multiplies |00> by exactly 1.0, and the
    // norm it measures is exactly 1.0, so nothing rescales.
    Rng rng(77);
    DenseBackend backend(2);
    backend.amplitudeDamp(0, 250.0, 80.0, rng);
    backend.amplitudeDamp(1, 250.0, 80.0, rng);
    const Statevector &sv = backend.state();
    EXPECT_EQ(sv.amplitudes()[0], Complex(1));
    for (std::size_t i = 1; i < sv.size(); ++i)
        EXPECT_EQ(sv.amplitudes()[i], Complex(0));
}

TEST(StatevectorKernels, AmplitudeDampBranchesMatchAnalytic)
{
    // alpha|00> + beta|01> (qubit 0 excited): both Kraus branches
    // have closed forms the dense backend must hit to 1e-15.
    const double tau = 120.0, t1 = 200.0;
    const double decay = std::exp(-tau / t1);
    const double alpha = 0.6, beta = 0.8;
    const double p1 = beta * beta * (1.0 - decay);

    int jumps = 0, stays = 0;
    Rng master(78);
    for (int round = 0; round < 40; ++round) {
        Rng rng = master.derive(std::uint64_t(round));
        Rng probe = master.derive(std::uint64_t(round));
        const bool jump = probe.uniform() < p1;
        DenseBackend backend(2);
        backend.state().amp(0) = Complex(alpha);
        backend.state().amp(1) = Complex(beta);
        backend.amplitudeDamp(0, tau, t1, rng);
        const Statevector &sv = backend.state();
        if (jump) {
            ++jumps;
            // |1> decayed to |0>: the state is exactly |00>.
            EXPECT_NEAR(std::abs(sv.amplitudes()[0] - Complex(1)),
                        0.0, 1e-15);
            EXPECT_NEAR(std::abs(sv.amplitudes()[1]), 0.0, 1e-15);
        } else {
            ++stays;
            const double k = std::sqrt(decay);
            const double nrm = std::sqrt(
                alpha * alpha + beta * k * (beta * k));
            EXPECT_NEAR(std::abs(sv.amplitudes()[0] -
                                 Complex(alpha / nrm)),
                        0.0, 1e-15);
            EXPECT_NEAR(std::abs(sv.amplitudes()[1] -
                                 Complex(beta * k / nrm)),
                        0.0, 1e-15);
        }
        EXPECT_NEAR(sv.probability(0, 0) + sv.probability(0, 1),
                    1.0, 1e-12);
    }
    // p1 ~ 0.29: both branches must actually have been exercised.
    EXPECT_GT(jumps, 0);
    EXPECT_GT(stays, 0);
}

} // namespace
} // namespace casq
