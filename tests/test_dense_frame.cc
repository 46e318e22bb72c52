/**
 * @file
 * Work accounting of the dense substrate: the full-sweep counter
 * every Statevector kernel keeps (DenseBackend::sweeps), its path
 * through ShardSlots, ShardResult and RunResult, and the exact
 * per-run count of an estimate-dense-shaped ensemble.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "passes/pipeline.hh"
#include "sim/backend.hh"
#include "sim/engine.hh"
#include "sim/noise_model.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

/** ECR layers on every other coupler, 600 ns idles in between. */
LayeredCircuit
strideTwoChain(std::size_t n, int depth)
{
    LayeredCircuit circuit(n, 0);
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        for (std::uint32_t q = d % 2; q + 1 < n; q += 2)
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{q, q + 1});
        circuit.addLayer(std::move(gates));
        Layer idle{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < n; ++q)
            idle.insts.emplace_back(Op::Delay,
                                    std::vector<std::uint32_t>{q},
                                    std::vector<double>{600.0});
        circuit.addLayer(std::move(idle));
    }
    return circuit;
}

std::vector<PauliString>
chainObservables(std::size_t n)
{
    std::vector<PauliString> obs;
    for (std::size_t q = 0; q < n; ++q)
        obs.push_back(PauliString::single(n, q, PauliOp::Z));
    for (std::size_t q = 0; q + 1 < n; ++q)
        obs.push_back(
            PauliString::two(n, q, PauliOp::Z, q + 1, PauliOp::Z));
    return obs;
}

TEST(DenseSweeps, KernelsCountTheirPasses)
{
    DenseBackend backend(3);
    Rng rng(5);
    const auto delta = [&](const auto &kernel) {
        const std::uint64_t before = backend.sweeps();
        kernel();
        return backend.sweeps() - before;
    };
    EXPECT_EQ(delta([&] { backend.reset(); }), 1u);
    backend.applyPauliOp(PauliOp::X, 0);
    EXPECT_EQ(delta([&] { backend.probabilityOne(0); }), 1u);
    EXPECT_EQ(delta([&] { backend.collapse(0, 1); }), 2u);
    EXPECT_EQ(delta([&] {
                  backend.expectation(PauliString::fromLabel("ZZZ"));
              }),
              1u);
    EXPECT_EQ(delta([&] { backend.measure(1, rng); }), 3u);
    DenseBackend other(3);
    EXPECT_EQ(delta([&] { backend.assign(other); }), 1u);
    // The assign left |000>; the frame flips qubit 0 to |1>.  A draw
    // clear of 1 - e = 1e-7 cannot jump: it only scales a pending
    // weight.
    backend.applyPauliOp(PauliOp::X, 0);
    EXPECT_EQ(delta([&] { backend.amplitudeDamp(1, 1e-3, 1e4, rng); }),
              0u);
    // The next read applies the weights in one extra pass.
    EXPECT_EQ(delta([&] {
                  backend.expectation(PauliString::fromLabel("ZZZ"));
              }),
              2u);
    // With e = 2e-9 no draw is clear of 1 - e, so each one reads the
    // state: the ground state stays (one read pass), the excited
    // state jumps (the read pass, here applying a pending weight, and
    // the jump).
    EXPECT_EQ(delta([&] { backend.amplitudeDamp(2, 20.0, 1.0, rng); }),
              1u);
    EXPECT_EQ(delta([&] { backend.amplitudeDamp(0, 20.0, 1.0, rng); }),
              2u);
    EXPECT_NEAR(backend.probabilityOne(0), 0.0, 1e-12);
    // An idle 400 T1 long on the ground state stays, and its weight
    // e^-200 takes the norm bound below 2^-500: the read pass, then
    // the weight pass and the rescale of the renormalization.
    EXPECT_EQ(delta([&] { backend.amplitudeDamp(2, 400.0, 1.0, rng); }),
              3u);
    EXPECT_NEAR(backend.probabilityOne(2), 0.0, 1e-12);
}

TEST(DenseSweeps, FrameDefersPaulisAndDiagonals)
{
    DenseBackend backend(4);
    const auto delta = [&](const auto &kernel) {
        const std::uint64_t before = backend.sweeps();
        kernel();
        return backend.sweeps() - before;
    };
    // Paulis, virtual rz, diagonal gates and segment phases are
    // frame updates: no sweep.
    EXPECT_EQ(delta([&] {
                  backend.applyGate1q(gateUnitary(Op::X), 0, nullptr);
                  backend.applyGate1q(gateUnitary(Op::Y), 1, nullptr);
                  backend.applyGate1q(gateUnitary(Op::Z), 2, nullptr);
                  backend.applyGate1q(gateUnitary(Op::S), 3, nullptr);
                  backend.applyPauliOp(PauliOp::Y, 3);
                  backend.applyPhases({{0, 0.3}}, {});
                  backend.applyGate2q(gateUnitary(Op::RZZ, {0.4}), 1,
                                      2, nullptr);
                  backend.applyPhases({{0, 0.1}, {3, 0.2}},
                                      {{0, 1, 0.05}, {2, 3, 0.07}});
              }),
              0u);
    // A general gate folds its own qubits' frame into its matrix
    // and the pending Rzz terms from (1, 2) to 0 and 3 into the same
    // pass.
    EXPECT_EQ(delta([&] {
                  backend.applyGate2q(gateUnitary(Op::ECR), 1, 2,
                                      nullptr);
              }),
              1u);
    // Nothing couples qubit 1 to the rest any more.
    EXPECT_EQ(delta([&] {
                  backend.applyGate1q(gateUnitary(Op::SX), 1, nullptr);
              }),
              1u);
    // Z-type reads see through the frame; an X string flushes P and
    // D (two sweeps) before it reads.
    EXPECT_EQ(delta([&] {
                  backend.expectation(PauliString::fromLabel("ZZIZ"));
              }),
              1u);
    EXPECT_EQ(delta([&] {
                  backend.expectation(PauliString::fromLabel("XIII"));
              }),
              3u);
}

TEST(DenseSweeps, ZReadBatchesTakeOnePass)
{
    DenseBackend backend(4);
    const auto delta = [&](const auto &kernel) {
        const std::uint64_t before = backend.sweeps();
        kernel();
        return backend.sweeps() - before;
    };
    backend.applyGate1q(gateUnitary(Op::H), 0, nullptr);
    backend.applyGate2q(gateUnitary(Op::ECR), 0, 1, nullptr);
    backend.applyPauliOp(PauliOp::X, 2);
    backend.applyPhases({{3, 0.4}}, {{1, 3, 0.2}});
    const std::vector<PauliString> zs = {
        PauliString::fromLabel("ZIII"), PauliString::fromLabel("IZZI"),
        PauliString::fromLabel("-ZIIZ"), PauliString::fromLabel("ZZZZ"),
        PauliString::fromLabel("IIII")};
    std::vector<double> out(zs.size());
    // K Z-type strings, read through the frame: one pass.
    EXPECT_EQ(delta([&] { backend.expectations(zs, out); }), 1u);
    // A pending weight costs one more, however many strings.
    Rng rng(3);
    backend.amplitudeDamp(2, 1e-3, 1e4, rng);
    EXPECT_EQ(delta([&] { backend.expectations(zs, out); }), 2u);
    EXPECT_EQ(delta([&] { backend.expectations(zs, out); }), 1u);
    // An X/Y string splits the batch: the Z run before it (one
    // pass), the flush of P and D (two) and its own read (one), then
    // the Z run after it (one).
    const std::vector<PauliString> mixed = {
        zs[0], zs[1], PauliString::fromLabel("XIYI"), zs[2], zs[3]};
    out.resize(mixed.size());
    EXPECT_EQ(delta([&] { backend.expectations(mixed, out); }), 5u);
}

/**
 * The estimate-dense benchmark's shape: fused ca-ec+dd on a 10-qubit
 * chain under standard+corr+drift, dense, every Z_q and neighbour
 * ZZ observed.
 */
class EstimateDenseShape : public ::testing::Test
{
  protected:
    const Backend backend = makeFakeLinear(10);
    const NoiseModel noise = noiseModelFromRecipe("standard+corr+drift");
    const LayeredCircuit logical = strideTwoChain(10, 8);
    const std::vector<PauliString> obs = chainObservables(10);

    EnsembleRunOptions
    options(int threads) const
    {
        EnsembleRunOptions opts;
        opts.instances = 8;
        opts.compileSeed = 11;
        opts.trajectories = 16;
        opts.seed = 12;
        opts.threads = threads;
        opts.backend = SimBackendKind::Dense;
        return opts;
    }
};

TEST_F(EstimateDenseShape, SweepCountIsPinned)
{
    // 16 trajectories, 39.375 sweeps each: 36 folds, each with its
    // coupling terms in its own pass, one batched Z read and the
    // weight passes, jump reads and forks.  Engine numerics 1 (the
    // eager kernels, every operator swept at once) made 37208 here,
    // 2325.5 per trajectory; numerics 2 (the lazy Pauli + diagonal
    // frame, two passes per damping draw) made 15668, 979.25 each;
    // numerics 3 (pending damping weights) made 1494, 93.375 each,
    // until the coupling flushes joined the folds and the 19
    // observable reads became one pass, which moved no estimate.
    constexpr std::uint64_t kPinned = 630;
    PassManager pipeline = buildPipeline(Strategy::Combined);
    SimulationEngine engine(backend, noise);
    const RunResult serial =
        engine.runEnsemble(logical, pipeline, obs, options(1));
    EXPECT_EQ(serial.denseSweeps, kPinned);
    const RunResult pooled =
        engine.runEnsemble(logical, pipeline, obs, options(4));
    EXPECT_EQ(pooled.denseSweeps, kPinned);
}

TEST_F(EstimateDenseShape, ShardsCarryAndSumTheSweepCount)
{
    PassManager pipeline = buildPipeline(Strategy::Combined);
    SimulationEngine engine(backend, noise);
    const RunResult whole =
        engine.runEnsemble(logical, pipeline, obs, options(1));
    std::uint64_t sum = 0;
    for (std::uint32_t k = 0; k < 3; ++k) {
        sum += engine.runShard(logical, pipeline, obs, options(1), k, 3)
                   .denseSweeps;
    }
    EXPECT_EQ(sum, whole.denseSweeps);
    EXPECT_GT(sum, 0u);
}

// ------------------------------------------------------------------
// Differential test: the lazy backend against the eager kernels.
// ------------------------------------------------------------------

/** max_i |a_i - e^{i g} b_i| for the best-aligned global phase g. */
double
distanceUpToPhase(const Statevector &a, const Statevector &b)
{
    std::size_t peak = 0;
    for (std::size_t i = 0; i < b.size(); ++i)
        if (std::abs(b.amplitudes()[i]) >
            std::abs(b.amplitudes()[peak]))
            peak = i;
    const Complex ratio = a.amplitudes()[peak] / b.amplitudes()[peak];
    const Complex phase = ratio / std::abs(ratio);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a.amplitudes()[i] -
                                         phase * b.amplitudes()[i]));
    return worst;
}

/**
 * The eager amplitude-damping kernel the pending weights replaced:
 * read both halves, draw, then write the sampled branch normalized.
 * Returns whether it jumped.
 */
bool
eagerAmplitudeDamp(Statevector &sv, std::uint32_t q, double tau,
                   double t1, Rng &rng)
{
    if (tau <= 0.0 || t1 <= 0.0)
        return false;
    const double decay = std::exp(-tau / t1);
    const double p0 = sv.probability(q, 0);
    const double p1 = sv.probability(q, 1);
    const std::size_t half = std::size_t(1) << q;
    if (rng.uniform() < p1 * (1.0 - decay)) {
        const double inv = 1.0 / std::sqrt(p1);
        for (std::size_t i = 0; i < sv.size(); ++i) {
            if (i & half) {
                sv.amp(i ^ half) = sv.amp(i) * inv;
                sv.amp(i) = 0.0;
            }
        }
        return true;
    }
    const double keep = 1.0 / std::sqrt(p0 + decay * p1);
    const double damp = std::sqrt(decay) * keep;
    for (std::size_t i = 0; i < sv.size(); ++i)
        sv.amp(i) *= (i & half) ? damp : keep;
    return false;
}

/**
 * Random call sequences through DenseBackend and through a bare
 * Statevector with the eager kernels, in lockstep on twin RNG
 * streams: every measurement and damping branch must agree, every
 * read must agree to 1e-12, and the states must agree up to a global
 * phase.  A mid-sequence assign() moves the run to a fork.  On the
 * eager side a Pauli is its matrix and a measurement is
 * probability, one uniform, collapse (StateBackend::measure).
 *
 * Seeds 0-39 draw idles of 10-400 ns against T1 = 300 ns; seeds
 * 40-59 keep tau / T1 near 0.5, so 1 - e is near 0.39 and many draws
 * land on each side of the no-read threshold.  Long damped idles
 * (50 or more draws on one qubit, X bits coming and going, a general
 * gate folding the pending weight midway, an idle 400 T1 long that
 * trips the renormalization, then a measurement) pile up weights
 * between reads.  Observables are read in batches of one to five
 * strings, Z-type runs and X/Y strings mixed.
 */
TEST(DenseFrame, RandomSequencesMatchEagerKernels)
{
    constexpr std::size_t n = 4;
    constexpr double t1 = 300.0;
    const std::vector<Op> paulis{Op::X, Op::Y, Op::Z};
    const std::vector<Op> diagonal1q{Op::S, Op::Sdg, Op::T, Op::Tdg};
    const std::vector<Op> general1q{Op::H, Op::SX, Op::SXdg};
    const std::vector<Op> general2q{Op::ECR, Op::CX, Op::Swap};
    int jumps = 0, stays = 0, forks = 0, idles = 0, mixed = 0;
    int below = 0, above = 0; // tau / T1 near 0.5 only
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const bool half_t1 = seed >= 40;
        Rng script(1000 + seed);
        Rng lazy_rng(seed), eager_rng(seed);
        DenseBackend first(n), fork(n);
        DenseBackend *lazy = &first;
        Statevector eager(n);
        const auto qubit = [&] {
            return std::uint32_t(script.uniformInt(n));
        };
        const auto angle = [&] { return script.uniform(-3.2, 3.2); };
        const auto tau = [&] {
            return half_t1 ? script.uniform(140.0, 160.0)
                           : script.uniform(10.0, 400.0);
        };
        const auto gate1q = [&](const CMat &u, std::uint32_t q) {
            lazy->applyGate1q(u, q, nullptr);
            eager.applyGate1q(u, q);
        };
        const auto gate2q = [&](const CMat &u) {
            const std::uint32_t q0 = qubit();
            const std::uint32_t q1 =
                (q0 + 1 + std::uint32_t(script.uniformInt(n - 1))) % n;
            lazy->applyGate2q(u, q0, q1, nullptr);
            eager.applyGate2q(u, q0, q1);
        };
        const auto pick = [&](const std::vector<Op> &ops) {
            return ops[script.uniformInt(ops.size())];
        };
        const auto pauliX = [&](std::uint32_t q) {
            lazy->applyPauliOp(PauliOp::X, q);
            eager.applyGate1q(pauliMatrix(PauliOp::X), q);
        };
        const auto damp = [&](std::uint32_t q, double t) {
            Rng peek = lazy_rng;
            const bool clear = peek.uniform() >= 1.0 - std::exp(-t / t1);
            if (half_t1)
                (clear ? above : below) += 1;
            lazy->amplitudeDamp(q, t, t1, lazy_rng);
            (eagerAmplitudeDamp(eager, q, t, t1, eager_rng) ? jumps
                                                            : stays) += 1;
        };
        const auto measure = [&](std::uint32_t q,
                                 const std::string &label) {
            const int got = lazy->measure(q, lazy_rng);
            const double p1 = eager.probability(q, 1);
            const int want = eager_rng.uniform() < p1 ? 1 : 0;
            eager.collapse(q, want);
            EXPECT_EQ(got, want) << label;
            return want;
        };
        for (int step = 0; step < 300; ++step) {
            const std::string label = "seed " + std::to_string(seed) +
                                      " step " + std::to_string(step);
            switch (script.uniformInt(14)) {
              case 0:
                gate1q(gateUnitary(pick(paulis)), qubit());
                break;
              case 1: {
                const PauliOp op = PauliOp(1 + script.uniformInt(3));
                const std::uint32_t q = qubit();
                lazy->applyPauliOp(op, q);
                eager.applyGate1q(pauliMatrix(op), q);
                break;
              }
              case 2:
                gate1q(gateUnitary(pick(diagonal1q)), qubit());
                break;
              case 3: {
                const std::uint32_t q = qubit();
                const double theta = angle();
                lazy->applyPhases({{q, theta}}, {});
                eager.applyPhases({{q, theta}}, {});
                break;
              }
              case 4: {
                std::vector<QubitAngle> z;
                std::vector<PairAngle> zz;
                for (int k = int(script.uniformInt(4)); k > 0; --k)
                    z.push_back(QubitAngle{qubit(), angle()});
                for (int k = int(script.uniformInt(4)); k > 0; --k)
                    zz.push_back(PairAngle{qubit(), qubit(), angle()});
                lazy->applyPhases(z, zz);
                eager.applyPhases(z, zz);
                break;
              }
              case 5:
                gate2q(script.uniformInt(2)
                           ? gateUnitary(Op::RZZ, {angle()})
                           : gateUnitary(Op::CZ));
                break;
              case 6:
                gate1q(script.uniformInt(2)
                           ? gateUnitary(pick(general1q))
                           : gateUnitary(Op::U,
                                         {angle(), angle(), angle()}),
                       qubit());
                break;
              case 7:
                gate2q(script.uniformInt(2)
                           ? gateUnitary(pick(general2q))
                           : gateUnitary(Op::Can,
                                         {angle(), angle(), angle()}));
                break;
              case 8:
                damp(qubit(), tau());
                break;
              case 9: {
                // Measurement, and a reset when `reset` says so.
                const std::uint32_t q = qubit();
                if (measure(q, label) == 1 && script.uniformInt(2))
                    pauliX(q);
                break;
              }
              case 10: {
                // A batch of one to five strings, two in three
                // Z-type (some with the phase -1), read at once.
                std::vector<PauliString> batch;
                bool z_type = false, other = false;
                for (int k = 1 + int(script.uniformInt(5)); k > 0; --k) {
                    PauliString p(n);
                    const bool z = script.uniformInt(3) != 0;
                    for (std::uint32_t q = 0; q < n; ++q)
                        p.setOp(q, z ? (script.uniformInt(2)
                                            ? PauliOp::Z
                                            : PauliOp::I)
                                     : PauliOp(script.uniformInt(4)));
                    if (z && script.uniformInt(4) == 0)
                        p.mulPhase(2);
                    (z ? z_type : other) = true;
                    batch.push_back(p);
                }
                std::vector<double> got(batch.size());
                lazy->expectations(batch, got);
                for (std::size_t k = 0; k < batch.size(); ++k)
                    EXPECT_NEAR(got[k], eager.expectation(batch[k]),
                                1e-12)
                        << label << " <" << batch[k].toString() << ">";
                mixed += z_type && other;
                break;
              }
              case 11: {
                const std::uint32_t q = qubit();
                EXPECT_NEAR(lazy->probabilityOne(q),
                            eager.probability(q, 1), 1e-12)
                    << label;
                break;
              }
              case 12:
                if (lazy == &first && step > 150) {
                    fork.assign(first);
                    lazy = &fork;
                    ++forks;
                }
                break;
              case 13: {
                const std::uint32_t q = qubit();
                const int length = 50 + int(script.uniformInt(30));
                for (int k = 0; k < length; ++k) {
                    if (script.uniformInt(8) == 0)
                        pauliX(q);
                    if (k == length / 2)
                        gate1q(gateUnitary(pick(general1q)), q);
                    damp(q, k == length - 1 ? 400.0 * t1 : tau());
                }
                measure((q + 1) % n, label);
                ++idles;
                break;
              }
            }
            if (step % 50 == 49) {
                // Flush a copy so the run itself keeps its frame.
                DenseBackend peek(n);
                peek.assign(*lazy);
                EXPECT_LE(distanceUpToPhase(peek.state(), eager), 1e-12)
                    << label;
            }
        }
        EXPECT_LE(distanceUpToPhase(lazy->state(), eager), 1e-12)
            << "seed " << seed;
    }
    // Both damping branches, both sides of the no-read threshold, the
    // long idles, the fork and batches mixing Z-type and X/Y strings
    // were exercised.
    EXPECT_GT(jumps, 10);
    EXPECT_GT(stays, 10);
    EXPECT_GT(below, 200);
    EXPECT_GT(above, 200);
    EXPECT_GT(idles, 20);
    EXPECT_GT(forks, 10);
    EXPECT_GT(mixed, 50);
}

} // namespace
} // namespace casq
