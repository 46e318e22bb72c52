/**
 * @file
 * Trajectory-execution throughput: serial vs. pooled vs.
 * cached-variant (SimulationEngine), plus the prefix-state reuse
 * A/B and the dense-kernel microbench.
 *
 * Engine configurations bounding the design space:
 *
 *  - "serial": one inline worker, cold variant cache -- the
 *    baseline the pre-engine executor realized with thread chunks.
 *
 *  - "pooled": the work-stealing pool at each --threads-list count,
 *    cold cache; all scaling comes from trajectory parallelism.
 *
 *  - "cached": pooled again on a warm variant cache, the repeated
 *    observable-batch / sweep-revisit workload where CompiledVariant
 *    construction (timeline + segment noise plans + instruction
 *    unitaries) amortizes to zero.
 *
 *  - "prefix-off"/"prefix-on": the same ensemble under the
 *    coherent-only noise model, where every segment plan is
 *    deterministic and the whole timeline is one reusable prefix.
 *    The pair is byte-compared (prefix reuse must never move a
 *    bit), the hit counters are checked, and the on/off speedup is
 *    a hard gate at >= 1.5x.
 *
 *  - "kern-*": the specialized statevector kernels against
 *    straightforward per-amplitude reference loops, cross-checked
 *    elementwise before timing.
 *
 * Every engine configuration's RunResult (means AND stderrs) is
 * byte-compared against its reference before its timing is
 * reported -- a wrong parallel or cached result fails the bench, so
 * CI timing runs double as a correctness gate on the engine's
 * thread-count-invariance contract.  Use --json FILE to append the
 * numbers to the BENCH_*.json trajectory; engine samples also carry
 * their exact work counters (RunResult::denseSweeps,
 * prefixStateHits and stabilizerTrajectories) as dense_sweeps,
 * prefix_state_hits and stabilizer_trajectories, which
 * scripts/bench_compare.py gates for equality.
 *
 *   $ ./perf_executor --traj 2000 --threads-list 1,2,4,8
 *   $ ./perf_executor --json BENCH_perf_executor.json
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "circuit/unitary.hh"
#include "common/rng.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "sim/statevector.hh"

using namespace casq;

namespace {

struct PerfOptions
{
    int trajectories = 2000;
    int instances = 8;
    std::size_t qubits = 8;
    int depth = 12;
    std::uint64_t seed = 2024;
    std::vector<unsigned> threadsList{1, 2, 4, 8};
    std::string jsonPath;
};

/** One measured configuration. */
struct Sample
{
    std::string config;
    unsigned threads = 1;
    bool cached = false;
    double wallMillis = 0.0;
    int trajectories = 0;
    /**
     * Exact work counters of an engine run: RunResult::denseSweeps,
     * prefixStateHits and stabilizerTrajectories.
     */
    std::optional<std::uint64_t> denseSweeps;
    std::optional<std::uint64_t> prefixStateHits;
    std::optional<std::uint64_t> stabilizerTrajectories;

    /** Copy the counters of an engine run. */
    void
    countersOf(const RunResult &result)
    {
        denseSweeps = result.denseSweeps;
        prefixStateHits = result.prefixStateHits;
        stabilizerTrajectories =
            std::uint64_t(result.stabilizerTrajectories);
    }

    double
    trajectoriesPerSecond() const
    {
        return wallMillis > 0.0
                   ? 1e3 * double(trajectories) / wallMillis
                   : 0.0;
    }
};

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --traj N          trajectory budget (default 2000)\n"
        << "  --instances N     twirled variants (default 8)\n"
        << "  --qubits N        chain length (default 8)\n"
        << "  --depth D         layer pairs (default 12)\n"
        << "  --seed S          master seed (default 2024)\n"
        << "  --threads-list L  comma-separated thread counts\n"
        << "                    (default 1,2,4,8)\n"
        << "  --json FILE       write machine-readable results\n";
}

PerfOptions
parse(int argc, char **argv)
{
    PerfOptions options;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            std::exit(0);
        } else if (const char *v = value("--traj")) {
            options.trajectories = int(bench::checkedInt(
                "--traj", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--instances")) {
            options.instances = int(bench::checkedInt(
                "--instances", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--qubits")) {
            options.qubits = std::size_t(
                bench::checkedInt("--qubits", v, 1, 1 << 20));
        } else if (const char *v = value("--depth")) {
            options.depth = int(bench::checkedInt(
                "--depth", v, 0,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--seed")) {
            options.seed = bench::checkedUInt64("--seed", v);
        } else if (const char *v = value("--threads-list")) {
            options.threadsList.clear();
            for (long long t : bench::checkedIntList(
                     "--threads-list", v, 0, 4096))
                options.threadsList.push_back(unsigned(t));
        } else if (const char *v = value("--json")) {
            options.jsonPath = v;
        } else {
            std::cerr << "unknown argument '" << argv[i] << "'\n";
            usage(argv[0]);
            std::exit(1);
        }
    }
    return options;
}

double
wallMillisSince(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/** Hard gate: a diverging configuration fails the bench. */
void
requireByteIdentical(const RunResult &actual,
                     const RunResult &expected,
                     const std::string &config, unsigned threads)
{
    const bool same =
        actual.trajectories == expected.trajectories &&
        actual.means == expected.means &&
        actual.stderrs == expected.stderrs;
    if (!same) {
        std::cerr << "FAIL: " << config << " threads=" << threads
                  << " diverged from the reference "
                     "observable estimates\n";
        std::exit(1);
    }
}

// ------------------------------------------- kernel microbench

/** Random normalized state, deterministic in the rng stream. */
void
fillRandom(Statevector &sv, Rng &rng)
{
    double nrm = 0.0;
    for (std::size_t i = 0; i < sv.size(); ++i) {
        sv.amp(i) = Complex(rng.uniform(-1.0, 1.0),
                            rng.uniform(-1.0, 1.0));
        nrm += std::norm(sv.amp(i));
    }
    const double inv = 1.0 / std::sqrt(nrm);
    for (std::size_t i = 0; i < sv.size(); ++i)
        sv.amp(i) *= inv;
}

/** Mask-skip 1q reference: visit every index, skip the high half. */
void
refGate1q(Statevector &sv, const CMat &u, std::uint32_t q)
{
    const std::size_t mask = std::size_t(1) << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    for (std::size_t i = 0; i < sv.size(); ++i) {
        if (i & mask)
            continue;
        const Complex a = sv.amp(i);
        const Complex b = sv.amp(i | mask);
        sv.amp(i) = u00 * a + u01 * b;
        sv.amp(i | mask) = u10 * a + u11 * b;
    }
}

/** Mask-skip 2q reference (same row convention as the kernel). */
void
refGate2q(Statevector &sv, const CMat &u, std::uint32_t q0,
          std::uint32_t q1)
{
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    for (std::size_t i = 0; i < sv.size(); ++i) {
        if (i & (m0 | m1))
            continue;
        const std::size_t i1 = i | m0;
        const std::size_t i2 = i | m1;
        const std::size_t i3 = i | m0 | m1;
        const Complex v0 = sv.amp(i), v1 = sv.amp(i1);
        const Complex v2 = sv.amp(i2), v3 = sv.amp(i3);
        sv.amp(i) = u(0, 0) * v0 + u(0, 1) * v1 + u(0, 2) * v2 +
                    u(0, 3) * v3;
        sv.amp(i1) = u(1, 0) * v0 + u(1, 1) * v1 + u(1, 2) * v2 +
                     u(1, 3) * v3;
        sv.amp(i2) = u(2, 0) * v0 + u(2, 1) * v1 + u(2, 2) * v2 +
                     u(2, 3) * v3;
        sv.amp(i3) = u(3, 0) * v0 + u(3, 1) * v1 + u(3, 2) * v2 +
                     u(3, 3) * v3;
    }
}

/**
 * Per-amplitude trig reference for the fused phase kernel: sum the
 * signed half-angles at each index, then one cos/sin.  This is the
 * shape the phase-doubling factor table replaced.
 */
void
refPhases(Statevector &sv, const std::vector<QubitAngle> &zs,
          const std::vector<PairAngle> &zzs)
{
    for (std::size_t i = 0; i < sv.size(); ++i) {
        double acc = 0.0;
        for (const QubitAngle &z : zs) {
            acc += ((i >> z.qubit) & 1) ? z.theta * 0.5
                                        : -z.theta * 0.5;
        }
        for (const PairAngle &p : zzs) {
            const bool odd = ((i >> p.q0) ^ (i >> p.q1)) & 1;
            acc += odd ? p.theta * 0.5 : -p.theta * 0.5;
        }
        sv.amp(i) *= Complex(std::cos(acc), std::sin(acc));
    }
}

/**
 * Elementwise agreement gate for the kernel microbench.  1e-12, not
 * byte-identity: the gate kernels are algebraically identical to
 * their references, but the reference lives in another translation
 * unit and FMA contraction may perturb the last bit; the trig
 * references differ by rounding only.
 */
void
requireKernelAgreement(const Statevector &actual,
                       const Statevector &expected,
                       const char *kernel)
{
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const Complex d =
            actual.amplitudes()[i] - expected.amplitudes()[i];
        if (std::abs(d.real()) > 1e-12 ||
            std::abs(d.imag()) > 1e-12) {
            std::cerr << "FAIL: kernel '" << kernel
                      << "' diverged from its reference at "
                         "amplitude "
                      << i << "\n";
            std::exit(1);
        }
    }
}

/** The same gate for kernels that read: outputs within 1e-12. */
void
requireReadAgreement(const std::vector<double> &actual,
                     const std::vector<double> &expected,
                     const char *kernel)
{
    for (std::size_t k = 0; k < actual.size(); ++k) {
        if (std::abs(actual[k] - expected[k]) > 1e-12) {
            std::cerr << "FAIL: kernel '" << kernel
                      << "' diverged from its reference at output "
                      << k << "\n";
            std::exit(1);
        }
    }
}

void
report(const std::vector<Sample> &samples, double serial_ms)
{
    std::cout << std::left << std::setw(10) << "config"
              << std::right << std::setw(8) << "threads"
              << std::setw(8) << "cached" << std::setw(12)
              << "wall ms" << std::setw(12) << "traj/s"
              << std::setw(10) << "speedup" << "\n";
    for (const Sample &s : samples)
        std::cout << std::left << std::setw(10) << s.config
                  << std::right << std::setw(8) << s.threads
                  << std::setw(8) << (s.cached ? "yes" : "no")
                  << std::setw(12) << std::fixed
                  << std::setprecision(2) << s.wallMillis
                  << std::setw(12) << std::setprecision(0)
                  << s.trajectoriesPerSecond() << std::setw(10)
                  << std::setprecision(2)
                  << (s.wallMillis > 0.0 ? serial_ms / s.wallMillis
                                         : 0.0)
                  << "\n";
    std::cout << "\n";
}

void
writeJson(const std::string &path,
          const std::vector<Sample> &samples,
          const PerfOptions &options)
{
    bench::BenchJsonWriter json("perf_executor");
    json.meta()
        .add("qubits", options.qubits)
        .add("depth", options.depth)
        .add("instances", options.instances)
        .add("trajectories", options.trajectories);
    for (const Sample &s : samples) {
        auto &fields =
            json.newSample()
                .add("config", s.config)
                .add("threads", s.threads)
                .add("cached", s.cached)
                .add("wall_ms", s.wallMillis, 3)
                .add("trajectories_per_s", s.trajectoriesPerSecond(), 1);
        if (s.denseSweeps)
            fields.add("dense_sweeps", *s.denseSweeps);
        if (s.prefixStateHits)
            fields.add("prefix_state_hits", *s.prefixStateHits);
        if (s.stabilizerTrajectories)
            fields.add("stabilizer_trajectories",
                       *s.stabilizerTrajectories);
    }
    json.write(path);
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfOptions options = parse(argc, argv);
    Backend backend = makeFakeLinear(options.qubits, 7);
    for (const auto &edge : backend.coupling().edges())
        backend.pair(edge.a, edge.b).zzRateMHz = 0.06;
    const LayeredCircuit logical = bench::syntheticChainWorkload(
        options.qubits, options.depth, /*idle_layers=*/true);
    const NoiseModel noise = NoiseModel::standard();

    // The paper's dominant workload shape: a twirled CA-DD ensemble
    // with one observable per qubit.
    CompileOptions compile;
    compile.strategy = Strategy::CaDd;
    compile.twirl = true;
    const auto variants =
        compileEnsemble(logical, backend, compile,
                        options.instances, options.seed);
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < options.qubits; ++q)
        obs.push_back(
            PauliString::single(options.qubits, q, PauliOp::Z));

    ExecutionOptions exec;
    exec.trajectories = options.trajectories;
    exec.seed = options.seed;

    std::vector<Sample> all;

    // ---------------------------------------------------- serial
    SimulationEngine serial_engine(backend, noise);
    exec.threads = 1;
    exec.cacheVariants = false;
    auto begin = std::chrono::steady_clock::now();
    const RunResult reference =
        serial_engine.run(variants, obs, exec);
    Sample serial;
    serial.config = "serial";
    serial.wallMillis = wallMillisSince(begin);
    serial.trajectories = reference.trajectories;
    serial.countersOf(reference);
    all.push_back(serial);

    // ---------------------------------------------------- pooled
    // Fresh engine per thread count: cold cache, cold pool, so the
    // sample measures pure trajectory parallelism.
    for (unsigned threads : options.threadsList) {
        if (threads <= 1)
            continue;
        SimulationEngine engine(backend, noise);
        exec.threads = int(threads);
        exec.cacheVariants = false;
        begin = std::chrono::steady_clock::now();
        const RunResult result = engine.run(variants, obs, exec);
        Sample s;
        s.config = "pooled";
        s.threads = threads;
        s.wallMillis = wallMillisSince(begin);
        s.trajectories = result.trajectories;
        s.countersOf(result);
        requireByteIdentical(result, reference, s.config, threads);
        all.push_back(s);
    }

    // ---------------------------------------------------- cached
    // Warm the variant cache, then measure the revisit workload
    // (same schedules, e.g. the next observable batch) at the
    // largest thread count.
    {
        SimulationEngine engine(backend, noise);
        const unsigned threads = options.threadsList.empty()
                                     ? 1
                                     : options.threadsList.back();
        exec.threads = int(threads);
        exec.cacheVariants = true;
        (void)engine.run(variants, obs, exec); // warm-up
        begin = std::chrono::steady_clock::now();
        const RunResult result = engine.run(variants, obs, exec);
        Sample s;
        s.config = "cached";
        s.threads = threads;
        s.cached = true;
        s.wallMillis = wallMillisSince(begin);
        s.trajectories = result.trajectories;
        s.countersOf(result);
        requireByteIdentical(result, reference, s.config, threads);
        if (engine.variantCacheHits() <
            std::size_t(options.instances)) {
            std::cerr << "FAIL: cached configuration missed the "
                         "variant cache\n";
            return 1;
        }
        all.push_back(s);
    }

    report(all, serial.wallMillis);
    std::vector<Sample> extra;

    // ---------------------------------------------------- prefix
    // Prefix-state reuse measured where it matters: under the
    // coherent-only noise model every segment plan is deterministic,
    // so the whole timeline is one reusable prefix and a trajectory
    // reduces to a checkpoint fork plus observable evaluation.  The
    // off/on pair must agree byte for byte, the hit counters must
    // match the eligibility analysis exactly, and the speedup is a
    // hard gate at the engine's >= 1.5x reuse target.
    {
        const NoiseModel coherent = NoiseModel::coherentOnly();
        const unsigned threads = options.threadsList.empty()
                                     ? 1
                                     : options.threadsList.back();
        ExecutionOptions pexec = exec;
        pexec.threads = int(threads);
        pexec.cacheVariants = true;

        SimulationEngine off_engine(backend, coherent);
        pexec.prefixState = PrefixStateMode::Off;
        (void)off_engine.run(variants, obs, pexec); // warm cache
        begin = std::chrono::steady_clock::now();
        const RunResult off = off_engine.run(variants, obs, pexec);
        Sample s_off;
        s_off.config = "prefix-off";
        s_off.threads = threads;
        s_off.cached = true;
        s_off.wallMillis = wallMillisSince(begin);
        s_off.trajectories = off.trajectories;
        s_off.countersOf(off);

        SimulationEngine on_engine(backend, coherent);
        pexec.prefixState = PrefixStateMode::Auto;
        // Warm-up builds the variant cache AND the checkpoints.
        (void)on_engine.run(variants, obs, pexec);
        begin = std::chrono::steady_clock::now();
        const RunResult on = on_engine.run(variants, obs, pexec);
        Sample s_on;
        s_on.config = "prefix-on";
        s_on.threads = threads;
        s_on.cached = true;
        s_on.wallMillis = wallMillisSince(begin);
        s_on.trajectories = on.trajectories;
        s_on.countersOf(on);

        requireByteIdentical(on, off, s_on.config, threads);
        if (off.prefixStateHits != 0 ||
            on.prefixStateHits != std::uint64_t(on.trajectories)) {
            std::cerr << "FAIL: prefix-state hit counters (off="
                      << off.prefixStateHits << ", on="
                      << on.prefixStateHits << " of "
                      << on.trajectories
                      << ") contradict the coherent-only "
                         "eligibility analysis\n";
            return 1;
        }
        const double speedup =
            s_on.wallMillis > 0.0
                ? s_off.wallMillis / s_on.wallMillis
                : 0.0;
        std::cout << "prefix-state reuse (coherent-only noise, "
                  << "threads=" << threads << "): off "
                  << std::fixed << std::setprecision(2)
                  << s_off.wallMillis << " ms, on "
                  << s_on.wallMillis << " ms, speedup "
                  << speedup << " (target >= 1.50)\n\n";
        if (speedup < 1.5) {
            std::cerr << "FAIL: prefix-state reuse speedup "
                      << speedup << " below the 1.5x target\n";
            return 1;
        }
        extra.push_back(s_off);
        extra.push_back(s_on);
    }

    // ------------------------------------------ kernel microbench
    // The specialized dense kernels vs. the per-amplitude reference
    // loops they replaced, on a random 12-qubit state: kern-2q-coupled
    // is a fold with its coupling terms against the phase pass and
    // the gate, kern-zreads the batched Z read against one read per
    // string.  Agreement is gated elementwise before any timing;
    // reps rotate the target qubits so no single stride pattern
    // dominates.
    {
        constexpr std::size_t kq = 12;
        constexpr int reps = 256;
        const CMat u1 = gateUnitary(Op::SX);
        const CMat u2 = gateUnitary(Op::ECR);
        std::vector<QubitAngle> zs;
        std::vector<PairAngle> zzs;
        for (std::uint32_t q = 0; q < kq; ++q)
            zs.push_back({q, 0.01 * double(q + 1)});
        for (std::uint32_t q = 0; q + 1 < kq; ++q)
            zzs.push_back({q, q + 1, 0.005 * double(q + 1)});

        // The coupling terms a fold on (q0, q0 + 1) carries: its
        // qubits' Rzz terms to both outside neighbours.
        std::vector<std::vector<PairAngle>> coupling(kq);
        for (std::uint32_t q0 = 0; q0 < kq; ++q0) {
            const std::uint32_t q1 = (q0 + 1) % kq;
            coupling[q0] = {
                {q0, std::uint32_t((q0 + kq - 1) % kq), 0.0125},
                {q1, std::uint32_t((q1 + 1) % kq), -0.0175}};
        }
        // Every Z_q and neighbour Z_q Z_q+1, read in one batch
        // against one expectation() per string; reads leave the
        // state alone, so their outputs are compared as well.
        std::vector<std::uint64_t> zmasks;
        std::vector<PauliString> zstrings;
        for (std::uint32_t q = 0; q < kq; ++q) {
            zmasks.push_back(std::uint64_t(1) << q);
            zstrings.push_back(PauliString::single(kq, q, PauliOp::Z));
        }
        for (std::uint32_t q = 0; q + 1 < kq; ++q) {
            zmasks.push_back(std::uint64_t(3) << q);
            zstrings.push_back(PauliString::two(kq, q, PauliOp::Z,
                                                q + 1, PauliOp::Z));
        }
        std::vector<double> zfast(zmasks.size()), zref(zmasks.size());

        struct Kernel
        {
            const char *name;
            std::function<void(Statevector &, int)> fast;
            std::function<void(Statevector &, int)> ref;
            const std::vector<double> *fastOut = nullptr;
            const std::vector<double> *refOut = nullptr;
        };
        const std::vector<Kernel> kernels = {
            {"kern-1q",
             [&](Statevector &sv, int r) {
                 sv.applyGate1q(u1, std::uint32_t(r) % kq);
             },
             [&](Statevector &sv, int r) {
                 refGate1q(sv, u1, std::uint32_t(r) % kq);
             }},
            {"kern-2q",
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 sv.applyGate2q(u2, q0, (q0 + 1) % kq);
             },
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 refGate2q(sv, u2, q0, (q0 + 1) % kq);
             }},
            {"kern-2q-coupled",
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 sv.applyGate2q(u2, q0, (q0 + 1) % kq, coupling[q0]);
             },
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 refPhases(sv, {}, coupling[q0]);
                 refGate2q(sv, u2, q0, (q0 + 1) % kq);
             }},
            {"kern-zreads",
             [&](Statevector &sv, int) { sv.zExpectations(zmasks, zfast); },
             [&](Statevector &sv, int) {
                 for (std::size_t k = 0; k < zstrings.size(); ++k)
                     zref[k] = sv.expectation(zstrings[k]);
             },
             &zfast, &zref},
            {"kern-phases",
             [&](Statevector &sv, int) { sv.applyPhases(zs, zzs); },
             [&](Statevector &sv, int) { refPhases(sv, zs, zzs); }},
            {"kern-rzz",
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 sv.applyRzz(q0, (q0 + 1) % kq, 0.1375);
             },
             [&](Statevector &sv, int r) {
                 const std::uint32_t q0 = std::uint32_t(r) % kq;
                 refPhases(sv, {},
                           {{q0, std::uint32_t((q0 + 1) % kq),
                             0.1375}});
             }},
        };

        std::cout << "kernel microbench (" << kq << " qubits, "
                  << reps << " reps, per-amplitude reference):\n";
        Rng rng(0xBE9Cull + options.seed);
        for (const Kernel &k : kernels) {
            Statevector fast_sv(kq);
            fillRandom(fast_sv, rng);
            Statevector ref_sv(kq);
            ref_sv.copyFrom(fast_sv);

            // Correctness sweep over every rotated qubit choice.
            for (int r = 0; r < int(kq); ++r) {
                k.fast(fast_sv, r);
                k.ref(ref_sv, r);
            }
            requireKernelAgreement(fast_sv, ref_sv, k.name);
            if (k.fastOut)
                requireReadAgreement(*k.fastOut, *k.refOut, k.name);

            begin = std::chrono::steady_clock::now();
            for (int r = 0; r < reps; ++r)
                k.fast(fast_sv, r);
            const double fast_ms = wallMillisSince(begin);
            begin = std::chrono::steady_clock::now();
            for (int r = 0; r < reps; ++r)
                k.ref(ref_sv, r);
            const double ref_ms = wallMillisSince(begin);

            Sample fast_sample;
            fast_sample.config = k.name;
            fast_sample.wallMillis = fast_ms;
            fast_sample.trajectories = reps;
            Sample ref_sample;
            ref_sample.config = std::string(k.name) + "-ref";
            ref_sample.wallMillis = ref_ms;
            ref_sample.trajectories = reps;
            extra.push_back(fast_sample);
            extra.push_back(ref_sample);

            std::cout << "  " << std::left << std::setw(16)
                      << k.name << std::right << std::fixed
                      << std::setprecision(3) << std::setw(10)
                      << fast_ms << " ms   ref " << std::setw(10)
                      << ref_ms << " ms   speedup "
                      << std::setprecision(2)
                      << (fast_ms > 0.0 ? ref_ms / fast_ms : 0.0)
                      << "\n";
        }
        std::cout << "\n";
    }

    all.insert(all.end(), extra.begin(), extra.end());
    if (!options.jsonPath.empty())
        writeJson(options.jsonPath, all, options);
    return 0;
}
