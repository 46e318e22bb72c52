/**
 * @file
 * Command-line compiler driver: build a synthetic workload, compile
 * it under a named strategy, and report the pipeline's per-pass
 * timings and schedule statistics.
 *
 *   $ ./casq_compile --strategy ca-dd --qubits 8 --depth 16
 *   $ ./casq_compile --list-strategies
 *   $ ./casq_compile --strategy ca-ec+dd --dump
 *   $ ./casq_compile --ensemble 100 --threads 4
 *   $ ./casq_compile --ensemble 16 --simulate --traj 400 --threads 4
 *
 * Demonstrates the composable pass API end to end: strategy names
 * parse via strategyFromName(), buildPipeline() assembles the pass
 * list, and PassManager::compile() returns the CompilationResult
 * whose metrics and artifacts are printed below.  With --ensemble,
 * PassManager::runEnsemble() compiles the twirled instances on
 * --threads workers and the wall-time report shows the parallel
 * throughput (the schedules are identical for every thread count).
 * Adding --simulate hands the ensemble to SimulationEngine's fused
 * compile->simulate path instead: instances stream straight into
 * Monte-Carlo trajectories on one pool and the <Z_q> estimates are
 * printed with the end-to-end throughput (bit-identical for every
 * thread count).
 */

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include <chrono>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "passes/builtin.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

using namespace casq;

namespace {

struct CliOptions
{
    Strategy strategy = Strategy::CaDd;
    std::size_t qubits = 8;
    int depth = 16;
    std::uint64_t seed = 2024;
    int ensemble = 0;     //!< 0 = single-instance compile
    unsigned threads = 1; //!< ensemble workers (0 = one per core)
    bool simulate = false; //!< fused compile->simulate run
    int trajectories = 400; //!< Monte-Carlo budget for --simulate

    /**
     * Simulation substrate for --simulate.  Auto is safe as the
     * default: the standard noise model is non-Clifford, so paper
     * workloads resolve to the dense path bit-identically, while
     * Clifford workloads (--noise pauli/ideal) pick up the
     * stabilizer tableau and scale past the 24-qubit dense limit.
     */
    SimBackendKind simBackend = SimBackendKind::Auto;

    /**
     * Trajectory prefix-state checkpoint reuse for --simulate.
     * Auto vs off never changes any result bit (CI diffs the two
     * in hexfloat), so auto is always safe.
     */
    PrefixStateMode prefixState = PrefixStateMode::Auto;
    std::string noise = "standard"; //!< noise recipe (docs/noise.md)
    bool twirl = true;
    double caecMinAngle = -1.0; //!< < 0 = CaecOptions default
    bool lowerToNative = false;
    bool analyzeIdle = false;
    bool dump = false;
    bool hexfloat = false; //!< bit-exact --simulate estimates
};

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --strategy NAME   suppression strategy (default ca-dd)\n"
        << "  --qubits N        chain length (default 8)\n"
        << "  --depth D         ECR/idle layer pairs (default 16)\n"
        << "  --seed S          twirl sampling seed (default 2024)\n"
        << "  --ensemble M      compile M twirled instances and\n"
        << "                    report the ensemble wall time\n"
        << "  --threads N       ensemble-compilation workers\n"
        << "                    (default 1; 0 = one per core)\n"
        << "  --simulate        stream the ensemble through the\n"
        << "                    fused compile->simulate engine and\n"
        << "                    report <Z_q> with throughput\n"
        << "  --traj N          trajectories for --simulate\n"
        << "                    (default 400)\n"
        << "  --backend B       simulation substrate for --simulate:\n"
        << "                    auto|dense|stabilizer (default auto;\n"
        << "                    see docs/backends.md)\n"
        << "  --prefix-state M  trajectory prefix-state checkpoint\n"
        << "                    reuse for --simulate: auto|off\n"
        << "                    (default auto; bit-identical)\n"
        << "  --noise M         noise recipe for --simulate:\n"
        << "                    base[:scale] of standard|pauli|\n"
        << "                    ideal|coherent plus +corr[:sig[:len]]\n"
        << "                    and +drift[:rate] extras (default\n"
        << "                    standard; pauli keeps twirled\n"
        << "                    circuits Clifford; docs/noise.md)\n"
        << "  --no-twirl        disable Pauli twirling\n"
        << "  --caec-min-angle R  drop CA-EC compensations smaller\n"
        << "                    than R radians (default "
        << CaecOptions{}.minAngle << ")\n"
        << "  --hexfloat        print --simulate estimates as\n"
        << "                    bit-exact hexfloat (diffable)\n"
        << "  --native          lower to the native gate set\n"
        << "  --analyze-idle    report residual idle windows of at\n"
        << "                    least Dmin = " << kMinIdleNs
        << " ns after\n"
        << "                    compilation (grafts an analysis pass)\n"
        << "  --dump            print the full schedule\n"
        << "  --verbose         per-pass debug logging\n"
        << "  --list-strategies print known strategy names\n";
}

/** Alternating ECR / idle layers on a chain (cf. perf_passes). */
LayeredCircuit
syntheticWorkload(std::size_t n, int depth)
{
    return bench::syntheticChainWorkload(n, depth,
                                         /*idle_layers=*/true);
}

int
compileMain(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strcmp(argv[i], "--list-strategies") == 0) {
            for (Strategy s : allStrategies())
                std::cout << strategyName(s) << "\n";
            return 0;
        } else if (std::strcmp(argv[i], "--no-twirl") == 0) {
            cli.twirl = false;
        } else if (std::strcmp(argv[i], "--hexfloat") == 0) {
            cli.hexfloat = true;
        } else if (std::strcmp(argv[i], "--native") == 0) {
            cli.lowerToNative = true;
        } else if (std::strcmp(argv[i], "--simulate") == 0) {
            cli.simulate = true;
        } else if (std::strcmp(argv[i], "--analyze-idle") == 0) {
            cli.analyzeIdle = true;
        } else if (std::strcmp(argv[i], "--dump") == 0) {
            cli.dump = true;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            setLogLevel(LogLevel::Debug);
        } else if (const char *v = value("--strategy")) {
            const auto parsed = strategyFromName(v);
            if (!parsed) {
                std::cerr << "unknown strategy '" << v
                          << "'; try --list-strategies\n";
                return 1;
            }
            cli.strategy = *parsed;
        } else if (const char *v = value("--qubits")) {
            cli.qubits = std::size_t(
                bench::checkedInt("--qubits", v, 1, 1 << 20));
        } else if (const char *v = value("--depth")) {
            cli.depth = int(bench::checkedInt(
                "--depth", v, 0,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--caec-min-angle")) {
            cli.caecMinAngle =
                bench::checkedPositiveDouble("--caec-min-angle", v);
        } else if (const char *v = value("--seed")) {
            cli.seed = bench::checkedUInt64("--seed", v);
        } else if (const char *v = value("--ensemble")) {
            cli.ensemble = int(bench::checkedInt(
                "--ensemble", v, 0,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--backend")) {
            const auto parsed = simBackendKindFromName(v);
            if (!parsed) {
                std::cerr << "unknown backend '" << v
                          << "'; expected auto, dense or "
                             "stabilizer\n";
                return 1;
            }
            cli.simBackend = *parsed;
        } else if (const char *v = value("--prefix-state")) {
            const auto parsed = prefixStateModeFromName(v);
            if (!parsed) {
                std::cerr << "unknown prefix-state mode '" << v
                          << "'; expected auto or off\n";
                return 1;
            }
            cli.prefixState = *parsed;
        } else if (const char *v = value("--noise")) {
            cli.noise = v;
            try {
                noiseModelFromRecipe(cli.noise);
            } catch (const SerializeError &err) {
                std::cerr << "bad noise recipe '" << v
                          << "': " << err.what() << "\n";
                return 1;
            }
        } else if (const char *v = value("--traj")) {
            cli.trajectories = int(bench::checkedInt(
                "--traj", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--threads")) {
            cli.threads = unsigned(
                bench::checkedInt("--threads", v, 0, 4096));
        } else {
            std::cerr << "unknown argument '" << argv[i] << "'\n";
            usage(argv[0]);
            return 1;
        }
    }

    const Backend backend = makeFakeLinear(cli.qubits, 7);
    const LayeredCircuit logical =
        syntheticWorkload(cli.qubits, cli.depth);

    CompileOptions options;
    options.strategy = cli.strategy;
    options.twirl = cli.twirl;
    options.lowerToNative = cli.lowerToNative;
    if (cli.caecMinAngle >= 0.0)
        options.caec.minAngle = cli.caecMinAngle;

    const bool uses_caec = cli.strategy == Strategy::Ec ||
                           cli.strategy == Strategy::EcAlignedDd ||
                           cli.strategy == Strategy::Combined;
    PassManager pipeline = buildPipeline(options);
    if (cli.analyzeIdle)
        pipeline.emplace<IdleAnalysisPass>();
    std::cout << "strategy: " << strategyName(cli.strategy)
              << "\npipeline:";
    for (const std::string &name : pipeline.passNames())
        std::cout << " " << name;
    std::cout << "\n";
    if (uses_caec)
        std::cout << "ca-ec options: min angle "
                  << options.caec.minAngle << " rad\n";
    std::cout << "\n";

    if (cli.simulate) {
        // Fused compile->simulate: instances stream out of the
        // pipeline straight into their trajectory share on one
        // pool -- no schedule vector in between (which is also why
        // there is nothing for --dump to print here).
        if (cli.dump)
            std::cout << "(--dump ignored with --simulate: the "
                         "fused path materializes no schedule)\n";
        const NoiseModel noise = noiseModelFromRecipe(cli.noise);
        SimulationEngine engine(backend, noise);
        std::vector<PauliString> obs;
        for (std::uint32_t q = 0; q < cli.qubits; ++q)
            obs.push_back(PauliString::single(cli.qubits, q,
                                              PauliOp::Z));
        EnsembleRunOptions run;
        run.instances = std::max(1, cli.ensemble);
        run.compileSeed = cli.seed;
        run.trajectories = cli.trajectories;
        run.seed = cli.seed;
        run.threads = int(cli.threads);
        run.backend = cli.simBackend;
        run.prefixState = cli.prefixState;
        // A deterministic pipeline compiles a single instance no
        // matter what --ensemble asked for.
        const int instances =
            pipeline.stochastic() ? run.instances : 1;
        const auto begin = std::chrono::steady_clock::now();
        const RunResult result =
            engine.runEnsemble(logical, pipeline, obs, run);
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begin)
                .count();
        std::cout << "fused ensemble: " << instances
                  << " instances, " << result.trajectories
                  << " trajectories on " << cli.threads
                  << " thread" << (cli.threads == 1 ? "" : "s")
                  << (cli.threads == 0 ? " (all cores)" : "")
                  << "\n"
                  << std::fixed << std::setprecision(3)
                  << "wall time: " << wall_ms << " ms ("
                  << std::setprecision(1)
                  << 1e3 * double(result.trajectories) / wall_ms
                  << " trajectories/s)\n"
                  << "backend: "
                  << simBackendKindName(cli.simBackend) << " ("
                  << result.stabilizerTrajectories << " of "
                  << result.trajectories
                  << " trajectories on the stabilizer tableau, "
                  << (result.trajectories -
                      result.stabilizerTrajectories)
                  << " dense)\n"
                  << "prefix state: "
                  << prefixStateModeName(cli.prefixState) << " ("
                  << result.prefixStateHits << " of "
                  << result.trajectories
                  << " trajectories forked from a checkpoint)\n"
                  << "dense sweeps: " << result.denseSweeps << " ("
                  << std::setprecision(1)
                  << double(result.denseSweeps) /
                         double(result.trajectories)
                  << " per trajectory)\n";
        // Hexfloat estimates are bit-exact, so runs that must agree
        // (any thread count) diff clean against a committed capture;
        // CI gates the estimates exactly that way.
        if (cli.hexfloat)
            std::cout << std::hexfloat;
        else
            std::cout << std::setprecision(6);
        for (std::uint32_t q = 0; q < cli.qubits; ++q)
            std::cout << "<Z_" << q << "> = " << result.means[q]
                      << " +- " << result.stderrs[q] << "\n";
        return 0;
    }

    if (cli.ensemble > 0) {
        EnsembleOptions ensemble;
        ensemble.instances = cli.ensemble;
        ensemble.seed = cli.seed;
        ensemble.threads = cli.threads;
        const EnsembleResult result =
            pipeline.runEnsemble(logical, backend, ensemble);

        const std::size_t count = result.instances.size();
        std::cout << "ensemble: " << count << " instance"
                  << (count == 1 ? "" : "s") << " on "
                  << cli.threads << " thread"
                  << (cli.threads == 1 ? "" : "s")
                  << (cli.threads == 0 ? " (all cores)" : "")
                  << "\n";
        if (result.prefixLength > 0)
            std::cout << "prefix cache: " << result.prefixLength
                      << " deterministic pass"
                      << (result.prefixLength == 1 ? "" : "es")
                      << " compiled once, served "
                      << result.prefixHits << " instance"
                      << (result.prefixHits == 1 ? "" : "s")
                      << " from the snapshot\n";
        double pass_millis = 0.0;
        for (const CompilationResult &instance : result.instances)
            pass_millis += instance.totalMillis();
        std::cout << std::fixed << std::setprecision(3)
                  << "wall time: " << result.wallMillis << " ms ("
                  << std::setprecision(1)
                  << 1e3 * double(count) / result.wallMillis
                  << " instances/s; " << std::setprecision(3)
                  << result.wallMillis / double(count)
                  << " ms/instance)\n"
                  << "aggregate pass time: " << pass_millis
                  << " ms\n";
        const ScheduledCircuit &first =
            result.instances.front().scheduled;
        std::cout << "schedule: " << first.instructions().size()
                  << " instructions, " << first.totalDuration()
                  << " ns (instance 0)\n";
        if (cli.dump)
            std::cout << "\n" << first.toString();
        return 0;
    }

    Rng rng(cli.seed);
    const CompilationResult result =
        pipeline.compile(logical, backend, rng);

    std::cout << "pass timings:\n";
    for (const PassMetric &metric : result.metrics)
        std::cout << "  " << std::left << std::setw(22)
                  << metric.name << std::fixed
                  << std::setprecision(3) << metric.millis
                  << " ms\n";
    std::cout << "  " << std::left << std::setw(22) << "total"
              << std::fixed << std::setprecision(3)
              << result.totalMillis() << " ms\n\n";

    const ScheduledCircuit &sched = result.scheduled;
    std::cout << "schedule: " << sched.instructions().size()
              << " instructions, " << sched.totalDuration()
              << " ns\n";
    const PassArtifacts &artifacts = result.artifacts;
    if (artifacts.twirlGates)
        std::cout << "twirl gates inserted: " << *artifacts.twirlGates
                  << "\n";
    if (artifacts.idleWindows)
        std::cout << "residual idle windows >= Dmin: "
                  << artifacts.idleWindows->size() << "\n";
    if (artifacts.ddPulses)
        std::cout << "DD pulses inserted: " << *artifacts.ddPulses
                  << "\n";
    if (const auto &stats = artifacts.caecStats)
        std::cout << "CA-EC: " << stats->absorbedIntoGates
                  << " absorbed, " << stats->insertedRz << " rz, "
                  << stats->insertedRzz << " rzz\n";

    if (cli.dump)
        std::cout << "\n" << sched.toString();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A request the library cannot run (a forced tableau on a
    // non-Clifford circuit, say) is a diagnostic, not a crash.
    try {
        return compileMain(argc, argv);
    } catch (const UserError &err) {
        std::cerr << "casq_compile: " << err.what() << "\n";
        return 1;
    }
}
