/**
 * @file
 * casq_bench: one command for the repository's benchmark.
 *
 *   casq_bench --workload compile-dd|estimate-dense|service-clifford
 *              --seed N --seconds S --trace 0|1
 *              [--trace-out FILE] [--corrupt-reference]
 *
 * Untraced (--trace 0): sets the workload up, runs its reference
 * checks, runs a fixed number of jobs for peak_rss_mb, then measures
 * its job loop for S seconds in parts with set-ups before each (the
 * median set-up is setup_s) and memory probes at the parts' edges,
 * and prints the end-to-end metrics scaled by the probes' slowdown
 * against a nominal host.  Traced (--trace 1): measures the loop
 * untraced for S/2 seconds, then the
 * same number of jobs with spans recorded around every layer call,
 * runs the per-layer probes, prints the per-layer metrics and writes
 * the spans as Chrome trace-event JSON to --trace-out.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 * A failed output check makes the exit status 1; bad arguments or an
 * error before any result exit 2 without a result line.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hh"
#include "probes.hh"

using namespace casqbench;

namespace {

constexpr int kParts = 8;         //!< parts of the measured loop
constexpr int kSetupsPerPart = 3; //!< set-ups before each part
constexpr std::uint64_t kMemoryJobs = 8; //!< jobs peak_rss_mb covers
constexpr int kProbeSweeps = 8;   //!< memory probes at each part edge

/**
 * Memory probe time (memoryProbeSeconds) of the host the metrics are
 * normalised to, about the median over many minutes on a 4-vCPU Intel
 * Xeon VM with a 105 MiB L3.  It only sets the scale: a change to it
 * moves every run alike.
 */
constexpr double kNominalProbeS = 0.005;

struct Args
{
    std::string workload;
    WorkloadArgs workloadArgs;
    double seconds = 30.0;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "casq_bench: " << error << "\n"
              << "usage: casq_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--corrupt-reference]\n"
              << "workloads: compile-dd estimate-dense "
                 "service-clifford\n";
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !(v >= lo && v <= hi))
        usage(std::string(flag) + ": bad value '" + text + "'");
    return v;
}

Args
parse(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-reference") {
            args.workloadArgs.corruptReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            if (value[0] == '-')
                usage("--seed: expected a non-negative integer");
            errno = 0;
            char *end = nullptr;
            args.workloadArgs.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0' || errno == ERANGE)
                usage("--seed: expected a non-negative integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = parseNumber("--seconds", value, 0.1, 3600);
        } else if (flag == "--trace") {
            args.trace = parseNumber("--trace", value, 0, 1) != 0.0;
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage("unknown argument '" + flag + "'");
        }
    }
    if (args.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "compile-dd")
        return makeCompileDd(args.workloadArgs);
    if (args.workload == "estimate-dense")
        return makeEstimateDense(args.workloadArgs);
    if (args.workload == "service-clifford")
        return makeServiceClifford(args.workloadArgs);
    usage("unknown workload '" + args.workload + "'");
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

double
timedSetup(Workload &workload)
{
    const auto t0 = Clock::now();
    workload.setup();
    return secondsSince(t0);
}

/** Completion rates of the loop's windows of loop.windowJobs jobs. */
void
appendWindowRates(const LoopStats &loop, std::vector<double> &rates)
{
    double previous = 0.0;
    for (std::size_t end = loop.windowJobs; end <= loop.doneS.size();
         end += loop.windowJobs) {
        const double t = loop.doneS[end - 1];
        if (t > previous)
            rates.push_back(double(loop.windowJobs) / (t - previous));
        previous = t;
    }
}

/** Pool `part` into `whole`; window times stay with the part. */
void
appendLoop(const LoopStats &part, LoopStats &whole)
{
    whole.wallS += part.wallS;
    whole.latencyMs.insert(whole.latencyMs.end(), part.latencyMs.begin(),
                           part.latencyMs.end());
    whole.jobs += part.jobs;
    whole.instances += part.instances;
    whole.trajectories += part.trajectories;
}

/**
 * The end-to-end metrics.  Times and rates are scaled to the nominal
 * host by `slowdown`, the run's median memory probe over
 * kNominalProbeS: a rate measured while the probe ran 20 % slow is
 * reported 20 % higher.
 */
void
addEndToEnd(const LoopStats &loop, const std::vector<double> &rates,
            const std::vector<double> &setup_s, double rss_mb,
            double slowdown, Outcome &outcome)
{
    const double jobs_per_s =
        !rates.empty()     ? median(rates)
        : loop.wallS > 0.0 ? double(loop.jobs) / loop.wallS
                           : 0.0;
    std::printf("  as measured: setup_s %.6f s, jobs_per_s %.6f 1/s, "
                "job_latency_p50_ms %.6f ms; host slowdown %.4f\n",
                median(setup_s), jobs_per_s,
                quantile(loop.latencyMs, 0.5), slowdown);
    outcome.add("setup_s", median(setup_s) / slowdown, "s");
    outcome.add("instances_per_s",
                loop.jobs ? slowdown * jobs_per_s *
                                double(loop.instances) /
                                double(loop.jobs)
                          : 0.0,
                "1/s");
    outcome.add("jobs_per_s", slowdown * jobs_per_s, "1/s");
    outcome.add("job_latency_p50_ms",
                quantile(loop.latencyMs, 0.5) / slowdown, "ms");
    outcome.add("peak_rss_mb", rss_mb, "MiB");
}

void
report(const Args &args, const LoopStats &loop, const Outcome &outcome)
{
    // Shown here rather than as gated metrics: trajectories_per_s
    // and failed_frac read 0 on some workload (compile-dd simulates
    // nothing; a clean run fails nothing) and the result line
    // carries failed and attempted itself; the p90 latency of the
    // serial workloads swings with host noise by more than any
    // bound the gate allows.
    const std::size_t samples = loop.latencyMs.size();
    std::printf("casq_bench %s seed=%llu trace=%d: %llu jobs in %.3f s"
                "\n  trajectories_per_s %.1f 1/s (total / wall), "
                "job_latency_p90_ms %.3f ms (%zu samples, %zu beyond)"
                "\n  failed_frac %.6f (%llu of %llu)\n",
                args.workload.c_str(),
                (unsigned long long)args.workloadArgs.seed,
                int(args.trace), (unsigned long long)loop.jobs,
                loop.wallS,
                loop.wallS > 0.0
                    ? double(loop.trajectories) / loop.wallS
                    : 0.0,
                quantile(loop.latencyMs, 0.9), samples,
                samples - std::size_t(std::ceil(0.9 * double(samples))),
                outcome.attempted
                    ? double(outcome.failed) / double(outcome.attempted)
                    : 0.0,
                (unsigned long long)outcome.failed,
                (unsigned long long)outcome.attempted);
    for (const Metric &m : outcome.metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &failure : outcome.failures)
        std::printf("  FAILED: %s\n", failure.c_str());

    std::string json = "{\"correct\": ";
    json += outcome.failed ? "false" : "true";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric &m = outcome.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

int
run(const Args &args)
{
    std::unique_ptr<Workload> workload = makeWorkload(args);
    std::vector<double> setup_s{timedSetup(*workload)};
    Outcome outcome;
    workload->check(outcome);

    // Peak RSS over a fixed number of jobs, from the resident set the
    // set-ups and checks leave: a figure of the jobs themselves, the
    // same however fast the host runs them (the job service keeps
    // every finished job's record, so a time-bounded loop would not
    // be).
    Tracer quiet(false);
    resetPeakRss();
    workload->run(0.0, kMemoryJobs, quiet, outcome);
    const double rss_mb = peakRssMb();

    LoopStats loop;
    if (!args.trace) {
        // The measured loop runs in parts, each after set-ups of its
        // own, so the set-ups sample the host over the whole run as
        // the loop does, not one moment of it.  One set-up lasts a
        // fraction of a second, over which the host's speed swings by
        // about 20 %; the median of many damps that.  Memory probes at
        // each part's edges measure the host's slower swings, which
        // move every run for minutes and which medians cannot damp.
        std::vector<double> rates, probes;
        auto probe = [&probes] {
            for (int i = 0; i < kProbeSweeps; ++i)
                probes.push_back(memoryProbeSeconds());
        };
        for (int part = 0; part < kParts; ++part) {
            for (int i = 0; i < kSetupsPerPart; ++i)
                setup_s.push_back(timedSetup(*workload));
            probe();
            const LoopStats piece = workload->run(
                args.seconds / kParts, 0, quiet, outcome);
            appendWindowRates(piece, rates);
            appendLoop(piece, loop);
        }
        probe();
        addEndToEnd(loop, rates, setup_s, rss_mb,
                    median(probes) / kNominalProbeS, outcome);
    } else {
        const LoopStats untraced =
            workload->run(0.5 * args.seconds, 0, quiet, outcome);
        Tracer tracer(true);
        loop = workload->run(0.0, untraced.jobs, tracer, outcome);
        workload->layerMetrics(loop, tracer, outcome);
        addSpanMetrics(loop, untraced.wallS, tracer, outcome);
        if (!args.traceOut.empty() &&
            !tracer.writeChromeJson(args.traceOut)) {
            std::cerr << "casq_bench: cannot write " << args.traceOut
                      << "\n";
            return 2;
        }
    }
    report(args, loop, outcome);
    return outcome.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &err) {
        std::cerr << "casq_bench: " << err.what() << "\n";
        return 2;
    }
}
