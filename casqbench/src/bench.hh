/**
 * @file
 * Shared pieces of the casq benchmark: the workload interface, the
 * outcome record (checks + named metrics), seed derivation, the
 * synthetic chain circuit, order statistics and schedule checks.
 */

#ifndef CASQBENCH_BENCH_HH
#define CASQBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "trace.hh"

namespace casqbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `from`. */
inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/** One named metric with its unit, in print order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Checks and metrics of one benchmark run.  Every output check is one
 * attempted operation; a failed check, a failed job and a rejected
 * submission each count as failed.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;

    void check(bool ok, const std::string &what);
    void add(const std::string &name, double value,
             const std::string &unit);
};

/** What one measured loop did. */
struct LoopStats
{
    double wallS = 0.0;
    std::vector<double> latencyMs; //!< one entry per completed job
    std::vector<double> doneS;     //!< completion times since start

    /**
     * Completions per throughput window: jobs_per_s is the median
     * over consecutive windows of windowJobs / window duration, so a
     * burst of host noise moves it less than a plain total would.
     */
    std::size_t windowJobs = 1;

    std::uint64_t jobs = 0;
    std::uint64_t instances = 0;    //!< twirled instances compiled
    std::uint64_t trajectories = 0; //!< trajectories simulated
    double fromUs = 0.0;            //!< tracer clock at loop start
    double toUs = 0.0;              //!< tracer clock at loop end
};

/**
 * One named workload.  main() calls setup(), then check() once, then
 * run() for a fixed number of jobs (peak RSS) and for the measured
 * loop, then layerMetrics() in traced mode.  Untraced, the measured
 * loop runs in parts with set-ups before each; a set-up replaces
 * the previous one's state.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the loop needs and warm it up. */
    virtual void setup() = 0;

    /** Reference checks outside the timed region. */
    virtual void check(Outcome &outcome) = 0;

    /**
     * Run jobs until `seconds` have passed (at the granularity of
     * the workload's round) or, when max_jobs > 0, exactly max_jobs
     * jobs.  Every output is checked into `outcome`.
     */
    virtual LoopStats run(double seconds, std::uint64_t max_jobs,
                          Tracer &tracer, Outcome &outcome) = 0;

    /** Per-layer metrics of a traced loop (probes allowed). */
    virtual void layerMetrics(const LoopStats &loop, Tracer &tracer,
                              Outcome &outcome) = 0;
};

struct WorkloadArgs
{
    std::uint64_t seed = 1;
    bool corruptReference = false; //!< flip one reference bit
};

std::unique_ptr<Workload> makeCompileDd(const WorkloadArgs &args);
std::unique_ptr<Workload> makeEstimateDense(const WorkloadArgs &args);
std::unique_ptr<Workload>
makeServiceClifford(const WorkloadArgs &args);

/** Seed of stream `stream` derived from the workload seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Alternating two-qubit / idle layers on an n-qubit chain: ECR gates
 * on every `stride`-th coupler from a parity-staggered offset, then a
 * delay layer on every qubit.  Stride 4 leaves every gate surrounded
 * by idle spectators (the idle-heavy shape CA-DD acts on); stride 2
 * puts gates side by side, the gate-active context CA-EC compensates.
 */
casq::LayeredCircuit chainCircuit(std::size_t n, int depth,
                                  std::uint32_t stride,
                                  double idle_ns = 600.0);

/** Z on every qubit plus ZZ on every chain neighbour pair. */
std::vector<casq::PauliString> chainObservables(std::size_t n);

/** Linear-interpolated quantile q in [0, 1] (0 for no values). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / double(values.size());
}

/**
 * Reset this process's peak resident set to its current resident set
 * (Linux clear_refs), so peakRssMb() then reports the peak of what
 * runs next.  False when the kernel does not support it; the peak
 * then stays the whole process's.
 */
bool resetPeakRss();

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();

/**
 * Seconds one read-modify-write sweep over a fixed 32 MiB buffer takes
 * now: a casq-free probe of the host's cache and memory speed, which
 * on a shared host swings by tens of percent over minutes with other
 * tenants' traffic.  The buffer is allocated and touched on the first
 * call, so call this only after peak RSS has been read.
 */
double memoryProbeSeconds();

/** Canonical bytes of a schedule (every field, doubles as bits). */
std::vector<std::uint8_t>
scheduleBytes(const casq::ScheduledCircuit &schedule);

/**
 * The benchmark's own schedule invariants: no two timed
 * instructions overlap on a qubit, and the DD pulses of every idle
 * window (a maximal run of DD pulses between two other instructions
 * on the qubit) multiply to the identity Pauli.  Returns "" when both
 * hold, else a diagnostic.
 */
std::string scheduleInvariantError(
    const casq::ScheduledCircuit &schedule);

/** The run(variants) options equivalent to a fused ensemble run. */
casq::ExecutionOptions
executionOptions(const casq::EnsembleRunOptions &opts);

/** Bitwise equality of two estimates. */
bool sameBits(const casq::RunResult &a, const casq::RunResult &b);

/** Flip the lowest mantissa bit (--corrupt-reference). */
void flipLowBit(double &value);

/** Count instructions carrying a tag. */
std::size_t countTag(const casq::ScheduledCircuit &schedule,
                     casq::InstTag tag);

} // namespace casqbench

#endif // CASQBENCH_BENCH_HH
