/**
 * @file
 * Per-layer probes of the traced run.  Each probe calls one layer's
 * public functions on the workload's own inputs, inside spans, and
 * turns what it measured into per-layer metrics.  Probes run after
 * the traced loop, so they never count toward a workload's wall time.
 */

#ifndef CASQBENCH_PROBES_HH
#define CASQBENCH_PROBES_HH

#include <vector>

#include "bench.hh"

namespace casqbench {

/** Three serial, prefix-cached ensembles of one job, in spans. */
std::vector<casq::EnsembleResult>
probePasses(casq::PassManager &pipeline,
            const casq::LayeredCircuit &logical,
            const casq::Backend &backend, int instances,
            std::uint64_t seed, Tracer &tracer);

/**
 * passes.* metrics per job from the ensembles `jobs` jobs compiled:
 * wall and prefix time, time per pass (a prefix pass counts once per
 * ensemble), prefix-snapshot hit ratio and per-instance counts.
 */
void addPassMetrics(const std::vector<casq::EnsembleResult> &results,
                    double jobs, Outcome &outcome);

/** What probeEngine() measured, per job. */
struct EngineProbe
{
    double variantBuildMs = 0.0;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    double trajUs = 0.0;
    double prefixStateHitRatio = 0.0;
    double stabilizerFrac = 0.0;
    double reduceMs = 0.0;
    std::vector<casq::ScheduledCircuit> variants;
};

/**
 * Compile the job's variants, then on fresh engines run them cold
 * (variant cache empty) and warm, one trajectory per variant: the
 * median difference is the variant build.  A warm run of the job's
 * full trajectory count gives the per-trajectory cost and routing.
 * reduceTrajectorySlots is timed over the job's own slot matrix.
 */
EngineProbe probeEngine(const casq::Backend &backend,
                        const casq::NoiseModel &noise,
                        casq::PassManager &pipeline,
                        const casq::LayeredCircuit &logical,
                        const std::vector<casq::PauliString> &observables,
                        const casq::EnsembleRunOptions &options,
                        int reps, Tracer &tracer);

/** engine.* metrics (all zero when the workload runs no engine). */
void addEngineMetrics(const EngineProbe *probe, Outcome &outcome);

/** timeline.* metrics: mean segments and events per variant. */
void addTimelineMetrics(
    const std::vector<casq::ScheduledCircuit> &variants,
    Tracer &tracer, Outcome &outcome, double *segments = nullptr);

/**
 * statevector.* metrics: the public dense kernels timed on a state
 * of `qubits` qubits, and the computed bytes one trajectory's phase
 * sweeps move.  qubits == 0 reports zeros (no dense work).
 */
void addStatevectorMetrics(std::size_t qubits,
                           double segments_per_variant,
                           Tracer &tracer, Outcome &outcome);

/** Zeros for every shard.* and service.* metric. */
void addZeroShardMetrics(Outcome &outcome);
void addZeroServiceMetrics(Outcome &outcome);

/**
 * Self time per job of each traced layer inside the loop window, the
 * unattributed remainder of the loop's wall time, and the tracing
 * overhead (traced minus untraced wall time for the same jobs).
 */
void addSpanMetrics(const LoopStats &traced, double untraced_wall_s,
                    Tracer &tracer, Outcome &outcome);

} // namespace casqbench

#endif // CASQBENCH_PROBES_HH
