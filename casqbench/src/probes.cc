#include "probes.hh"

#include <cmath>
#include <map>

#include "circuit/unitary.hh"
#include "sim/statevector.hh"
#include "sim/timeline.hh"

namespace casqbench {

using namespace casq;

namespace {

/** Every pass a stock pipeline can run, in pipeline order. */
const std::vector<std::string> &
passNames()
{
    static const std::vector<std::string> names{
        "twirl-plan",   "ca-ec-plan",         "flatten",
        "transpile",    "late-twirl",         "ca-ec",
        "schedule-asap", "idle-analysis",     "dd-uniform-aligned",
        "dd-uniform-staggered", "ca-dd"};
    return names;
}

double
millis(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

} // namespace

std::vector<EnsembleResult>
probePasses(PassManager &pipeline, const LayeredCircuit &logical,
            const Backend &backend, int instances, std::uint64_t seed,
            Tracer &tracer)
{
    EnsembleOptions options;
    options.instances = instances;
    options.seed = seed;
    options.threads = 1;
    std::vector<EnsembleResult> ensembles;
    for (int r = 0; r < 3; ++r) {
        Tracer::Scope span(tracer, "passes", "runEnsemble");
        ensembles.push_back(
            pipeline.runEnsemble(logical, backend, options));
    }
    return ensembles;
}

void
addPassMetrics(const std::vector<EnsembleResult> &results, double jobs,
               Outcome &outcome)
{
    std::map<std::string, double> pass_ms;
    double wall_ms = 0.0, prefix_ms = 0.0;
    double instances = 0.0, hits = 0.0;
    double insts = 0.0, pulses = 0.0, comps = 0.0;
    for (const EnsembleResult &ensemble : results) {
        wall_ms += ensemble.wallMillis;
        for (const PassMetric &m : ensemble.prefixMetrics) {
            prefix_ms += m.millis;
            pass_ms[m.name] += m.millis;
        }
        hits += double(ensemble.prefixHits);
        for (const CompilationResult &instance : ensemble.instances) {
            instances += 1.0;
            // The first prefixLength entries replicate the one-time
            // prefix run, counted above.
            for (std::size_t i = ensemble.prefixLength;
                 i < instance.metrics.size(); ++i)
                pass_ms[instance.metrics[i].name] +=
                    instance.metrics[i].millis;
            insts += double(instance.scheduled.instructions().size());
            pulses += double(countTag(instance.scheduled, InstTag::DD));
            comps += double(
                countTag(instance.scheduled, InstTag::Compensation));
        }
    }
    const double per_job = jobs > 0.0 ? 1.0 / jobs : 0.0;
    const double per_instance = instances > 0.0 ? 1.0 / instances : 0.0;
    outcome.add("passes.ensemble_ms", wall_ms * per_job, "ms");
    outcome.add("passes.prefix_ms", prefix_ms * per_job, "ms");
    for (const std::string &name : passNames())
        outcome.add("passes." + name + ".ms", pass_ms[name] * per_job,
                    "ms");
    outcome.add("passes.prefix_hit_ratio", hits * per_instance,
                "ratio");
    outcome.add("passes.instructions_per_instance",
                insts * per_instance, "count");
    outcome.add("passes.dd_pulses_per_instance", pulses * per_instance,
                "count");
    outcome.add("passes.compensations_per_instance",
                comps * per_instance, "count");
}

EngineProbe
probeEngine(const Backend &backend, const NoiseModel &noise,
            PassManager &pipeline, const LayeredCircuit &logical,
            const std::vector<PauliString> &observables,
            const EnsembleRunOptions &options, int reps,
            Tracer &tracer)
{
    EngineProbe probe;
    {
        Tracer::Scope span(tracer, "passes", "compileEnsemble");
        probe.variants = compileEnsemble(logical, backend, pipeline,
                                         options.instances,
                                         options.compileSeed, 1);
    }
    const ExecutionOptions exec = executionOptions(options);
    // One trajectory per variant: the cold-minus-warm difference is
    // then the variant build, not trajectory noise.
    ExecutionOptions one_each = exec;
    one_each.trajectories = int(probe.variants.size());

    std::vector<double> build_ms, warm_ms;
    RunResult warm;
    for (int r = 0; r < 2 * reps; ++r) {
        SimulationEngine engine(backend, noise);
        const auto t0 = Clock::now();
        {
            Tracer::Scope span(tracer, "engine", "run(variants) cold");
            engine.run(probe.variants, observables, one_each);
        }
        const auto t1 = Clock::now();
        // The cold run's lookups are exactly what a fresh job pays.
        probe.cacheHits = double(engine.variantCacheHits());
        probe.cacheMisses = double(engine.variantCacheMisses());
        {
            Tracer::Scope span(tracer, "engine", "run(variants) warm");
            engine.run(probe.variants, observables, one_each);
        }
        const auto t2 = Clock::now();
        build_ms.push_back(millis(t0, t1) - millis(t1, t2));
        if (r % 2)
            continue;
        {
            Tracer::Scope span(tracer, "engine", "run(variants) job");
            warm = engine.run(probe.variants, observables, exec);
        }
        warm_ms.push_back(millis(t2, Clock::now()));
    }
    const double traj = std::max(1, warm.trajectories);
    probe.variantBuildMs = median(build_ms);
    probe.trajUs = 1e3 * median(warm_ms) / traj;
    probe.prefixStateHitRatio = double(warm.prefixStateHits) / traj;
    probe.stabilizerFrac = double(warm.stabilizerTrajectories) / traj;

    SimulationEngine engine(backend, noise);
    const ShardSlots slots = engine.runShard(
        logical, pipeline, observables, options, 0, 1);
    std::vector<double> reduce_ms;
    for (int r = 0; r < std::max(3, reps); ++r) {
        Tracer::Scope span(tracer, "engine", "reduceTrajectorySlots");
        const auto t0 = Clock::now();
        const RunResult reduced = reduceTrajectorySlots(
            slots.slots, std::size_t(options.trajectories),
            observables.size());
        reduce_ms.push_back(millis(t0, Clock::now()));
        (void)reduced;
    }
    probe.reduceMs = median(reduce_ms);
    return probe;
}

void
addEngineMetrics(const EngineProbe *probe, Outcome &outcome)
{
    const EngineProbe zero;
    const EngineProbe &p = probe ? *probe : zero;
    outcome.add("engine.variant_build_ms", p.variantBuildMs, "ms");
    outcome.add("engine.variant_cache_hits", p.cacheHits, "count");
    outcome.add("engine.variant_cache_misses", p.cacheMisses, "count");
    outcome.add("engine.traj_us", p.trajUs, "us");
    outcome.add("engine.prefix_state_hit_ratio", p.prefixStateHitRatio,
                "ratio");
    outcome.add("engine.stabilizer_frac", p.stabilizerFrac, "ratio");
    outcome.add("engine.reduce_ms", p.reduceMs, "ms");
}

void
addTimelineMetrics(const std::vector<ScheduledCircuit> &variants,
                   Tracer &tracer, Outcome &outcome, double *segments)
{
    double segs = 0.0, events = 0.0;
    for (const ScheduledCircuit &variant : variants) {
        Tracer::Scope span(tracer, "timeline", "Timeline");
        const Timeline timeline(variant);
        segs += double(timeline.segments().size());
        events += double(timeline.events().size());
    }
    const double n = std::max<double>(1.0, double(variants.size()));
    outcome.add("timeline.segments_per_variant", segs / n, "count");
    outcome.add("timeline.events_per_variant", events / n, "count");
    if (segments)
        *segments = segs / n;
}

void
addStatevectorMetrics(std::size_t qubits, double segments_per_variant,
                      Tracer &tracer, Outcome &outcome)
{
    double phases = 0.0, gate1q = 0.0, gate2q = 0.0, rzz = 0.0;
    double bytes = 0.0;
    if (qubits >= 2) {
        Statevector state(qubits);
        const double amps = double(state.size());
        // Enough calls per batch that a batch lasts about 5 ms.
        const int calls = std::max(16, int(2e5 / amps));
        std::vector<QubitAngle> z;
        std::vector<PairAngle> zz;
        for (std::uint32_t q = 0; q < qubits; ++q)
            z.push_back(QubitAngle{q, 1e-3 * (q + 1)});
        for (std::uint32_t q = 0; q + 1 < qubits; ++q)
            zz.push_back(PairAngle{q, q + 1, 2e-3 * (q + 1)});
        const CMat sx = gateUnitary(Op::SX);
        const CMat ecr = gateUnitary(Op::ECR);
        auto time_ns = [&](const char *name, auto &&kernel) {
            std::vector<double> per_amp;
            for (int batch = 0; batch < 5; ++batch) {
                Tracer::Scope span(tracer, "statevector", name);
                const auto t0 = Clock::now();
                for (int c = 0; c < calls; ++c)
                    kernel(std::uint32_t(c % (qubits - 1)));
                const double ns =
                    std::chrono::duration<double, std::nano>(
                        Clock::now() - t0)
                        .count();
                per_amp.push_back(ns / (double(calls) * amps));
            }
            return median(per_amp);
        };
        phases = time_ns("applyPhases", [&](std::uint32_t) {
            state.applyPhases(z, zz);
        });
        gate1q = time_ns("applyGate1q", [&](std::uint32_t q) {
            state.applyGate1q(sx, q);
        });
        gate2q = time_ns("applyGate2q", [&](std::uint32_t q) {
            state.applyGate2q(ecr, q, q + 1);
        });
        rzz = time_ns("applyRzz", [&](std::uint32_t q) {
            state.applyRzz(q, q + 1, 0.125);
        });
        // Computed, not measured: one full-state phase sweep per
        // timeline segment, 16 bytes per complex amplitude.
        bytes = segments_per_variant * 16.0 * amps;
    }
    outcome.add("statevector.phases_ns_per_amp", phases, "ns/amp");
    outcome.add("statevector.gate1q_ns_per_amp", gate1q, "ns/amp");
    outcome.add("statevector.gate2q_ns_per_amp", gate2q, "ns/amp");
    outcome.add("statevector.rzz_ns_per_amp", rzz, "ns/amp");
    outcome.add("statevector.bytes_per_traj", bytes, "B");
}

void
addZeroShardMetrics(Outcome &outcome)
{
    for (const char *name : {"shard.spec_encode_us",
                             "shard.spec_decode_us",
                             "shard.result_encode_us",
                             "shard.result_decode_us"})
        outcome.add(name, 0.0, "us");
    outcome.add("shard.execute_ms", 0.0, "ms");
    outcome.add("shard.merge_ms", 0.0, "ms");
    outcome.add("shard.spec_bytes", 0.0, "B");
    outcome.add("shard.result_bytes", 0.0, "B");
}

void
addZeroServiceMetrics(Outcome &outcome)
{
    outcome.add("service.submit_us", 0.0, "us");
    outcome.add("service.queue_wait_ms", 0.0, "ms");
    outcome.add("service.active_ms", 0.0, "ms");
    outcome.add("service.slot_busy_frac", 0.0, "ratio");
    outcome.add("service.backpressure_rejects", 0.0, "count");
    outcome.add("service.shard_retries", 0.0, "count");
    outcome.add("service.shards_stolen", 0.0, "count");
}

void
addSpanMetrics(const LoopStats &traced, double untraced_wall_s,
               Tracer &tracer, Outcome &outcome)
{
    const SpanSummary summary =
        summarizeSpans(tracer.spans(), traced.fromUs, traced.toUs);
    const double per_job =
        traced.jobs ? 1e-3 / double(traced.jobs) : 0.0; // us -> ms
    for (const char *layer : {"passes", "engine", "shard", "service"}) {
        const auto it = summary.selfUs.find(layer);
        outcome.add(std::string(layer) + ".self_ms",
                    it == summary.selfUs.end() ? 0.0
                                               : it->second * per_job,
                    "ms");
    }
    const double window_us = traced.toUs - traced.fromUs;
    outcome.add("trace.unattributed_ms",
                (window_us - summary.rootCoveredUs) * per_job, "ms");
    outcome.add("trace.overhead_ms",
                (traced.wallS - untraced_wall_s) * 1e6 * per_job, "ms");
}

} // namespace casqbench
