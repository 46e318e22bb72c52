/**
 * @file
 * service-clifford: a closed loop of jobs through an in-process
 * JobService (2 slots, 1 engine thread each).  One client thread
 * keeps 4 jobs in flight: it submits until 4 are in flight, then
 * waits for the oldest (jobs are adopted and scheduled in FIFO
 * order) and submits the next.  Each job is a 32-qubit twirled CA-DD
 * ensemble under Pauli noise on the auto substrate, so every
 * trajectory runs on the stabilizer tableau, split into 4 shards.
 *
 * The benchmark's own ShardRunner round-trips every spec and result
 * through ShardSpec/ShardResult encode + decode, the bytes a spawned
 * worker would exchange.  Jobs cycle through a fixed set of specs
 * whose single-process runEnsemble references are computed before
 * the loop; every merged job must equal its reference bit for bit.
 */

#include <atomic>
#include <deque>
#include <map>
#include <mutex>

#include "bench.hh"
#include "probes.hh"
#include "service/job_service.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr std::size_t kQubits = 32;
constexpr int kDepth = 6;
constexpr int kInstances = 4;
constexpr int kTrajectories = 16;
constexpr std::uint32_t kShards = 4;
constexpr unsigned kSlots = 2;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kSpecs = 8; //!< distinct job specs cycled

/** Encode/decode round trip around executeShard, with spans. */
class BenchShardRunner : public ShardRunner
{
  public:
    ShardResult
    run(const ShardSpec &spec, const ShardRunContext &ctx) override
    {
        Tracer &tracer = *_tracer.load();
        Tracer::Scope whole(tracer, "shard", "ShardRunner::run",
                            tracer.jobSpan(ctx.jobId), ctx.jobId);
        const std::uint64_t parent = whole.id();
        std::vector<std::uint8_t> spec_bytes;
        {
            Tracer::Scope span(tracer, "shard", "ShardSpec::encode",
                               parent, ctx.jobId);
            spec_bytes = spec.encode();
        }
        ShardSpec remote;
        {
            Tracer::Scope span(tracer, "shard", "ShardSpec::decode",
                               parent, ctx.jobId);
            remote = ShardSpec::decode(spec_bytes);
        }
        ShardResult executed;
        {
            Tracer::Scope span(tracer, "shard", "executeShard", parent,
                               ctx.jobId);
            executed = executeShard(remote, 1);
        }
        std::vector<std::uint8_t> result_bytes;
        {
            Tracer::Scope span(tracer, "shard", "ShardResult::encode",
                               parent, ctx.jobId);
            result_bytes = executed.encode();
        }
        ShardResult back;
        {
            Tracer::Scope span(tracer, "shard", "ShardResult::decode",
                               parent, ctx.jobId);
            back = ShardResult::decode(result_bytes);
        }
        if (tracer.enabled()) {
            std::lock_guard<std::mutex> lock(_mutex);
            _specBytes.push_back(double(spec_bytes.size()));
            _resultBytes.push_back(double(result_bytes.size()));
            _captured[ctx.jobId][ctx.shardIndex] = back;
        }
        return back;
    }

    /** Tracer for subsequent shards; set only while no job runs. */
    void setTracer(Tracer *tracer) { _tracer.store(tracer); }

    /** Take what traced executions recorded. */
    void
    take(std::vector<double> &spec_bytes,
         std::vector<double> &result_bytes,
         std::map<std::string, std::map<std::uint32_t, ShardResult>>
             &captured)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        spec_bytes = std::move(_specBytes);
        result_bytes = std::move(_resultBytes);
        captured = std::move(_captured);
        _specBytes.clear();
        _resultBytes.clear();
        _captured.clear();
    }

  private:
    std::atomic<Tracer *> _tracer{nullptr};
    std::mutex _mutex;
    std::vector<double> _specBytes;
    std::vector<double> _resultBytes;
    std::map<std::string, std::map<std::uint32_t, ShardResult>>
        _captured;
};

class ServiceClifford : public Workload
{
  public:
    explicit ServiceClifford(const WorkloadArgs &args) : _args(args)
    {
        for (std::size_t k = 0; k < kSpecs; ++k) {
            ShardSpec spec;
            spec.shardIndex = 0;
            spec.shardCount = kShards;
            spec.logical = chainCircuit(kQubits, kDepth, 4);
            for (std::size_t q = 0; q < kQubits; ++q)
                spec.observables.push_back(
                    PauliString::single(kQubits, q, PauliOp::Z));
            spec.strategy = "ca-dd";
            spec.backend = BackendRecipe::Linear;
            spec.backendQubits = std::uint32_t(kQubits);
            spec.noise = NoiseModel::pauliOnly();
            spec.instances = kInstances;
            spec.compileSeed = deriveSeed(args.seed, 2 * k);
            spec.trajectories = kTrajectories;
            spec.seed = deriveSeed(args.seed, 2 * k + 1);
            spec.simBackend = SimBackendKind::Auto;
            _specs.push_back(std::move(spec));
        }
    }

    ~ServiceClifford() override
    {
        if (_service)
            _service->shutdown();
    }

    void
    setup() override
    {
        if (_service)
            _service->shutdown();
        _service.reset();
        JobServiceOptions options;
        options.scheduler.slots = kSlots;
        options.threadsPerShard = 1;
        auto runner = std::make_unique<BenchShardRunner>();
        _runner = runner.get();
        _runner->setTracer(&_quiet);
        _service =
            std::make_unique<JobService>(options, std::move(runner));
        // Warm-up: one full window of in-flight jobs, run to
        // completion.  Jobs share no state, so reusing specs is safe.
        std::vector<std::string> ids;
        for (std::size_t k = 0; k < kInFlight; ++k) {
            JobSpec job;
            job.id = "warm-" + std::to_string(k);
            job.work = _specs[k % kSpecs];
            _service->submit(job);
            ids.push_back(job.id);
        }
        for (const std::string &id : ids)
            _service->waitTerminal(id);
    }

    void
    check(Outcome &outcome) override
    {
        _reference.clear();
        for (const ShardSpec &spec : _specs) {
            const Backend backend = spec.makeBackend();
            PassManager pipeline = spec.makePipeline();
            SimulationEngine engine(backend, spec.makeNoise());
            _reference.push_back(engine.runEnsemble(
                spec.logical, pipeline, spec.observables,
                spec.runOptions(1)));
            const RunResult &ref = _reference.back();
            outcome.check(ref.stabilizerTrajectories == ref.trajectories,
                          "reference did not run on the stabilizer");
        }
        if (_args.corruptReference)
            flipLowBit(_reference[0].means.at(0));
    }

    LoopStats
    run(double seconds, std::uint64_t max_jobs, Tracer &tracer,
        Outcome &outcome) override
    {
        struct InFlight
        {
            std::string id;
            std::size_t spec = 0;
            Clock::time_point submitted;
            std::uint64_t span = 0;
        };
        _runner->setTracer(&tracer);
        const ServiceTotals before = _service->totals();
        _queueWaitMs.clear();
        _activeMs.clear();
        _submitRejects = 0;

        LoopStats loop;
        loop.windowJobs = 2 * kInFlight;
        loop.fromUs = tracer.nowUs();
        const auto start = Clock::now();
        std::uint64_t submitted = 0;
        std::deque<InFlight> inflight;
        for (;;) {
            while (inflight.size() < kInFlight &&
                   (max_jobs ? submitted < max_jobs
                             : secondsSince(start) < seconds)) {
                InFlight f;
                f.id = "job-" + std::to_string(_nextJob++);
                f.spec = std::size_t(submitted % kSpecs);
                submitted += 1;
                JobSpec job;
                job.id = f.id;
                job.work = _specs[f.spec];
                f.span = tracer.begin("service", "job", 0, f.id);
                if (f.span)
                    tracer.setJobSpan(f.id, f.span);
                f.submitted = Clock::now();
                try {
                    Tracer::Scope span(tracer, "service",
                                       "JobService::submit", f.span,
                                       f.id);
                    _service->submit(std::move(job));
                } catch (const BackpressureError &) {
                    _submitRejects += 1;
                    outcome.check(false, f.id + ": rejected");
                    if (f.span)
                        tracer.end(f.span);
                    continue;
                }
                inflight.push_back(std::move(f));
            }
            if (inflight.empty())
                break;
            const InFlight f = inflight.front();
            inflight.pop_front();
            const JobProgress progress = _service->waitTerminal(f.id);
            loop.latencyMs.push_back(1e3 * secondsSince(f.submitted));
            loop.doneS.push_back(secondsSince(start));
            if (f.span)
                tracer.end(f.span);
            _queueWaitMs.push_back(progress.sinceSubmitMillis -
                                   progress.activeMillis);
            _activeMs.push_back(progress.activeMillis);
            const bool done = progress.state == JobState::Done;
            outcome.check(done &&
                              sameBits(_service->result(f.id),
                                       _reference[f.spec]),
                          f.id + ": " +
                              (done ? "merged result differs from the "
                                      "single-process reference"
                                    : "job " +
                                          std::string(jobStateName(
                                              progress.state)) +
                                          ": " + progress.error));
            loop.jobs += 1;
            loop.instances += kInstances;
            loop.trajectories += kTrajectories;
        }
        loop.wallS = secondsSince(start);
        loop.toUs = tracer.nowUs();
        const ServiceTotals after = _service->totals();
        _retries = double(after.shardRetries - before.shardRetries);
        _stolen = double(after.shardsStolen - before.shardsStolen);
        _runner->setTracer(&_quiet);
        return loop;
    }

    void
    layerMetrics(const LoopStats &loop, Tracer &tracer,
                 Outcome &outcome) override
    {
        const ShardSpec &spec = _specs[0];
        const Backend backend = spec.makeBackend();
        PassManager pipeline = spec.makePipeline();

        const std::vector<EnsembleResult> ensembles =
            probePasses(pipeline, spec.logical, backend, spec.instances,
                        spec.compileSeed, tracer);
        addPassMetrics(ensembles, double(ensembles.size()), outcome);
        const EngineProbe probe =
            probeEngine(backend, spec.makeNoise(), pipeline,
                        spec.logical, spec.observables,
                        spec.runOptions(1), 3, tracer);
        addEngineMetrics(&probe, outcome);
        addTimelineMetrics(probe.variants, tracer, outcome);
        addStatevectorMetrics(0, 0.0, tracer, outcome);

        // shard.*: the codec and execution spans of the traced loop,
        // then mergeShards over the results the runner captured.
        std::map<std::string, std::vector<double>> us;
        for (const Span &span : tracer.spans())
            if (span.layer == "shard" && span.startUs >= loop.fromUs &&
                span.startUs <= loop.toUs)
                us[span.name].push_back(span.durationUs());
        std::vector<double> spec_bytes, result_bytes;
        std::map<std::string, std::map<std::uint32_t, ShardResult>>
            captured;
        _runner->take(spec_bytes, result_bytes, captured);
        std::vector<double> merge_ms;
        for (const auto &[job, shards] : captured) {
            std::vector<ShardResult> results;
            for (const auto &[index, result] : shards)
                results.push_back(result);
            Tracer::Scope span(tracer, "shard", "mergeShards", 0, job);
            const auto t0 = Clock::now();
            const RunResult merged = mergeShards(results);
            merge_ms.push_back(1e3 * secondsSince(t0));
            (void)merged;
        }
        outcome.add("shard.spec_encode_us",
                    median(us["ShardSpec::encode"]), "us");
        outcome.add("shard.spec_decode_us",
                    median(us["ShardSpec::decode"]), "us");
        outcome.add("shard.execute_ms",
                    1e-3 * median(us["executeShard"]), "ms");
        outcome.add("shard.result_encode_us",
                    median(us["ShardResult::encode"]), "us");
        outcome.add("shard.result_decode_us",
                    median(us["ShardResult::decode"]), "us");
        outcome.add("shard.merge_ms", median(merge_ms), "ms");
        outcome.add("shard.spec_bytes", mean(spec_bytes), "B");
        outcome.add("shard.result_bytes", mean(result_bytes), "B");

        std::vector<double> submit_us;
        double busy_us = 0.0;
        for (const Span &span : tracer.spans()) {
            if (span.startUs < loop.fromUs || span.startUs > loop.toUs)
                continue;
            if (span.name == "JobService::submit")
                submit_us.push_back(span.durationUs());
            if (span.name == "ShardRunner::run")
                busy_us += span.durationUs();
        }
        outcome.add("service.submit_us", median(submit_us), "us");
        outcome.add("service.queue_wait_ms", median(_queueWaitMs),
                    "ms");
        outcome.add("service.active_ms", median(_activeMs), "ms");
        outcome.add("service.slot_busy_frac",
                    loop.wallS > 0.0
                        ? busy_us * 1e-6 / (kSlots * loop.wallS)
                        : 0.0,
                    "ratio");
        outcome.add("service.backpressure_rejects",
                    double(_submitRejects), "count");
        outcome.add("service.shard_retries", _retries, "count");
        outcome.add("service.shards_stolen", _stolen, "count");
    }

  private:
    WorkloadArgs _args;
    std::vector<ShardSpec> _specs;
    std::vector<RunResult> _reference;
    Tracer _quiet{false};
    BenchShardRunner *_runner = nullptr; //!< owned by _service
    std::unique_ptr<JobService> _service;
    std::uint64_t _nextJob = 0;

    std::vector<double> _queueWaitMs;
    std::vector<double> _activeMs;
    std::uint64_t _submitRejects = 0;
    double _retries = 0.0;
    double _stolen = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServiceClifford(const WorkloadArgs &args)
{
    return std::make_unique<ServiceClifford>(args);
}

} // namespace casqbench
