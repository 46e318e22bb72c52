/**
 * @file
 * compile-dd: compile only.  PassManager::runEnsemble of every stock
 * strategy on the 12-qubit idle-heavy chain, serial, prefix cache on.
 * A job is one strategy's ensemble; a round is one job per strategy.
 * Every round recompiles the same ensembles, so every job is checked
 * byte for byte against a prefix-cache-off reference compiled before
 * the loop, whose schedules also pass the benchmark's own invariants.
 */

#include "bench.hh"
#include "probes.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr std::size_t kQubits = 12;
constexpr int kDepth = 24;
constexpr int kInstances = 3; //!< twirled instances per ensemble

class CompileDd : public Workload
{
  public:
    explicit CompileDd(const WorkloadArgs &args) : _args(args) {}

    void
    setup() override
    {
        _pipelines.clear();
        _backend = std::make_unique<Backend>(makeFakeLinear(kQubits));
        _logical = chainCircuit(kQubits, kDepth, 4);
        for (Strategy strategy : allStrategies())
            _pipelines.push_back(buildPipeline(strategy));
        // Warm-up: one instance per strategy, on seeds the loop
        // never uses, fills the pipelines' shared table caches.
        for (std::size_t s = 0; s < _pipelines.size(); ++s) {
            EnsembleOptions warm = options(s, true);
            warm.instances = 1;
            warm.seed = deriveSeed(_args.seed, 1000 + s);
            _pipelines[s].runEnsemble(_logical, *_backend, warm);
        }
    }

    void
    check(Outcome &outcome) override
    {
        _reference.assign(_pipelines.size(), {});
        for (std::size_t s = 0; s < _pipelines.size(); ++s) {
            const EnsembleResult uncached = _pipelines[s].runEnsemble(
                _logical, *_backend, options(s, false));
            for (const CompilationResult &instance :
                 uncached.instances) {
                const std::string err =
                    scheduleInvariantError(instance.scheduled);
                outcome.check(err.empty(),
                              strategyName(allStrategies()[s]) +
                                  ": " + err);
                _reference[s].push_back(
                    scheduleBytes(instance.scheduled));
            }
        }
        if (_args.corruptReference)
            _reference[0][0].back() ^= 1;
    }

    LoopStats
    run(double seconds, std::uint64_t max_jobs, Tracer &tracer,
        Outcome &outcome) override
    {
        LoopStats loop;
        // A window is one round: the same strategy mix every time.
        loop.windowJobs = _pipelines.size();
        _traced.clear();
        loop.fromUs = tracer.nowUs();
        const auto start = Clock::now();
        for (std::size_t round = 0;
             max_jobs ? loop.jobs < max_jobs
                      : secondsSince(start) < seconds;
             ++round) {
            for (std::size_t s = 0; s < _pipelines.size(); ++s) {
                const std::string job =
                    "job-" + std::to_string(loop.jobs);
                const auto t0 = Clock::now();
                EnsembleResult result;
                {
                    Tracer::Scope span(
                        tracer, "passes",
                        "runEnsemble " +
                            strategyName(allStrategies()[s]),
                        0, job);
                    result = _pipelines[s].runEnsemble(
                        _logical, *_backend, options(s, true));
                }
                loop.latencyMs.push_back(1e3 * secondsSince(t0));
                loop.doneS.push_back(secondsSince(start));
                loop.jobs += 1;
                loop.instances += result.instances.size();
                bool same =
                    result.instances.size() == _reference[s].size();
                for (std::size_t k = 0; same && k < _reference[s].size();
                     ++k)
                    same = scheduleBytes(result.instances[k].scheduled) ==
                           _reference[s][k];
                outcome.check(same,
                              strategyName(allStrategies()[s]) +
                                  ": prefix-cached schedule differs "
                                  "from the uncached reference");
                if (tracer.enabled())
                    _traced.push_back(std::move(result));
            }
        }
        loop.wallS = secondsSince(start);
        loop.toUs = tracer.nowUs();
        return loop;
    }

    void
    layerMetrics(const LoopStats &loop, Tracer &tracer,
                 Outcome &outcome) override
    {
        addPassMetrics(_traced, double(loop.jobs), outcome);
        addEngineMetrics(nullptr, outcome);
        std::vector<ScheduledCircuit> schedules;
        for (std::size_t s = 0; s < _traced.size() &&
                                s < _pipelines.size();
             ++s)
            for (const CompilationResult &instance :
                 _traced[s].instances)
                schedules.push_back(instance.scheduled);
        addTimelineMetrics(schedules, tracer, outcome);
        addStatevectorMetrics(0, 0.0, tracer, outcome);
        addZeroShardMetrics(outcome);
        addZeroServiceMetrics(outcome);
    }

  private:
    WorkloadArgs _args;
    std::unique_ptr<Backend> _backend;
    LayeredCircuit _logical{0, 0};
    std::vector<PassManager> _pipelines;

    /** Uncached schedule bytes, [strategy][instance]. */
    std::vector<std::vector<std::vector<std::uint8_t>>> _reference;

    /** Ensembles of the traced loop, for the passes.* metrics. */
    std::vector<EnsembleResult> _traced;

    EnsembleOptions
    options(std::size_t strategy, bool prefix_cache) const
    {
        EnsembleOptions options;
        options.instances = kInstances;
        options.seed = deriveSeed(_args.seed, strategy);
        options.threads = 1;
        options.prefixCache = prefix_cache;
        return options;
    }
};

} // namespace

std::unique_ptr<Workload>
makeCompileDd(const WorkloadArgs &args)
{
    return std::make_unique<CompileDd>(args);
}

} // namespace casqbench
