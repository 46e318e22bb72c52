/**
 * @file
 * estimate-dense: the fused SimulationEngine::runEnsemble of the
 * paper's combined strategy (ca-ec+dd) on a 10-qubit chain under
 * standard+corr+drift noise, dense substrate, one thread.  A job is
 * one fused estimate with fresh compile and trajectory seeds on a
 * fresh engine, as one `casq_compile --simulate` run does.  (A
 * long-lived engine would cache every job's variants, never hit with
 * fresh seeds, and grow to 256 cached variant plans, about 180 MB.)
 *
 * Checks, outside the timed region and at a reduced trajectory
 * count: the fused run equals compileEnsemble + run(variants) bit for
 * bit, and under ideal noise the dense and stabilizer substrates
 * agree to 1e-12 on every compiled instance the stabilizer can run.
 */

#include <cmath>

#include "bench.hh"
#include "probes.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr std::size_t kQubits = 10;
constexpr int kDepth = 8;
constexpr std::uint32_t kStride = 2;
constexpr int kInstances = 8;
constexpr int kTrajectories = 32;      //!< per job
constexpr int kCheckTrajectories = 16; //!< per reference check
constexpr const char *kNoise = "standard+corr+drift";

class EstimateDense : public Workload
{
  public:
    explicit EstimateDense(const WorkloadArgs &args) : _args(args) {}

    void
    setup() override
    {
        _backend = std::make_unique<Backend>(makeFakeLinear(kQubits));
        _noise = noiseModelFromRecipe(kNoise);
        _pipeline = buildPipeline(Strategy::Combined);
        _logical = chainCircuit(kQubits, kDepth, kStride);
        _observables = chainObservables(kQubits);
        // Warm-up estimate on seeds the loop never uses.
        SimulationEngine engine(*_backend, _noise);
        engine.runEnsemble(_logical, _pipeline, _observables,
                           options(~std::uint64_t(0), 8));
    }

    void
    check(Outcome &outcome) override
    {
        const EnsembleRunOptions opts =
            options(0, kCheckTrajectories);
        SimulationEngine engine(*_backend, _noise);
        const RunResult fused = engine.runEnsemble(
            _logical, _pipeline, _observables, opts);
        const std::vector<ScheduledCircuit> variants = compileEnsemble(
            _logical, *_backend, _pipeline, opts.instances,
            opts.compileSeed, 1);
        SimulationEngine fresh(*_backend, _noise);
        RunResult unfused =
            fresh.run(variants, _observables, executionOptions(opts));
        if (_args.corruptReference)
            flipLowBit(unfused.means.at(0));
        outcome.check(sameBits(fused, unfused),
                      "fused runEnsemble differs from compileEnsemble "
                      "+ run(variants)");

        // Dense vs stabilizer under ideal noise.  CA-EC inserts
        // non-Clifford compensation angles, so the CA-DD instances of
        // the same circuit and seed join the set; every instance the
        // auto routing sends to the tableau is compared.
        std::vector<ScheduledCircuit> set = variants;
        PassManager cadd = buildPipeline(Strategy::CaDd);
        for (ScheduledCircuit &v :
             compileEnsemble(_logical, *_backend, cadd, opts.instances,
                             opts.compileSeed, 1))
            set.push_back(std::move(v));
        SimulationEngine ideal(*_backend, NoiseModel::ideal());
        ExecutionOptions exec = executionOptions(opts);
        exec.trajectories = 1;
        int compared = 0;
        for (const ScheduledCircuit &variant : set) {
            exec.backend = SimBackendKind::Auto;
            const RunResult tableau =
                ideal.run(variant, _observables, exec);
            if (tableau.stabilizerTrajectories != 1)
                continue;
            exec.backend = SimBackendKind::Dense;
            const RunResult dense =
                ideal.run(variant, _observables, exec);
            bool agree = dense.means.size() == tableau.means.size();
            for (std::size_t k = 0; agree && k < dense.means.size(); ++k)
                agree = std::abs(dense.means[k] - tableau.means[k]) <=
                        1e-12;
            outcome.check(agree, "dense and stabilizer expectations "
                                 "differ by more than 1e-12");
            compared += 1;
        }
        outcome.check(compared > 0,
                      "no compiled instance ran on the stabilizer");
    }

    LoopStats
    run(double seconds, std::uint64_t max_jobs, Tracer &tracer,
        Outcome &outcome) override
    {
        LoopStats loop;
        loop.windowJobs = 2;
        loop.fromUs = tracer.nowUs();
        const auto start = Clock::now();
        while (max_jobs ? loop.jobs < max_jobs
                        : secondsSince(start) < seconds) {
            const std::uint64_t job = _nextJob++;
            const auto t0 = Clock::now();
            RunResult result;
            {
                Tracer::Scope span(tracer, "engine", "runEnsemble", 0,
                                   "job-" + std::to_string(job));
                SimulationEngine engine(*_backend, _noise);
                result = engine.runEnsemble(_logical, _pipeline,
                                            _observables,
                                            options(job, kTrajectories));
            }
            loop.latencyMs.push_back(1e3 * secondsSince(t0));
            loop.doneS.push_back(secondsSince(start));
            loop.jobs += 1;
            loop.instances += kInstances;
            loop.trajectories += std::uint64_t(result.trajectories);
            bool ok = result.trajectories == kTrajectories &&
                      result.stabilizerTrajectories == 0 &&
                      result.means.size() == _observables.size();
            for (double m : result.means)
                ok = ok && std::isfinite(m) && std::abs(m) <= 1.0 + 1e-9;
            outcome.check(ok, "estimate out of range or misrouted");
        }
        loop.wallS = secondsSince(start);
        loop.toUs = tracer.nowUs();
        return loop;
    }

    void
    layerMetrics(const LoopStats &, Tracer &tracer,
                 Outcome &outcome) override
    {
        const EnsembleRunOptions job = options(_nextJob, kTrajectories);
        const std::vector<EnsembleResult> ensembles =
            probePasses(_pipeline, _logical, *_backend, kInstances,
                        job.compileSeed, tracer);
        addPassMetrics(ensembles, double(ensembles.size()), outcome);
        const EngineProbe probe =
            probeEngine(*_backend, _noise, _pipeline, _logical,
                        _observables, job, 2, tracer);
        addEngineMetrics(&probe, outcome);
        double segments = 0.0;
        addTimelineMetrics(probe.variants, tracer, outcome, &segments);
        addStatevectorMetrics(kQubits, segments, tracer, outcome);
        addZeroShardMetrics(outcome);
        addZeroServiceMetrics(outcome);
    }

  private:
    WorkloadArgs _args;
    std::unique_ptr<Backend> _backend;
    NoiseModel _noise;
    PassManager _pipeline;
    LayeredCircuit _logical{0, 0};
    std::vector<PauliString> _observables;

    /** Next job index; job 0 is the reference check's. */
    std::uint64_t _nextJob = 1;

    EnsembleRunOptions
    options(std::uint64_t job, int trajectories) const
    {
        EnsembleRunOptions opts;
        opts.instances = kInstances;
        opts.compileSeed = deriveSeed(_args.seed, 2 * job);
        opts.prefixCache = true;
        opts.trajectories = trajectories;
        opts.seed = deriveSeed(_args.seed, 2 * job + 1);
        opts.threads = 1;
        opts.backend = SimBackendKind::Dense;
        return opts;
    }
};

} // namespace

std::unique_ptr<Workload>
makeEstimateDense(const WorkloadArgs &args)
{
    return std::make_unique<EstimateDense>(args);
}

} // namespace casqbench
