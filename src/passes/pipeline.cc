#include "passes/pipeline.hh"

#include "common/logging.hh"
#include "passes/builtin.hh"

namespace casq {

std::string
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::None:
        return "none";
      case Strategy::Ec:
        return "ca-ec";
      case Strategy::DdAligned:
        return "dd-aligned";
      case Strategy::DdStaggered:
        return "dd-staggered";
      case Strategy::CaDd:
        return "ca-dd";
      case Strategy::EcAlignedDd:
        return "ec+aligned-dd";
      case Strategy::Combined:
        return "ca-ec+dd";
    }
    casq_panic("invalid Strategy");
}

std::optional<Strategy>
strategyFromName(const std::string &name)
{
    for (Strategy strategy : allStrategies())
        if (strategyName(strategy) == name)
            return strategy;
    return std::nullopt;
}

const std::vector<Strategy> &
allStrategies()
{
    static const std::vector<Strategy> all{
        Strategy::None,        Strategy::Ec,
        Strategy::DdAligned,   Strategy::DdStaggered,
        Strategy::CaDd,        Strategy::EcAlignedDd,
        Strategy::Combined,
    };
    return all;
}

namespace {

/**
 * The error contexts a strategy's compensation pass treats: each
 * strategy leaves a different remainder to CA-EC.
 */
CaecScope
caecScopeOf(Strategy strategy)
{
    switch (strategy) {
      case Strategy::EcAlignedDd:
        // Aligned DD removes the Z errors; compensation handles
        // the surviving ZZ (paper Fig. 3c combined curve).
        return CaecScope::ZzOnly;
      case Strategy::Combined:
        // CA-DD covers idle contexts; compensation covers the
        // gate-active contexts DD cannot touch (paper Sec. V E).
        return CaecScope::ActiveOnly;
      default:
        return CaecScope::All;
    }
}

} // namespace

PassManager
buildPipeline(const CompileOptions &options)
{
    PassManager manager;

    // Sample the twirl frames -- and, for the CA-EC strategies, run
    // the compensation walk -- on the lowered circuit, which leaves
    // the whole flatten/(transpile) front end deterministic and
    // therefore shareable across ensemble instances.
    const bool uses_caec = options.strategy == Strategy::Ec ||
                           options.strategy == Strategy::EcAlignedDd ||
                           options.strategy == Strategy::Combined;

    // One conjugation table for the whole pipeline: the plan pass
    // warms it in the deterministic prefix, late-twirl and the CA-EC
    // walk read it.  Likewise one lowering cache when the stream is
    // lowered: every layer late-twirl or CA-EC splices in goes
    // through it.
    const auto tables = std::make_shared<ConjugationTable>();
    const auto native = options.lowerToNative
                            ? std::make_shared<TranspileCache>()
                            : nullptr;
    if (options.twirl)
        manager.emplace<TwirlPlanPass>(tables);
    if (uses_caec)
        manager.emplace<CaEcPlanPass>();

    manager.emplace<FlattenPass>();
    if (options.lowerToNative)
        manager.emplace<TranspilePass>();
    if (options.twirl)
        manager.emplace<LateTwirlPass>(tables, native, uses_caec);
    if (uses_caec)
        manager.emplace<CaEcFlatPass>(options.caec,
                                      caecScopeOf(options.strategy),
                                      native, tables);
    manager.emplace<SchedulePass>();

    // Scheduled-stage decoupling.
    switch (options.strategy) {
      case Strategy::DdAligned:
      case Strategy::EcAlignedDd:
        manager.emplace<UniformDdPass>(UniformDdStyle::Aligned);
        break;
      case Strategy::DdStaggered:
        manager.emplace<UniformDdPass>(
            UniformDdStyle::StaggeredByParity);
        break;
      case Strategy::CaDd:
      case Strategy::Combined:
        manager.emplace<CaDdPass>();
        break;
      default:
        break;
    }
    return manager;
}

PassManager
buildPipeline(Strategy strategy)
{
    CompileOptions options;
    options.strategy = strategy;
    return buildPipeline(options);
}

ScheduledCircuit
compileCircuit(const LayeredCircuit &logical, const Backend &backend,
               const CompileOptions &options, Rng &rng)
{
    PassManager manager = buildPipeline(options);
    CompilationResult result =
        manager.compile(logical, backend, rng);
    return std::move(result.scheduled);
}

std::vector<ScheduledCircuit>
compileEnsemble(const LayeredCircuit &logical, const Backend &backend,
                PassManager &pipeline, int instances,
                std::uint64_t seed, unsigned threads)
{
    EnsembleOptions options;
    options.instances = instances;
    options.seed = seed;
    options.threads = threads;
    EnsembleResult result =
        pipeline.runEnsemble(logical, backend, options);
    std::vector<ScheduledCircuit> out;
    out.reserve(result.instances.size());
    for (CompilationResult &instance : result.instances)
        out.push_back(std::move(instance.scheduled));
    return out;
}

std::vector<ScheduledCircuit>
compileEnsemble(const LayeredCircuit &logical, const Backend &backend,
                const CompileOptions &options, int instances,
                std::uint64_t seed, unsigned threads)
{
    PassManager pipeline = buildPipeline(options);
    return compileEnsemble(logical, backend, pipeline, instances,
                           seed, threads);
}

} // namespace casq
