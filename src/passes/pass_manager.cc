#include "passes/pass_manager.hh"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/thread_pool.hh"

namespace casq {

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     begin)
        .count();
}

} // namespace

PassManager::PassManager() = default;
PassManager::~PassManager() = default;
PassManager::PassManager(PassManager &&) noexcept = default;
PassManager &
PassManager::operator=(PassManager &&) noexcept = default;

double
CompilationResult::totalMillis() const
{
    double total = 0.0;
    for (const PassMetric &metric : metrics)
        total += metric.millis;
    return total;
}

PassManager &
PassManager::add(std::unique_ptr<Pass> pass)
{
    casq_assert(pass != nullptr, "cannot register a null pass");
    _passes.push_back(std::move(pass));
    return *this;
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(_passes.size());
    for (const auto &pass : _passes)
        names.push_back(pass->name());
    return names;
}

bool
PassManager::contains(const std::string &name) const
{
    for (const auto &pass : _passes)
        if (pass->name() == name)
            return true;
    return false;
}

bool
PassManager::stochastic() const
{
    return stochasticPrefixLength() < _passes.size();
}

std::size_t
PassManager::stochasticPrefixLength() const
{
    for (std::size_t i = 0; i < _passes.size(); ++i)
        if (_passes[i]->isStochastic())
            return i;
    return _passes.size();
}

std::vector<PassMetric>
PassManager::runRange(PassContext &context, std::size_t begin,
                      std::size_t end)
{
    casq_assert(begin <= end && end <= _passes.size(),
                "pass range [", begin, ", ", end,
                ") out of bounds for ", _passes.size(), " passes");
    std::vector<PassMetric> metrics;
    metrics.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
        const auto &pass = _passes[i];
        const auto start = Clock::now();
        pass->run(context);
        const double millis = millisSince(start);
        metrics.push_back(PassMetric{pass->name(), millis});
        debug("pass ", pass->name(), ": ", millis, " ms -> ",
              stageName(context.stage()));
    }
    return metrics;
}

std::vector<PassMetric>
PassManager::run(PassContext &context)
{
    return runRange(context, 0, _passes.size());
}

CompilationResult
PassManager::packageResult(PassContext &context,
                           std::vector<PassMetric> metrics)
{
    casq_assert(context.stage() == CircuitStage::Scheduled,
                "pipeline ended at the ", stageName(context.stage()),
                " stage; compile() requires a scheduling pass");
    CompilationResult result;
    result.metrics = std::move(metrics);
    result.scheduled = context.takeScheduled();
    result.artifacts = std::move(context.artifacts());
    return result;
}

CompilationResult
PassManager::compile(const LayeredCircuit &logical,
                     const Backend &backend, Rng &rng)
{
    PassContext context(logical, backend, rng);
    std::vector<PassMetric> metrics = run(context);
    return packageResult(context, std::move(metrics));
}

EnsemblePlan
PassManager::planEnsemble(const LayeredCircuit &logical,
                          const Backend &backend,
                          const EnsembleOptions &options)
{
    const int count = stochastic() ? options.instances : 1;
    casq_assert(count >= 1, "need at least one instance");

    EnsemblePlan plan;
    plan._manager = this;
    plan._logical = &logical;
    plan._backend = &backend;
    plan._master = Rng(options.seed);
    plan._count = count;

    // Run the deterministic prefix once; every instance forks its
    // context from this snapshot.  Prefix passes never touch the
    // rng (isStochastic() contract), so the snapshot -- and hence
    // each fork -- is identical to what a full per-instance run
    // would have produced.
    const std::size_t prefix =
        options.prefixCache ? stochasticPrefixLength() : 0;
    if (prefix > 0) {
        plan._prefixRng = std::make_unique<Rng>(options.seed);
        plan._snapshot.emplace(logical, backend, *plan._prefixRng);
        plan._prefixMetrics = runRange(*plan._snapshot, 0, prefix);
        plan._prefixLength = prefix;
        plan._prefixHits =
            std::make_unique<std::atomic<std::size_t>>(0);
    }
    return plan;
}

CompilationResult
EnsemblePlan::compileInstance(std::size_t k) const
{
    casq_assert(_manager != nullptr && k < std::size_t(_count),
                "instance ", k, " out of range for a plan of ",
                _count);
    // Matches the historical serial derivation so ensembles stay
    // reproducible against pinned seed outputs.
    Rng rng = _master.derive(std::uint64_t(k) + 7001);
    if (_prefixLength > 0) {
        _prefixHits->fetch_add(1, std::memory_order_relaxed);
        PassContext context(*_snapshot, rng);
        std::vector<PassMetric> metrics = _prefixMetrics;
        auto suffix = _manager->runRange(context, _prefixLength,
                                         _manager->size());
        metrics.insert(metrics.end(),
                       std::make_move_iterator(suffix.begin()),
                       std::make_move_iterator(suffix.end()));
        return PassManager::packageResult(context,
                                          std::move(metrics));
    }
    PassContext context(*_logical, *_backend, rng);
    return PassManager::packageResult(
        context,
        _manager->runRange(context, 0, _manager->size()));
}

EnsembleResult
PassManager::runEnsemble(const LayeredCircuit &logical,
                         const Backend &backend,
                         const EnsembleOptions &options)
{
    const auto wall_begin = Clock::now();
    const EnsemblePlan plan =
        planEnsemble(logical, backend, options);
    const int count = plan.instanceCount();

    EnsembleResult out;
    out.prefixLength = plan.prefixLength();
    out.prefixMetrics = plan.prefixMetrics();
    out.instances.resize(count);

    const unsigned threads = std::min<std::size_t>(
        ThreadPool::resolveThreads(options.threads),
        std::size_t(count));
    if (threads <= 1) {
        for (int k = 0; k < count; ++k)
            out.instances[k] = plan.compileInstance(std::size_t(k));
    } else {
        // The pool outlives the call so a sweep of ensembles pays
        // thread spawn/teardown once, not once per runEnsemble.
        if (!_pool || _pool->threadCount() != threads)
            _pool = std::make_unique<ThreadPool>(threads);
        for (int k = 0; k < count; ++k)
            _pool->submit([&plan, &out, k] {
                out.instances[k] =
                    plan.compileInstance(std::size_t(k));
            });
        _pool->wait();
    }

    out.prefixHits = plan.prefixHits();
    out.wallMillis = millisSince(wall_begin);
    return out;
}

} // namespace casq
