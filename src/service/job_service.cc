#include "service/job_service.hh"

#include <algorithm>

#include "common/logging.hh"

namespace casq {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Before a job has a completed shard to calibrate "straggling"
 * against, a running shard becomes steal-eligible only after this
 * long, so a healthy cold start is never duplicated.
 */
constexpr double kStragglerGraceMillis = 30000.0;

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Trajectories shard `shard` of the job owns. */
std::uint64_t
ownedTrajectories(const JobSpec &spec, std::uint32_t shard)
{
    const std::uint64_t total =
        std::uint64_t(std::max(0, spec.work.trajectories));
    const std::uint64_t count = spec.shards();
    if (total <= shard)
        return 0;
    return (total - shard + count - 1) / count;
}

} // namespace

ShardResult
InProcessShardRunner::run(const ShardSpec &spec,
                          const ShardRunContext &)
{
    return executeShard(spec, _threads);
}

JobService::JobService(JobServiceOptions options,
                       std::unique_ptr<ShardRunner> runner)
    : _options(options), _runner(std::move(runner)),
      _startedAt(Clock::now())
{
    if (!_runner) {
        _runner = std::make_unique<InProcessShardRunner>(
            _options.threadsPerShard);
    }
    _options.queueCapacity =
        std::max(std::size_t(1), _options.queueCapacity);
    _options.scheduler.slots = std::max(1u, _options.scheduler.slots);
    _slots.reserve(_options.scheduler.slots);
    for (unsigned s = 0; s < _options.scheduler.slots; ++s)
        _slots.emplace_back([this, s] { slotLoop(s); });
}

JobService::~JobService()
{
    shutdown();
}

void
JobService::submit(JobSpec job)
{
    // Validation needs no table state; keep it outside the lock.
    validateJobSpec(job);

    std::lock_guard<std::mutex> lock(_mutex);
    if (_index.count(job.id)) {
        throw AdmissionError("duplicate job id '" + job.id +
                             "' (ids are unique for the daemon's "
                             "lifetime)");
    }
    if (_queued.size() >= _options.queueCapacity) {
        throw BackpressureError(
            "job queue is full (" +
            std::to_string(_options.queueCapacity) +
            " job(s) queued); back off and retry");
    }
    JobRecord &record = _table.emplace_back();
    record.submittedAt = Clock::now();
    record.progress.id = job.id;
    record.progress.trajectories = job.work.trajectories;
    record.progress.observables =
        std::uint32_t(job.work.observables.size());
    record.progress.shards.resize(job.shards());
    record.runs.resize(job.shards());
    record.spec = std::move(job);
    _index.emplace(record.spec.id, &record);
    _queued.push_back(&record);
    _totals.jobsAdmitted += 1;
    _wake.notify_one();
}

std::optional<JobProgress>
JobService::status(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const JobRecord *job = find(id);
    if (!job)
        return std::nullopt;
    return snapshot(*job);
}

std::vector<JobProgress>
JobService::list() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<JobProgress> snapshots;
    snapshots.reserve(_table.size());
    for (const JobRecord &job : _table)
        snapshots.push_back(snapshot(job));
    return snapshots;
}

ServiceTotals
JobService::totals() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    ServiceTotals totals = _totals;
    totals.upMillis = millisBetween(_startedAt, Clock::now());
    if (totals.upMillis > 0.0) {
        totals.trajectoriesPerSecond =
            1e3 * double(totals.trajectoriesDone) / totals.upMillis;
    }
    return totals;
}

JobProgress
JobService::waitTerminal(const std::string &id) const
{
    std::unique_lock<std::mutex> lock(_mutex);
    const JobRecord *job = find(id);
    if (!job)
        throw ServiceError("unknown job '" + id + "'");
    _finished.wait(lock, [&] {
        return jobStateTerminal(job->progress.state) || _stopped;
    });
    if (!jobStateTerminal(job->progress.state)) {
        throw ServiceError("service is shutting down before job '" +
                           id + "' finished");
    }
    return snapshot(*job);
}

JobService::CancelOutcome
JobService::cancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    JobRecord *job = find(id);
    if (!job)
        return CancelOutcome::Unknown;
    const JobState state = job->progress.state;
    // A merging job is effectively finished (all compute is spent);
    // treat it like a terminal job rather than racing the merge.
    if (jobStateTerminal(state) || state == JobState::Merging)
        return CancelOutcome::AlreadyTerminal;
    if (state == JobState::Queued)
        _queued.erase(std::find(_queued.begin(), _queued.end(), job));
    // Ready entries of the job are skipped lazily by the slots.
    finish(*job, JobState::Cancelled);
    return CancelOutcome::Cancelled;
}

RunResult
JobService::result(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const JobRecord *job = find(id);
    if (!job)
        throw ServiceError("unknown job '" + id + "'");
    const JobProgress &p = job->progress;
    if (p.state != JobState::Done) {
        throw ServiceError(
            "job '" + id + "' is " + jobStateName(p.state) +
            (p.error.empty() ? std::string() : ": " + p.error));
    }
    return job->merged;
}

void
JobService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopped = true;
    }
    _finished.notify_all();
    _wake.notify_all();
    for (std::thread &slot : _slots) {
        if (slot.joinable())
            slot.join();
    }
}

JobService::JobRecord *
JobService::find(const std::string &id) const
{
    const auto it = _index.find(id);
    return it == _index.end() ? nullptr : it->second;
}

JobProgress
JobService::snapshot(const JobRecord &job)
{
    const auto now = Clock::now();
    JobProgress p = job.progress;
    p.sinceSubmitMillis = millisBetween(job.submittedAt, now);
    if (job.firstStartAt) {
        const auto end =
            jobStateTerminal(p.state) ? job.finishedAt : now;
        p.activeMillis = millisBetween(*job.firstStartAt, end);
        if (p.activeMillis > 0.0) {
            p.trajectoriesPerSecond =
                1e3 * double(p.trajectoriesDone) / p.activeMillis;
        }
    }
    return p;
}

void
JobService::slotLoop(unsigned self)
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        const Task task = nextTask(lock);
        if (!task.job)
            return;

        JobRecord &job = *task.job;
        ShardProgress &view = job.progress.shards[task.shard];
        ShardRun &run = job.runs[task.shard];
        const auto now = Clock::now();
        view.attempts += 1;
        view.worker = int(self);
        run.runningCopies += 1;
        if (view.state == ShardState::Pending) {
            view.state = ShardState::Running;
            run.startedAt = now;
        }
        if (task.stolen) {
            view.stolen = true;
            _totals.shardsStolen += 1;
        }
        if (!job.firstStartAt)
            job.firstStartAt = now;
        if (job.progress.state == JobState::Scheduled)
            job.progress.state = JobState::Running;
        _executing += 1;

        ShardSpec spec = job.spec.work;
        spec.shardIndex = task.shard;
        ShardRunContext ctx;
        ctx.jobId = job.spec.id;
        ctx.shardIndex = task.shard;
        ctx.shardCount = spec.shardCount;
        ctx.attempt = view.attempts;
        ctx.worker = self;

        lock.unlock();
        ShardResult result;
        std::string error;
        Outcome outcome = Outcome::Failed;
        const auto begin = Clock::now();
        try {
            result = _runner->run(spec, ctx);
            outcome = Outcome::Done;
        } catch (const UserError &err) {
            error = err.what();
            outcome = Outcome::Rejected;
        } catch (const std::exception &err) {
            error = err.what();
        } catch (...) {
            error = "unknown shard execution failure";
        }
        const double wall_millis = millisBetween(begin, Clock::now());
        lock.lock();
        onOutcome(task, self, outcome, std::move(result), error,
                  wall_millis, lock);
    }
}

JobService::Task
JobService::nextTask(std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        if (_stopped)
            return {};

        while (!_ready.empty()) {
            const auto [job, shard] = _ready.front();
            _ready.pop_front();
            // Entries of cancelled/failed jobs are skipped lazily.
            if (!jobStateTerminal(job->progress.state))
                return {job, shard, false};
        }

        if (!_queued.empty()) {
            // Adopt the next job: plan its shards for every slot.
            JobRecord &job = *_queued.front();
            _queued.pop_front();
            job.progress.state = JobState::Scheduled;
            for (std::uint32_t k = 0; k < job.spec.shards(); ++k)
                _ready.emplace_back(&job, k);
            _wake.notify_all();
            continue;
        }

        if (_options.scheduler.workStealing) {
            if (const Task steal = stealCandidate(); steal.job)
                return steal;
        }

        // With executions in flight a straggler may mature into a
        // steal candidate, so poll; otherwise sleep until notified
        // (new submission, outcome, or stop).
        if (_options.scheduler.workStealing && _executing > 0)
            _wake.wait_for(lock, std::chrono::milliseconds(50));
        else
            _wake.wait(lock);
    }
}

JobService::Task
JobService::stealCandidate()
{
    const SchedulerOptions &opts = _options.scheduler;
    const auto now = Clock::now();
    Task best;
    double best_over = 0.0;
    for (JobRecord &job : _table) {
        const JobState state = job.progress.state;
        if (state != JobState::Scheduled && state != JobState::Running)
            continue;
        // Calibrate "straggling" against the job's own completed
        // shards.
        const double threshold =
            job.completedWallMillis.empty()
                ? kStragglerGraceMillis
                : std::max(opts.stragglerMinMillis,
                           opts.stragglerFactor *
                               median(job.completedWallMillis));
        for (std::uint32_t k = 0; k < job.runs.size(); ++k) {
            const ShardProgress &view = job.progress.shards[k];
            const ShardRun &run = job.runs[k];
            if (view.state != ShardState::Running ||
                run.runningCopies != 1 ||
                view.attempts >= opts.maxAttempts) {
                continue;
            }
            const double over =
                millisBetween(run.startedAt, now) - threshold;
            if (over > best_over) {
                best_over = over;
                best = {&job, k, true};
            }
        }
    }
    return best;
}

void
JobService::onOutcome(Task task, unsigned self, Outcome outcome,
                      ShardResult &&result, const std::string &error,
                      double wallMillis,
                      std::unique_lock<std::mutex> &lock)
{
    JobRecord &job = *task.job;
    ShardProgress &view = job.progress.shards[task.shard];
    ShardRun &run = job.runs[task.shard];
    _executing -= 1;
    run.runningCopies -= 1;
    _wake.notify_all();

    // The job may have been cancelled or failed while this shard
    // executed; its outcome is discarded either way.
    if (jobStateTerminal(job.progress.state))
        return;

    if (outcome == Outcome::Done) {
        if (view.state == ShardState::Done)
            return; // a stolen twin already delivered these bits
        const std::uint64_t owned =
            ownedTrajectories(job.spec, task.shard);
        view.state = ShardState::Done;
        view.worker = int(self);
        view.wallMillis = wallMillis;
        run.result = std::move(result);
        job.completedWallMillis.push_back(wallMillis);
        job.progress.shardsDone += 1;
        job.progress.trajectoriesDone += owned;
        job.progress.prefixStateHits += run.result.prefixStateHits;
        _totals.shardsExecuted += 1;
        _totals.trajectoriesDone += owned;
        _totals.prefixStateHits += run.result.prefixStateHits;
        if (job.progress.shardsDone == job.runs.size())
            mergeJob(job, lock);
        return;
    }

    _totals.shardFailures += 1;
    if (view.state == ShardState::Done)
        return; // the shard already completed via another copy
    if (outcome == Outcome::Rejected) {
        // Every attempt would fail the same way: fail the job now.
        view.state = ShardState::Failed;
        finish(job, JobState::Failed,
               "shard " + std::to_string(task.shard) + ": " + error);
        return;
    }
    if (run.runningCopies > 0)
        return; // a speculative copy is still running; let it decide
    if (view.attempts >= _options.scheduler.maxAttempts) {
        view.state = ShardState::Failed;
        finish(job, JobState::Failed,
               "shard " + std::to_string(task.shard) +
                   " failed after " + std::to_string(view.attempts) +
                   " attempt(s): " + error);
        return;
    }
    // Retry: bit-determinism makes re-execution merge-hazard-free.
    view.state = ShardState::Pending;
    view.worker = -1;
    job.progress.retries += 1;
    _totals.shardRetries += 1;
    _ready.emplace_back(&job, task.shard);
}

void
JobService::mergeJob(JobRecord &job, std::unique_lock<std::mutex> &lock)
{
    job.progress.state = JobState::Merging;
    std::vector<ShardResult> results;
    results.reserve(job.runs.size());
    for (ShardRun &run : job.runs)
        results.push_back(std::move(run.result));
    // The merge is pure CPU over captured payloads; run it without
    // the lock so other jobs keep flowing.  cancel() treats Merging
    // as terminal, so the state cannot change underneath us.
    lock.unlock();
    RunResult merged;
    std::string error;
    bool ok = false;
    try {
        merged = mergeShards(results);
        ok = true;
    } catch (const std::exception &err) {
        error = err.what();
    }
    lock.lock();
    if (ok) {
        job.merged = std::move(merged);
        finish(job, JobState::Done);
    } else {
        finish(job, JobState::Failed, "merge failed: " + error);
    }
}

void
JobService::finish(JobRecord &job, JobState state,
                   const std::string &error)
{
    job.progress.state = state;
    if (!error.empty())
        job.progress.error = error;
    job.finishedAt = Clock::now();
    switch (state) {
      case JobState::Done: _totals.jobsDone += 1; break;
      case JobState::Failed: _totals.jobsFailed += 1; break;
      case JobState::Cancelled: _totals.jobsCancelled += 1; break;
      default: break;
    }
    _finished.notify_all();
}

} // namespace casq
