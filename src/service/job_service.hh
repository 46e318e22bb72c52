/**
 * @file
 * The job service: one table of jobs under one lock, drained by a
 * fixed pool of worker slots that execute the shards of many
 * concurrent jobs, with shard-level retry and work-stealing.
 *
 * The daemon (tools/casq_serve) and the in-process tests drive the
 * same surface:
 *
 *   JobService service(options);
 *   service.submit(job);             // throws AdmissionError /
 *                                    // BackpressureError
 *   service.waitTerminal("job-1");   // blocks until terminal
 *   RunResult r = service.result("job-1");
 *
 * Every admitted job owns one record in the table: its JobSpec, the
 * client-visible JobProgress, the per-shard execution state and, once
 * done, the merged RunResult.  Submission, adoption, retry, stealing,
 * merge, cancellation and every query read and write that record
 * under the service's single mutex, so a client never sees a job in
 * a state the slots have already left.  Job ids are burned for the
 * service's lifetime: a resubmitted id can never alias a finished
 * job's status or result.
 *
 * Admitted jobs wait in a bounded FIFO; beyond queueCapacity
 * submissions get BackpressureError.  A slot that runs out of
 * planned shards adopts the next queued job and splits it into
 * shardCount ShardSpecs (differing only in shardIndex, exactly like
 * `casq_shard plan`), which every slot then drains.
 *
 * Failure handling leans entirely on the shard determinism
 * contract (sim/shard.hh): shard execution is bit-deterministic,
 * so re-executing a shard -- after a worker death, or
 * speculatively while a straggling copy is still running -- can
 * never corrupt the merge; whichever attempt completes first
 * supplies the exact same bytes any other attempt would have.
 *
 *  - retry: a failed execution (runner threw: in-process error,
 *    subprocess death, corrupt result payload) re-queues the shard
 *    until its attempt budget is exhausted, which fails the job; a
 *    UserError (a spec no attempt can run) fails the job at once,
 *    with its message;
 *  - work-stealing: an idle slot re-executes the longest-running
 *    shard once it has run for stragglerFactor x the job's median
 *    completed-shard wall time (at least stragglerMinMillis; a
 *    fixed 30 s before any shard of the job completed), so one hung
 *    worker cannot stall a job forever.
 *
 * When the last shard of a job completes, the completing slot runs
 * the provenance-checked mergeShards() -- the job's result is
 * byte-identical to a single-process Engine::runEnsemble.  The lock
 * is dropped around ShardRunner::run and around the merge.
 *
 * All methods are thread-safe; the daemon calls them from one
 * connection-handling thread per client.
 */

#ifndef CASQ_SERVICE_JOB_SERVICE_HH
#define CASQ_SERVICE_JOB_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/job.hh"
#include "sim/shard.hh"

namespace casq {

/** One shard execution failed; the service may retry it. */
class ShardExecutionError : public ServiceError
{
  public:
    explicit ShardExecutionError(const std::string &what)
        : ServiceError(what)
    {
    }
};

/** Context handed to a runner for diagnostics and chaos hooks. */
struct ShardRunContext
{
    std::string jobId;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    std::uint32_t attempt = 1; //!< 1-based execution attempt
    unsigned worker = 0;       //!< slot id
};

/**
 * Executes one shard spec to a ShardResult.  Implementations throw
 * (any exception; ShardExecutionError by convention) to signal a
 * retryable failure, and UserError (common/logging.hh) for a spec
 * that can never run, which fails the job on its first attempt.
 * run() is called concurrently from different worker slots and must
 * be thread-safe.
 */
class ShardRunner
{
  public:
    virtual ~ShardRunner() = default;
    virtual ShardResult run(const ShardSpec &spec,
                            const ShardRunContext &ctx) = 0;
};

/** Default runner: executeShard() in this process. */
class InProcessShardRunner : public ShardRunner
{
  public:
    /** `threads` = engine workers per shard execution. */
    explicit InProcessShardRunner(int threads = 1)
        : _threads(threads)
    {
    }

    ShardResult run(const ShardSpec &spec,
                    const ShardRunContext &ctx) override;

  private:
    int _threads;
};

struct SchedulerOptions
{
    /** Worker slots (concurrent shard executions). */
    unsigned slots = 2;

    /** Execution attempts per shard before the job fails. */
    std::uint32_t maxAttempts = 3;

    /** Enable speculative re-execution of stragglers. */
    bool workStealing = true;

    /**
     * A running shard becomes steal-eligible after
     * max(stragglerMinMillis, stragglerFactor x median completed
     * shard wall time of its job).
     */
    double stragglerFactor = 4.0;
    double stragglerMinMillis = 250.0;
};

struct JobServiceOptions
{
    /** Queued-job bound (backpressure beyond this). */
    std::size_t queueCapacity = 64;

    SchedulerOptions scheduler;

    /**
     * Engine threads per in-process shard execution (ignored when
     * a custom runner is supplied).
     */
    int threadsPerShard = 1;
};

class JobService
{
  public:
    /** `runner` overrides the in-process executor (subprocess
     *  spawning, fault injection); null = InProcessShardRunner. */
    explicit JobService(JobServiceOptions options = {},
                        std::unique_ptr<ShardRunner> runner = nullptr);
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /**
     * Validate and enqueue a job.  Throws AdmissionError (malformed
     * submission, duplicate id) or BackpressureError (queue full).
     */
    void submit(JobSpec job);

    /** Snapshot of one job; nullopt for an unknown id. */
    std::optional<JobProgress> status(const std::string &id) const;

    /** Snapshots of all jobs, admission order. */
    std::vector<JobProgress> list() const;

    ServiceTotals totals() const;

    /**
     * Block until the job is Done/Failed/Cancelled.  Throws
     * ServiceError for an unknown id, or when the service shuts
     * down first.
     */
    JobProgress waitTerminal(const std::string &id) const;

    enum class CancelOutcome
    {
        Cancelled,
        Unknown,
        AlreadyTerminal, //!< done/failed/cancelled (or merging)
    };

    /** Cancel a queued or running job; running shards finish and
     *  their results are discarded. */
    CancelOutcome cancel(const std::string &id);

    /**
     * Merged result of a Done job (byte-identical to a
     * single-process Engine::runEnsemble of the same spec).  Throws
     * ServiceError if the job is not Done.
     */
    RunResult result(const std::string &id) const;

    /** Unblock waiters, stop adopting work, and join the slots
     *  once their in-flight executions finish. */
    void shutdown();

  private:
    using Clock = std::chrono::steady_clock;

    /** Execution side of one shard; its client view is the
     *  matching JobProgress::shards entry. */
    struct ShardRun
    {
        int runningCopies = 0; //!< executions in flight (steals: 2)
        Clock::time_point startedAt;
        ShardResult result; //!< captured once the shard is Done
    };

    /** One admitted job. */
    struct JobRecord
    {
        JobSpec spec;
        JobProgress progress;
        std::vector<ShardRun> runs;
        std::vector<double> completedWallMillis;
        Clock::time_point submittedAt;
        std::optional<Clock::time_point> firstStartAt;
        Clock::time_point finishedAt;
        RunResult merged; //!< valid once progress.state == Done
    };

    /** One unit of slot work; job == nullptr means stop. */
    struct Task
    {
        JobRecord *job = nullptr;
        std::uint32_t shard = 0;
        bool stolen = false;
    };

    JobServiceOptions _options;
    std::unique_ptr<ShardRunner> _runner;
    const Clock::time_point _startedAt;

    mutable std::mutex _mutex;
    std::condition_variable _wake; //!< slots: work, outcomes, stop
    mutable std::condition_variable _finished; //!< waiters

    /** Every admitted job, admission order; records never move. */
    std::deque<JobRecord> _table;
    std::unordered_map<std::string, JobRecord *> _index;

    std::deque<JobRecord *> _queued; //!< FIFO awaiting adoption
    std::deque<std::pair<JobRecord *, std::uint32_t>> _ready;
    ServiceTotals _totals;
    int _executing = 0; //!< shard executions currently in flight
    bool _stopped = false;
    std::vector<std::thread> _slots;

    JobRecord *find(const std::string &id) const;
    static JobProgress snapshot(const JobRecord &job);

    void slotLoop(unsigned self);

    /**
     * Claim the next unit of work: a ready shard, the first shard
     * of a freshly adopted job, or a steal; waits while there is
     * none.  Lock held.
     */
    Task nextTask(std::unique_lock<std::mutex> &lock);

    /** Straggler eligible for speculation, or job == nullptr. */
    Task stealCandidate();

    /** How one shard execution ended. */
    enum class Outcome
    {
        Done,     //!< a result
        Failed,   //!< any exception but UserError: retried
        Rejected, //!< UserError: fails the job at once
    };

    /** Record one execution outcome.  Lock held. */
    void onOutcome(Task task, unsigned self, Outcome outcome,
                   ShardResult &&result, const std::string &error,
                   double wallMillis,
                   std::unique_lock<std::mutex> &lock);

    /** Merge a job whose shards are all done.  Lock held on entry
     *  and exit; released during the merge itself. */
    void mergeJob(JobRecord &job, std::unique_lock<std::mutex> &lock);

    /** Move a job to a terminal state.  Lock held. */
    void finish(JobRecord &job, JobState state,
                const std::string &error = "");
};

} // namespace casq

#endif // CASQ_SERVICE_JOB_SERVICE_HH
