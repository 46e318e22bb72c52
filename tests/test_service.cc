/**
 * @file
 * Job service: admission validation, queue backpressure, scheduler
 * retry/work-stealing determinism, the wire protocol, and the
 * canonical corrupt-payload diagnostics.
 *
 * The heart of the suite is the determinism contract under failure:
 * a job's merged result must be BIT-identical to a single-process
 * Engine::runEnsemble whether or not a worker died mid-shard, for
 * every worker-slot count -- retries and speculative re-executions
 * re-derive the exact same bytes, so recovery can never corrupt an
 * estimate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "bench_common.hh"
#include "common/serialize.hh"
#include "service/job_service.hh"
#include "service/protocol.hh"
#include "service/socket.hh"
#include "sim/shard.hh"
#include "sim/statevector.hh"

namespace casq {
namespace {

/** Small uneven job: 7 instances, 61 trajectories, 5 observables. */
ShardSpec
testWork(std::uint32_t shard_count = 4)
{
    ShardSpec spec;
    spec.shardIndex = 0;
    spec.shardCount = shard_count;
    spec.logical = bench::syntheticChainWorkload(
        4, 3, /*idle_layers=*/true);
    for (std::uint32_t q = 0; q < 4; ++q)
        spec.observables.push_back(
            PauliString::single(4, q, PauliOp::Z));
    spec.observables.push_back(PauliString::fromLabel("ZZZZ"));
    spec.strategy = "ca-dd";
    spec.backendQubits = 4;
    spec.instances = 7;
    spec.compileSeed = 11;
    spec.trajectories = 61;
    spec.seed = 99;
    return spec;
}

JobSpec
testJob(const std::string &id, std::uint32_t shard_count = 4)
{
    JobSpec job;
    job.id = id;
    job.work = testWork(shard_count);
    return job;
}

/** Single-process reference bits for the test job. */
RunResult
reference()
{
    ShardSpec spec = testWork(1);
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, NoiseModel::standard());
    return engine.runEnsemble(spec.logical, pipeline,
                              spec.observables,
                              spec.runOptions(/*threads=*/1));
}

void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    ASSERT_EQ(a.stderrs.size(), b.stderrs.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k]) << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

/**
 * In-process runner with a fault hook: the hook runs before the
 * real execution and may throw (simulated worker death) or sleep
 * (simulated straggler).
 */
class ScriptedRunner : public ShardRunner
{
  public:
    using Hook = std::function<void(const ShardRunContext &)>;

    explicit ScriptedRunner(Hook hook) : _hook(std::move(hook)) {}

    ShardResult
    run(const ShardSpec &spec, const ShardRunContext &ctx) override
    {
        if (_hook)
            _hook(ctx);
        return executeShard(spec, /*threads=*/1);
    }

  private:
    Hook _hook;
};

/**
 * ScriptedRunner that blocks every execution of job `held_id` until
 * release(), so a test can keep the slots busy while the queue
 * fills, and records the order in which jobs ran.
 */
class HeldRunner
{
  public:
    explicit HeldRunner(std::string held_id)
        : _heldId(std::move(held_id)),
          _gate(_release.get_future().share())
    {
    }

    ~HeldRunner() { release(); }

    /** The runner to hand to JobService (call once). */
    std::unique_ptr<ShardRunner>
    runner()
    {
        return std::make_unique<ScriptedRunner>(
            [this](const ShardRunContext &ctx) {
                {
                    std::lock_guard<std::mutex> lock(_mutex);
                    _executed.push_back(ctx.jobId);
                }
                if (ctx.jobId == _heldId) {
                    std::call_once(_startedOnce,
                                   [this] { _started.set_value(); });
                    _gate.wait();
                }
            });
    }

    /** Block until a slot is executing the held job. */
    void waitStarted() { _startedFuture.wait(); }

    void
    release()
    {
        std::call_once(_releaseOnce, [this] { _release.set_value(); });
    }

    std::vector<std::string>
    executed() const
    {
        std::lock_guard<std::mutex> lock(_mutex);
        return _executed;
    }

  private:
    std::string _heldId;
    std::promise<void> _release;
    std::shared_future<void> _gate;
    std::once_flag _releaseOnce;
    std::promise<void> _started;
    std::future<void> _startedFuture = _started.get_future();
    std::once_flag _startedOnce;
    mutable std::mutex _mutex;
    std::vector<std::string> _executed;
};

JobServiceOptions
serviceOptions(unsigned slots)
{
    JobServiceOptions options;
    options.scheduler.slots = slots;
    // Fail fast in tests: a stuck scheduler surfaces as a ctest
    // timeout either way, but idle polling at 50 ms keeps the
    // steal tests quick.
    options.scheduler.stragglerMinMillis = 50.0;
    options.scheduler.stragglerFactor = 2.0;
    return options;
}

// ----------------------------------------------------- admission

TEST(ServiceAdmission, AcceptsWellFormedJob)
{
    EXPECT_NO_THROW(validateJobSpec(testJob("ok-1.a_B")));
}

TEST(ServiceAdmission, RejectsMalformedIds)
{
    JobSpec job = testJob("x");
    job.id = "";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = "has space";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = "slash/ok";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = std::string(200, 'a');
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsNonzeroShardIndex)
{
    JobSpec job = testJob("x");
    job.work.shardIndex = 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsUnknownStrategy)
{
    JobSpec job = testJob("x");
    job.work.strategy = "no-such-strategy";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsZeroAndOversizedEnsembles)
{
    JobSpec job = testJob("x");
    job.work.instances = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.work.instances = -4;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.work.instances = (1 << 20) + 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsBadTrajectoryAndShardCounts)
{
    JobSpec job = testJob("x");
    job.work.trajectories = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.shardCount = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    // More shards than trajectories: some shards would own zero
    // trajectories.
    job = testJob("x");
    job.work.shardCount = 62;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.trajectories = 1 << 20;
    job.work.shardCount = 4097;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsSlotCountOverflow)
{
    // trajectories x observables must fit the u32 slot counts of
    // the shard wire format.
    JobSpec job = testJob("x");
    job.work.trajectories =
        std::numeric_limits<std::int32_t>::max();
    job.work.shardCount = 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsObservableMismatches)
{
    JobSpec job = testJob("x");
    job.work.observables.clear();
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.observables.push_back(
        PauliString::fromLabel("ZZZZZZ"));
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsBackendWidthMismatch)
{
    JobSpec job = testJob("x");
    job.work.backendQubits = 5;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsForcedStabilizerUnderNonCliffordNoise)
{
    // Standard noise samples non-Clifford angles (quasi-static
    // detuning), which a forced tableau run cannot simulate.
    JobSpec job = testJob("stab");
    job.work.simBackend = SimBackendKind::Stabilizer;
    try {
        validateJobSpec(job);
        FAIL() << "forced stabilizer job admitted";
    } catch (const AdmissionError &err) {
        const std::string why =
            job.work.makeNoise().cliffordBlocker(
                job.work.makeBackend());
        ASSERT_FALSE(why.empty());
        EXPECT_NE(std::string(err.what()).find(why),
                  std::string::npos)
            << err.what();
    }
    JobService service(serviceOptions(1));
    EXPECT_THROW(service.submit(job), AdmissionError);
    EXPECT_FALSE(service.status("stab").has_value());

    // Pauli-only noise stays Clifford; auto routing is never
    // rejected.
    job.work.noise = NoiseModel::pauliOnly();
    EXPECT_NO_THROW(validateJobSpec(job));
    job = testJob("auto");
    job.work.simBackend = SimBackendKind::Auto;
    EXPECT_NO_THROW(validateJobSpec(job));
}

TEST(ServiceAdmission, RejectsDenseJobsBeyondTheStatevectorLimit)
{
    // A worker cannot allocate a dense statevector wider than
    // kMaxDenseQubits, so admission turns such jobs away whenever
    // they would run dense: forced, or auto under non-Clifford
    // noise.
    auto job_of = [](std::uint32_t n, SimBackendKind kind,
                     const NoiseModel &noise) {
        JobSpec job = testJob("wide");
        job.work.logical = bench::syntheticChainWorkload(
            n, 2, /*idle_layers=*/true);
        job.work.observables = {
            PauliString::single(n, 0, PauliOp::Z)};
        job.work.backendQubits = n;
        job.work.simBackend = kind;
        job.work.noise = noise;
        return job;
    };
    const std::uint32_t wide = 30;
    for (SimBackendKind kind :
         {SimBackendKind::Dense, SimBackendKind::Auto}) {
        const JobSpec job =
            job_of(wide, kind, NoiseModel::standard());
        try {
            validateJobSpec(job);
            ADD_FAILURE() << simBackendKindName(kind)
                          << " job at 30 qubits admitted";
        } catch (const AdmissionError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "dense statevector limit (24)"),
                      std::string::npos)
                << err.what();
        }
    }
    JobService service(serviceOptions(1));
    EXPECT_THROW(service.submit(job_of(wide, SimBackendKind::Dense,
                                       NoiseModel::standard())),
                 AdmissionError);
    EXPECT_FALSE(service.status("wide").has_value());

    // Pauli noise keeps auto on the tableau; 24 qubits fit dense.
    EXPECT_NO_THROW(validateJobSpec(job_of(
        wide, SimBackendKind::Auto, NoiseModel::pauliOnly())));
    EXPECT_NO_THROW(validateJobSpec(job_of(
        kMaxDenseQubits, SimBackendKind::Dense,
        NoiseModel::standard())));
}

// --------------------------------------------------------- queue

TEST(ServiceQueue, RejectsDuplicateIdsForTheQueueLifetime)
{
    JobService service(serviceOptions(1));
    service.submit(testJob("a", 1));
    EXPECT_THROW(service.submit(testJob("a")), AdmissionError);
    // Even after the job left the queue and finished, the id stays
    // burned.
    ASSERT_EQ(service.waitTerminal("a").state, JobState::Done);
    EXPECT_THROW(service.submit(testJob("a")), AdmissionError);
    EXPECT_TRUE(service.status("a").has_value());
    EXPECT_FALSE(service.status("b").has_value());
}

TEST(ServiceQueue, BackpressureWhenFull)
{
    HeldRunner held("busy");
    JobServiceOptions options = serviceOptions(1);
    options.queueCapacity = 2;
    options.scheduler.workStealing = false;
    JobService service(options, held.runner());
    service.submit(testJob("busy", 1));
    held.waitStarted(); // the one slot is busy; the queue is empty
    service.submit(testJob("a", 1));
    service.submit(testJob("b", 1));
    EXPECT_THROW(service.submit(testJob("c", 1)), BackpressureError);
    // Draining makes room again: once "a" finished, it has left the
    // queue.
    held.release();
    ASSERT_EQ(service.waitTerminal("a").state, JobState::Done);
    EXPECT_NO_THROW(service.submit(testJob("c", 1)));
    EXPECT_EQ(service.waitTerminal("c").state, JobState::Done);
}

TEST(ServiceQueue, FifoOrderAndRemove)
{
    HeldRunner held("busy");
    JobServiceOptions options = serviceOptions(1);
    options.scheduler.workStealing = false;
    JobService service(options, held.runner());
    service.submit(testJob("busy", 1));
    held.waitStarted();
    service.submit(testJob("a", 1));
    service.submit(testJob("b", 1));
    service.submit(testJob("c", 1));
    EXPECT_EQ(service.cancel("b"),
              JobService::CancelOutcome::Cancelled);
    EXPECT_EQ(service.cancel("b"),
              JobService::CancelOutcome::AlreadyTerminal);
    held.release();
    ASSERT_EQ(service.waitTerminal("c").state, JobState::Done);
    // One slot executes one shard at a time, in adoption order.
    EXPECT_EQ(held.executed(),
              (std::vector<std::string>{"busy", "a", "c"}));
    EXPECT_EQ(service.status("b")->state, JobState::Cancelled);
}

TEST(ServiceQueue, QueuedStatusCarriesTheWorkloadShape)
{
    HeldRunner held("busy");
    JobServiceOptions options = serviceOptions(1);
    options.scheduler.workStealing = false;
    JobService service(options, held.runner());
    service.submit(testJob("busy", 1));
    held.waitStarted();
    service.submit(testJob("waiting"));
    const std::optional<JobProgress> queued =
        service.status("waiting");
    held.release();
    ASSERT_TRUE(queued.has_value());
    EXPECT_EQ(queued->state, JobState::Queued);
    EXPECT_EQ(queued->trajectories, 61);
    EXPECT_EQ(queued->observables, 5u);
    EXPECT_EQ(queued->shards.size(), 4u);

    // With idle slots a job may be adopted before submit returns;
    // the shape is there either way.
    for (int j = 0; j < 8; ++j) {
        const std::string id = "fast-" + std::to_string(j);
        service.submit(testJob(id, 2));
        const std::optional<JobProgress> p = service.status(id);
        ASSERT_TRUE(p.has_value());
        EXPECT_EQ(p->trajectories, 61) << jobStateName(p->state);
        EXPECT_EQ(p->observables, 5u) << jobStateName(p->state);
        EXPECT_EQ(p->shards.size(), 2u);
    }
}

// ----------------------------------------------- determinism

TEST(ServiceScheduler, MergedResultMatchesSingleProcess)
{
    const RunResult expect = reference();
    for (unsigned slots : {1u, 2u, 4u}) {
        JobService service(serviceOptions(slots));
        service.submit(testJob("job"));
        const JobProgress done = service.waitTerminal("job");
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        expectBitIdentical(service.result("job"), expect,
                           "slots=" + std::to_string(slots));
    }
}

TEST(ServiceScheduler, RetryAfterWorkerDeathIsBitIdentical)
{
    const RunResult expect = reference();
    for (unsigned slots : {1u, 2u, 4u}) {
        // First execution of shard 1 dies mid-shard; the retry must
        // re-derive the exact same bytes.
        auto runner = std::make_unique<ScriptedRunner>(
            [](const ShardRunContext &ctx) {
                if (ctx.shardIndex == 1 && ctx.attempt == 1) {
                    throw ShardExecutionError(
                        "injected worker death");
                }
            });
        JobService service(serviceOptions(slots),
                           std::move(runner));
        service.submit(testJob("job"));
        const JobProgress done = service.waitTerminal("job");
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        EXPECT_GE(done.retries, 1u);
        expectBitIdentical(service.result("job"), expect,
                           "slots=" + std::to_string(slots));
        const ServiceTotals totals = service.totals();
        EXPECT_GE(totals.shardFailures, 1u);
        EXPECT_GE(totals.shardRetries, 1u);
    }
}

TEST(ServiceScheduler, ExhaustedAttemptsFailTheJob)
{
    auto runner = std::make_unique<ScriptedRunner>(
        [](const ShardRunContext &ctx) {
            if (ctx.shardIndex == 2) {
                throw ShardExecutionError(
                    "shard 2 always dies");
            }
        });
    JobServiceOptions options = serviceOptions(2);
    options.scheduler.maxAttempts = 2;
    JobService service(options, std::move(runner));
    service.submit(testJob("doomed"));
    const JobProgress done = service.waitTerminal("doomed");
    EXPECT_EQ(done.state, JobState::Failed);
    EXPECT_NE(done.error.find("failed after"), std::string::npos)
        << done.error;
    EXPECT_THROW(service.result("doomed"), ServiceError);
}

TEST(ServiceScheduler, UnrunnableJobFailsOnItsFirstAttempt)
{
    // Pauli noise passes admission for a forced tableau run, but
    // CA-EC compensates with non-Clifford rotations: the engine
    // rejects the compiled variant.  The job fails with that message, no
    // shard is retried, and the service keeps serving.
    JobSpec job = testJob("caec");
    job.work.logical = bench::syntheticChainWorkload(
        4, 4, /*idle_layers=*/true);
    job.work.strategy = "ca-ec";
    job.work.noise = NoiseModel::pauliOnly();
    job.work.simBackend = SimBackendKind::Stabilizer;
    job.work.instances = 2;
    job.work.trajectories = 8;
    ASSERT_NO_THROW(validateJobSpec(job));
    JobService service(serviceOptions(1));
    service.submit(job);
    const JobProgress failed = service.waitTerminal("caec");
    EXPECT_EQ(failed.state, JobState::Failed);
    EXPECT_NE(failed.error.find("circuit is not Clifford"),
              std::string::npos)
        << failed.error;
    EXPECT_EQ(failed.retries, 0u);
    EXPECT_EQ(service.totals().shardRetries, 0u);

    service.submit(testJob("after"));
    EXPECT_EQ(service.waitTerminal("after").state, JobState::Done);
}

TEST(ServiceScheduler, StealsStragglerAndStaysBitIdentical)
{
    const RunResult expect = reference();
    // Shard 0's first execution hangs; once the fast shards
    // complete, an idle slot speculatively re-executes it and the
    // job finishes long before the hung copy wakes up.
    std::atomic<int> hangs{0};
    auto runner = std::make_unique<ScriptedRunner>(
        [&hangs](const ShardRunContext &ctx) {
            if (ctx.shardIndex == 0 && ctx.attempt == 1) {
                hangs += 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1500));
            }
        });
    JobService service(serviceOptions(2), std::move(runner));
    service.submit(testJob("slow"));
    const JobProgress done = service.waitTerminal("slow");
    ASSERT_EQ(done.state, JobState::Done) << done.error;
    EXPECT_EQ(hangs.load(), 1);
    EXPECT_GE(service.totals().shardsStolen, 1u);
    expectBitIdentical(service.result("slow"), expect, "steal");
}

TEST(ServiceScheduler, ConcurrentJobsAllMatch)
{
    const RunResult expect = reference();
    JobService service(serviceOptions(4));
    for (int j = 0; j < 3; ++j)
        service.submit(
            testJob("job-" + std::to_string(j), 3 + j));
    for (int j = 0; j < 3; ++j) {
        const std::string id = "job-" + std::to_string(j);
        const JobProgress done = service.waitTerminal(id);
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        expectBitIdentical(service.result(id), expect, id);
    }
    EXPECT_EQ(service.totals().jobsDone, 3u);
}

TEST(ServiceScheduler, CancelQueuedJob)
{
    // One slot busy on a slow job keeps the second job queued long
    // enough to cancel it before adoption.
    auto runner = std::make_unique<ScriptedRunner>(
        [](const ShardRunContext &ctx) {
            if (ctx.jobId == "busy") {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
        });
    JobServiceOptions options = serviceOptions(1);
    options.scheduler.workStealing = false;
    JobService service(options, std::move(runner));
    service.submit(testJob("busy", 1));
    service.submit(testJob("victim", 1));
    EXPECT_EQ(service.cancel("victim"),
              JobService::CancelOutcome::Cancelled);
    EXPECT_EQ(service.cancel("no-such-job"),
              JobService::CancelOutcome::Unknown);
    const JobProgress victim = service.waitTerminal("victim");
    EXPECT_EQ(victim.state, JobState::Cancelled);
    const JobProgress busy = service.waitTerminal("busy");
    EXPECT_EQ(busy.state, JobState::Done) << busy.error;
    EXPECT_EQ(service.cancel("busy"),
              JobService::CancelOutcome::AlreadyTerminal);
}

TEST(ServiceScheduler, CancelRacingSubmitAlwaysTerminates)
{
    // A second thread cancels every job the moment the service
    // knows its id -- possibly before submit has returned; whichever
    // side wins, every job must reach a terminal state (never stay
    // Queued), within a bounded time.  Thousands of jobs make a
    // cancel inside submit likely; the queue holds them all, so
    // submit never backs off.
    constexpr int kJobs = 2000;
    const auto id = [](int j) { return "race-" + std::to_string(j); };
    JobServiceOptions options = serviceOptions(2);
    options.queueCapacity = kJobs;
    JobService service(options);
    std::atomic<int> submitted{0};
    std::thread canceller([&] {
        for (int j = 0; j < kJobs; ++j) {
            while (service.cancel(id(j)) ==
                   JobService::CancelOutcome::Unknown)
                std::this_thread::yield();
        }
    });
    auto waiter = std::async(std::launch::async, [&] {
        std::vector<JobState> states;
        for (int j = 0; j < kJobs; ++j) {
            while (submitted.load() <= j)
                std::this_thread::yield();
            states.push_back(service.waitTerminal(id(j)).state);
        }
        return states;
    });
    for (int j = 0; j < kJobs; ++j) {
        service.submit(testJob(id(j), 1 + j % 3));
        submitted.store(j + 1);
    }
    const bool finished = waiter.wait_for(std::chrono::seconds(60)) ==
                          std::future_status::ready;
    if (!finished)
        service.shutdown(); // unblocks the waiter with ServiceError
    canceller.join();
    ASSERT_TRUE(finished) << "a job never reached a terminal state";
    const std::vector<JobState> states = waiter.get();
    ASSERT_EQ(states.size(), std::size_t(kJobs));
    std::uint64_t done = 0;
    for (JobState state : states) {
        EXPECT_TRUE(state == JobState::Cancelled ||
                    state == JobState::Done)
            << jobStateName(state);
        done += state == JobState::Done;
    }
    const ServiceTotals totals = service.totals();
    EXPECT_EQ(totals.jobsAdmitted, std::uint64_t(kJobs));
    EXPECT_EQ(totals.jobsDone, done);
    EXPECT_EQ(totals.jobsDone + totals.jobsCancelled,
              std::uint64_t(kJobs));
}

TEST(ServiceScheduler, DuplicateSubmitRejectedAtServiceLevel)
{
    JobService service(serviceOptions(2));
    service.submit(testJob("once"));
    EXPECT_THROW(service.submit(testJob("once")), AdmissionError);
    const JobProgress done = service.waitTerminal("once");
    EXPECT_EQ(done.state, JobState::Done) << done.error;
}

// ------------------------------------------------------ protocol

TEST(ServiceProtocol, SubmitRoundTripPreservesTheJob)
{
    const JobSpec job = testJob("proto-1");
    const JobSpec back = decodeMessage<MessageType::SubmitRequest>(
        encodeMessage<MessageType::SubmitRequest>(job));
    EXPECT_EQ(back.id, "proto-1");
    EXPECT_EQ(back.work.jobFingerprint(), job.work.jobFingerprint());
    EXPECT_EQ(back.work.encode(), job.work.encode());
}

TEST(ServiceProtocol, RepliesRoundTrip)
{
    JobProgress status;
    status.id = "j";
    status.state = JobState::Running;
    status.shards.resize(3);
    status.shards[1].state = ShardState::Done;
    status.shards[1].attempts = 2;
    status.shards[1].stolen = true;
    status.shards[1].wallMillis = 12.5;
    status.trajectories = 61;
    status.trajectoriesDone = 20;
    const JobProgress status2 = decodeMessage<MessageType::StatusReply>(
        encodeMessage<MessageType::StatusReply>(status));
    EXPECT_EQ(status2.id, "j");
    EXPECT_EQ(status2.state, JobState::Running);
    ASSERT_EQ(status2.shards.size(), 3u);
    EXPECT_TRUE(status2.shards[1].stolen);
    EXPECT_EQ(status2.shards[1].attempts, 2u);
    EXPECT_EQ(status2.shards[1].wallMillis, 12.5);

    ServiceTotals stats;
    stats.jobsAdmitted = 5;
    stats.shardRetries = 2;
    stats.trajectoriesPerSecond = 123.5;
    const ServiceTotals stats2 = decodeMessage<MessageType::StatsReply>(
        encodeMessage<MessageType::StatsReply>(stats));
    EXPECT_EQ(stats2.jobsAdmitted, 5u);
    EXPECT_EQ(stats2.shardRetries, 2u);
    EXPECT_EQ(stats2.trajectoriesPerSecond, 123.5);

    ResultReply result;
    result.job.id = "j";
    result.job.state = JobState::Done;
    result.result.means = {0.5, -0.25};
    result.result.stderrs = {0.01, 0.02};
    result.result.trajectories = 61;
    const ResultReply result2 = decodeMessage<MessageType::ResultReply>(
        encodeMessage<MessageType::ResultReply>(result));
    EXPECT_EQ(result2.result.means, result.result.means);
    EXPECT_EQ(result2.result.stderrs, result.result.stderrs);
    EXPECT_EQ(result2.result.trajectories, 61);
}

TEST(ServiceProtocol, ErrorReplyRethrowsTyped)
{
    ErrorReply backpressure;
    backpressure.kind = ErrorReply::Kind::Backpressure;
    backpressure.message = "queue full";
    const ErrorReply decoded = decodeMessage<MessageType::ErrorReply>(
        encodeMessage<MessageType::ErrorReply>(backpressure));
    EXPECT_THROW(decoded.raise(), BackpressureError);

    ErrorReply admission;
    admission.kind = ErrorReply::Kind::Admission;
    EXPECT_THROW(decodeMessage<MessageType::ErrorReply>(
                     encodeMessage<MessageType::ErrorReply>(admission))
                     .raise(),
                 AdmissionError);
}

TEST(ServiceProtocol, RejectsForeignAndCorruptFrames)
{
    EXPECT_THROW(peekMessageType({1, 2, 3}), SerializeError);

    const std::vector<std::uint8_t> ping =
        encodeMessage(MessageType::PingRequest);
    std::vector<std::uint8_t> frame = ping;
    frame[0] ^= 0xff; // magic
    EXPECT_THROW(peekMessageType(frame), SerializeError);

    frame = ping;
    frame[4] = 9; // version
    EXPECT_THROW(peekMessageType(frame), SerializeError);

    frame = encodeMessage<MessageType::StatusRequest>("j");
    frame.push_back(0); // trailing byte
    EXPECT_THROW(decodeMessage<MessageType::StatusRequest>(frame),
                 SerializeError);

    // Wrong message type for the decoder.
    EXPECT_THROW(decodeMessage<MessageType::StatusRequest>(ping),
                 SerializeError);
}

/** The message and byte offset `decode` fails with. */
template <typename Decode>
std::pair<std::string, std::size_t>
frameError(Decode &&decode)
{
    try {
        decode();
    } catch (const SerializeError &err) {
        return {err.what(), err.offset()};
    }
    ADD_FAILURE() << "frame decoded";
    return {};
}

TEST(ServiceProtocol, HeaderErrorsNameTheirByte)
{
    const std::vector<std::uint8_t> ping =
        encodeMessage(MessageType::PingRequest);
    std::vector<std::uint8_t> frame = ping;
    frame[0] ^= 0xff;
    EXPECT_EQ(frameError([&] { peekMessageType(frame); }),
              std::make_pair(std::string("not a casq service frame "
                                         "(bad magic)"),
                             std::size_t(0)));

    frame = ping;
    frame[4] = 9;
    EXPECT_EQ(frameError([&] {
                  decodeMessage(frame, MessageType::PingRequest);
              }),
              std::make_pair(std::string("unsupported protocol "
                                         "version 9 (expected 3)"),
                             std::size_t(4)));

    frame = ping;
    frame[5] = 200;
    EXPECT_EQ(frameError([&] { peekMessageType(frame); }),
              std::make_pair(std::string("unknown message type 200"),
                             std::size_t(5)));

    EXPECT_EQ(frameError([&] {
                  decodeMessage<MessageType::StatusRequest>(ping);
              }),
              std::make_pair(std::string("unexpected message type 8 "
                                         "(expected 2)"),
                             std::size_t(5)));
}

// ------------------------------------------------- frame golden

/** A JobProgress with every field set, for the canonical frames. */
JobProgress
canonicalProgress()
{
    JobProgress job;
    job.id = "job-7";
    job.state = JobState::Running;
    job.error = "shard 1: worker lost";
    job.shards.resize(2);
    job.shards[0].state = ShardState::Done;
    job.shards[0].attempts = 1;
    job.shards[0].worker = 0;
    job.shards[0].wallMillis = 12.5;
    job.shards[1].state = ShardState::Running;
    job.shards[1].attempts = 2;
    job.shards[1].worker = 1;
    job.shards[1].stolen = true;
    job.shardsDone = 1;
    job.retries = 1;
    job.trajectories = 61;
    job.observables = 5;
    job.trajectoriesDone = 30;
    job.prefixStateHits = 12;
    job.sinceSubmitMillis = 250.0;
    job.activeMillis = 125.0;
    job.trajectoriesPerSecond = 240.0;
    return job;
}

/** One canonical frame of every message type, named by its type. */
std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
canonicalFrames()
{
    ServiceTotals totals;
    totals.jobsAdmitted = 9;
    totals.jobsDone = 5;
    totals.jobsFailed = 1;
    totals.jobsCancelled = 2;
    totals.shardsExecuted = 21;
    totals.shardFailures = 3;
    totals.shardRetries = 2;
    totals.shardsStolen = 1;
    totals.trajectoriesDone = 1200;
    totals.prefixStateHits = 480;
    totals.upMillis = 5000.0;
    totals.trajectoriesPerSecond = 240.0;

    JobProgress done = canonicalProgress();
    done.state = JobState::Done;
    done.error.clear();
    ResultReply result;
    result.job = done;
    result.result.means = {0.5, -0.25};
    result.result.stderrs = {0.0625, 0.125};
    result.result.trajectories = 61;

    ErrorReply error;
    error.kind = ErrorReply::Kind::Admission;
    error.message = "job 'job-7' already exists";

    using T = MessageType;
    return {
        {"SubmitRequest",
         encodeMessage<T::SubmitRequest>(testJob("job-7", 2))},
        {"StatusRequest", encodeMessage<T::StatusRequest>("job-7")},
        {"ListRequest", encodeMessage(T::ListRequest)},
        {"StatsRequest", encodeMessage(T::StatsRequest)},
        {"ResultRequest",
         encodeMessage<T::ResultRequest>({"job-7", true})},
        {"CancelRequest", encodeMessage<T::CancelRequest>("job-7")},
        {"ShutdownRequest", encodeMessage(T::ShutdownRequest)},
        {"PingRequest", encodeMessage(T::PingRequest)},
        {"SubmitReply", encodeMessage(T::SubmitReply)},
        {"StatusReply",
         encodeMessage<T::StatusReply>(canonicalProgress())},
        {"ListReply",
         encodeMessage<T::ListReply>({canonicalProgress(), done})},
        {"StatsReply", encodeMessage<T::StatsReply>(totals)},
        {"ResultReply", encodeMessage<T::ResultReply>(result)},
        {"CancelReply",
         encodeMessage<T::CancelReply>(
             JobService::CancelOutcome::AlreadyTerminal)},
        {"ShutdownReply", encodeMessage(T::ShutdownReply)},
        {"PingReply", encodeMessage(T::PingReply)},
        {"ErrorReply", encodeMessage<T::ErrorReply>(error)},
    };
}

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 15];
    }
    return out;
}

/** Non-comment lines of tests/golden/protocol_frames.txt. */
std::vector<std::string>
goldenFrameLines()
{
    std::ifstream in(std::string(CASQ_GOLDEN_DIR) +
                     "/protocol_frames.txt");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

/**
 * The wire bytes of every message type are pinned: "<type> <hex>"
 * per line.  On a mismatch the fresh capture is written to
 * protocol_frames.actual.txt in the working directory.
 */
TEST(ServiceProtocol, FramesMatchTheGolden)
{
    std::vector<std::string> fresh;
    for (const auto &[name, frame] : canonicalFrames())
        fresh.push_back(name + " " + hex(frame));
    const std::vector<std::string> golden = goldenFrameLines();
    if (fresh != golden) {
        std::ofstream out("protocol_frames.actual.txt");
        for (const std::string &line : fresh)
            out << line << "\n";
    }
    ASSERT_EQ(fresh.size(), golden.size())
        << "missing or stale tests/golden/protocol_frames.txt";
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(fresh[i], golden[i]) << "line " << i + 1;
}

/** Decode `frame` with the decoder of message type `type`. */
void
decodeAs(MessageType type, const std::vector<std::uint8_t> &frame)
{
    using T = MessageType;
    switch (type) {
      case T::SubmitRequest: decodeMessage<T::SubmitRequest>(frame); return;
      case T::StatusRequest: decodeMessage<T::StatusRequest>(frame); return;
      case T::ResultRequest: decodeMessage<T::ResultRequest>(frame); return;
      case T::CancelRequest: decodeMessage<T::CancelRequest>(frame); return;
      case T::StatusReply: decodeMessage<T::StatusReply>(frame); return;
      case T::ListReply: decodeMessage<T::ListReply>(frame); return;
      case T::StatsReply: decodeMessage<T::StatsReply>(frame); return;
      case T::ResultReply: decodeMessage<T::ResultReply>(frame); return;
      case T::CancelReply: decodeMessage<T::CancelReply>(frame); return;
      case T::ErrorReply: decodeMessage<T::ErrorReply>(frame); return;
      default: decodeMessage(frame, type); return;
    }
}

std::vector<std::uint8_t>
unhex(const std::string &text)
{
    std::vector<std::uint8_t> bytes;
    for (std::size_t k = 0; k + 1 < text.size(); k += 2)
        bytes.push_back(
            std::uint8_t(std::stoi(text.substr(k, 2), nullptr, 16)));
    return bytes;
}

/**
 * Every truncation and a byte-flip sweep (three masks at every byte)
 * of each golden frame, fed to its type's decoder: each must decode
 * or throw SerializeError, never anything else.
 */
TEST(ServiceProtocol, FuzzedFramesThrowOrDecode)
{
    const std::vector<std::string> golden = goldenFrameLines();
    ASSERT_EQ(golden.size(), 17u);
    std::size_t cases = 0, decoded = 0;
    for (const std::string &line : golden) {
        const std::string name = line.substr(0, line.find(' '));
        const std::vector<std::uint8_t> frame =
            unhex(line.substr(line.find(' ') + 1));
        const MessageType type = peekMessageType(frame);
        ASSERT_NO_THROW(decodeAs(type, frame)) << name;

        const auto attempt = [&](const std::vector<std::uint8_t> &bytes,
                                 const std::string &what) {
            ++cases;
            try {
                decodeAs(type, bytes);
                ++decoded;
            } catch (const SerializeError &) {
            } catch (const std::exception &err) {
                ADD_FAILURE() << name << " " << what << ": "
                              << err.what();
            }
        };
        for (std::size_t size = 0; size < frame.size(); ++size)
            attempt({frame.begin(), frame.begin() + size},
                    "truncated to " + std::to_string(size));
        for (std::size_t k = 0; k < frame.size(); ++k) {
            for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
                std::vector<std::uint8_t> flipped = frame;
                flipped[k] ^= mask;
                attempt(flipped, "byte " + std::to_string(k) + " ^ " +
                                     std::to_string(mask));
            }
        }
    }
    // Every truncation fails; flips of payload bytes mostly decode.
    EXPECT_GT(cases, 2000u);
    EXPECT_GT(decoded, 0u);
}

// ------------------------------------- corrupt-payload rendering

TEST(ServiceDiagnostics, CorruptSpecCarriesFileAndByteOffset)
{
    std::vector<std::uint8_t> bytes = testWork().encode();
    bytes.resize(bytes.size() / 2); // truncate mid-payload
    try {
        ShardSpec::decode(bytes);
        FAIL() << "truncated spec decoded";
    } catch (const SerializeError &err) {
        EXPECT_TRUE(err.hasOffset());
        const std::string line =
            describePayloadError("job.spec", err);
        EXPECT_EQ(line.find("job.spec: byte "), 0u) << line;
    }
}

TEST(ServiceDiagnostics, CorruptResultCarriesOffsetToo)
{
    std::vector<std::uint8_t> bytes =
        executeShard(testWork(2), 1).encode();
    bytes.resize(12);
    try {
        ShardResult::decode(bytes);
        FAIL() << "truncated result decoded";
    } catch (const SerializeError &err) {
        EXPECT_TRUE(err.hasOffset());
        EXPECT_NE(describePayloadError("r", err).find("byte "),
                  std::string::npos);
    }
}

TEST(ServiceDiagnostics, PathlessRenderingOmitsTheFileClause)
{
    const SerializeError plain("boom");
    EXPECT_EQ(describePayloadError("", plain), "boom");
    const SerializeError at("boom", 7);
    EXPECT_EQ(describePayloadError("", at), "byte 7: boom");
    EXPECT_EQ(describePayloadError("f.bin", plain), "f.bin: boom");
}

// -------------------------------------------------------- socket

TEST(ServiceSocket, FramesRoundTripOverAUnixSocket)
{
    const std::string path =
        testing::TempDir() + "casq-sock-test.sock";
    LocalListener listener = LocalListener::bind(path);

    std::thread server([&listener] {
        LocalSocket peer = listener.accept();
        ASSERT_TRUE(peer.valid());
        for (;;) {
            const auto frame = peer.recvFrame();
            if (!frame)
                return; // client done
            std::vector<std::uint8_t> echo = *frame;
            echo.push_back(0x5a);
            peer.sendFrame(echo);
        }
    });

    {
        LocalSocket client = LocalSocket::connect(path);
        const std::vector<std::uint8_t> empty;
        client.sendFrame(empty);
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->size(), 1u);

        std::vector<std::uint8_t> big(100000);
        for (std::size_t k = 0; k < big.size(); ++k)
            big[k] = std::uint8_t(k * 31);
        client.sendFrame(big);
        reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->size(), big.size() + 1);
        EXPECT_TRUE(std::equal(big.begin(), big.end(),
                               reply->begin()));
    } // client closes; server sees EOF and exits

    server.join();
    listener.close();
}

TEST(ServiceSocket, CloseUnblocksAccept)
{
    const std::string path =
        testing::TempDir() + "casq-sock-close.sock";
    LocalListener listener = LocalListener::bind(path);
    std::thread closer([&listener] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        listener.close();
    });
    const LocalSocket sock = listener.accept();
    EXPECT_FALSE(sock.valid());
    closer.join();
}

} // namespace
} // namespace casq
