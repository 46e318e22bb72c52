/**
 * @file
 * casq_job: client for the casq_serve daemon.
 *
 *   $ casq_job submit --socket /tmp/casq.sock --id demo \
 *         --qubits 6 --depth 8 --instances 8 --traj 120 --shards 4
 *   $ casq_job status --socket /tmp/casq.sock --id demo
 *   $ casq_job result --socket /tmp/casq.sock --id demo --wait
 *   $ casq_job list   --socket /tmp/casq.sock
 *   $ casq_job stats  --socket /tmp/casq.sock
 *   $ casq_job cancel --socket /tmp/casq.sock --id demo
 *   $ casq_job shutdown --socket /tmp/casq.sock
 *
 * `submit` builds the same synthetic-chain workload as `casq_shard
 * plan` (and casq_compile), and `result` prints the same
 * "<Z_q> = mean +- stderr" estimate lines as `casq_compile
 * --simulate` -- with --hexfloat they are bit-exact, so a job
 * served through the daemon diffs clean against a single-process
 * run of the same spec.  Estimates go to stdout, narration to
 * stderr.
 *
 * Exit codes: 0 success, 1 failure, 75 (EX_TEMPFAIL) backpressure
 * -- the queue was full, nothing is wrong with the job; back off
 * and resubmit.
 */

#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "service/protocol.hh"
#include "service/socket.hh"
#include "tool_common.hh"

using namespace casq;

namespace {

constexpr int kExitBackpressure = 75; //!< EX_TEMPFAIL

int
usage(std::ostream &os, int code)
{
    os << "usage: casq_job <command> --socket PATH [options]\n"
          "\n"
          "commands:\n"
          "  submit  --id ID [workload options] [--shards S]\n"
          "  status  --id ID\n"
          "  list\n"
          "  stats\n"
          "  result  --id ID [--wait] [--hexfloat]\n"
          "  cancel  --id ID\n"
          "  shutdown\n"
          "  ping\n"
          "\n"
          "submit workload options (casq_shard plan semantics):\n"
          "  --qubits N --depth D --strategy NAME\n"
          "  --backend NAME --backend-seed X\n"
          "  --instances M --traj T --seed S --compile-seed C\n"
          "  --shards S --no-twirl --native --no-prefix-cache\n"
          "  --sim-backend auto|dense|stabilizer\n"
          "  --noise RECIPE (base[:scale] + extras; docs/noise.md)\n"
          "  --prefix-state auto|off\n";
    return code;
}

using tool::value;

/** One request/reply round trip; ErrorReply rethrows typed. */
std::vector<std::uint8_t>
roundTrip(const std::string &socket_path,
          const std::vector<std::uint8_t> &request)
{
    LocalSocket sock = LocalSocket::connect(socket_path);
    sock.sendFrame(request);
    const auto reply = sock.recvFrame();
    if (!reply) {
        throw ServiceError(
            "daemon closed the connection without a reply");
    }
    if (peekMessageType(*reply) == MessageType::ErrorReply)
        decodeMessage<MessageType::ErrorReply>(*reply).raise();
    return *reply;
}

void
printJob(const JobProgress &job)
{
    std::cout << "job " << job.id << ": " << jobStateName(job.state)
              << " (" << job.shardsDone << "/" << job.shards.size()
              << " shards";
    if (job.retries)
        std::cout << ", " << job.retries << " retried";
    std::cout << ")";
    if (job.trajectoriesDone) {
        std::cout << " " << job.trajectoriesDone << "/"
                  << job.trajectories << " trajectories";
        if (job.prefixStateHits)
            std::cout << " (" << job.prefixStateHits
                      << " prefix-forked)";
        if (job.trajectoriesPerSecond > 0.0) {
            std::cout << " @ " << std::fixed
                      << std::setprecision(1)
                      << job.trajectoriesPerSecond << "/s"
                      << std::defaultfloat;
        }
    }
    if (!job.error.empty())
        std::cout << " -- " << job.error;
    std::cout << "\n";
}

void
printShards(const JobProgress &job)
{
    for (std::size_t k = 0; k < job.shards.size(); ++k) {
        const ShardProgress &shard = job.shards[k];
        std::cout << "  shard " << k << ": "
                  << shardStateName(shard.state);
        if (shard.worker >= 0)
            std::cout << " worker " << shard.worker;
        if (shard.attempts > 1)
            std::cout << " attempts " << shard.attempts;
        if (shard.stolen)
            std::cout << " (stolen)";
        if (shard.state == ShardState::Done) {
            std::cout << " " << std::fixed << std::setprecision(1)
                      << shard.wallMillis << " ms"
                      << std::defaultfloat;
        }
        std::cout << "\n";
    }
}

int
cmdSubmit(const std::string &socket_path, int argc, char **argv)
{
    JobSpec job;
    tool::ChainWorkload workload;
    for (int i = 2; i < argc; ++i) {
        if (value(argc, argv, i, "--socket"))
            continue; // consumed by main
        if (const char *v = value(argc, argv, i, "--id")) {
            job.id = v;
            continue;
        }
        switch (workload.parseFlag("submit", argc, argv, i)) {
          case tool::FlagParse::Consumed: continue;
          case tool::FlagParse::Failed: return 1;
          case tool::FlagParse::Other: break;
        }
        std::cerr << "submit: unknown argument '" << argv[i]
                  << "'\n";
        return usage(std::cerr, 1);
    }
    if (job.id.empty()) {
        std::cerr << "submit: need --id ID\n";
        return 1;
    }
    workload.finish();
    job.work = std::move(workload.spec);

    decodeMessage(
        roundTrip(socket_path,
                  encodeMessage<MessageType::SubmitRequest>(job)),
        MessageType::SubmitReply);
    std::cerr << "submitted job '" << job.id << "' ("
              << job.work.instances << " instances, "
              << job.work.trajectories << " trajectories over "
              << job.shards() << " shard"
              << (job.shards() == 1 ? "" : "s") << ")\n";
    return 0;
}

int
cmdStatus(const std::string &socket_path, const std::string &id)
{
    const JobProgress job = decodeMessage<MessageType::StatusReply>(
        roundTrip(socket_path,
                  encodeMessage<MessageType::StatusRequest>(id)));
    printJob(job);
    printShards(job);
    return 0;
}

int
cmdList(const std::string &socket_path)
{
    const std::vector<JobProgress> jobs =
        decodeMessage<MessageType::ListReply>(roundTrip(
            socket_path, encodeMessage(MessageType::ListRequest)));
    if (jobs.empty()) {
        std::cout << "no jobs\n";
        return 0;
    }
    for (const JobProgress &job : jobs)
        printJob(job);
    return 0;
}

int
cmdStats(const std::string &socket_path)
{
    const ServiceTotals t = decodeMessage<MessageType::StatsReply>(
        roundTrip(socket_path, encodeMessage(MessageType::StatsRequest)));
    std::cout << "jobsAdmitted " << t.jobsAdmitted << "\n"
              << "jobsDone " << t.jobsDone << "\n"
              << "jobsFailed " << t.jobsFailed << "\n"
              << "jobsCancelled " << t.jobsCancelled << "\n"
              << "shardsExecuted " << t.shardsExecuted << "\n"
              << "shardFailures " << t.shardFailures << "\n"
              << "shardRetries " << t.shardRetries << "\n"
              << "shardsStolen " << t.shardsStolen << "\n"
              << "trajectoriesDone " << t.trajectoriesDone << "\n"
              << "prefixStateHits " << t.prefixStateHits << "\n"
              << std::fixed << std::setprecision(1) << "upMillis "
              << t.upMillis << "\n"
              << "trajectoriesPerSecond "
              << t.trajectoriesPerSecond << "\n";
    return 0;
}

int
cmdResult(const std::string &socket_path, const std::string &id,
          bool wait, bool hexfloat)
{
    const ResultReply reply = decodeMessage<MessageType::ResultReply>(
        roundTrip(socket_path,
                  encodeMessage<MessageType::ResultRequest>(
                      ResultRequest{id, wait})));

    if (reply.job.state != JobState::Done) {
        std::cerr << "job '" << id << "' "
                  << jobStateName(reply.job.state)
                  << (reply.job.error.empty()
                          ? std::string()
                          : ": " + reply.job.error)
                  << "\n";
        return 1;
    }
    std::cerr << "job '" << id << "' done: "
              << reply.result.trajectories << " trajectories, "
              << reply.result.means.size() << " observable"
              << (reply.result.means.size() == 1 ? "" : "s");
    if (reply.job.retries)
        std::cerr << ", " << reply.job.retries
                  << " shard retry/retries absorbed";
    std::cerr << "\n";

    // Exactly casq_compile --simulate's estimate lines; with
    // --hexfloat the bytes gate cross-process determinism in CI.
    if (hexfloat)
        std::cout << std::hexfloat;
    else
        std::cout << std::setprecision(6);
    for (std::size_t q = 0; q < reply.result.means.size(); ++q)
        std::cout << "<Z_" << q << "> = " << reply.result.means[q]
                  << " +- " << reply.result.stderrs[q] << "\n";
    return 0;
}

int
cmdCancel(const std::string &socket_path, const std::string &id)
{
    switch (decodeMessage<MessageType::CancelReply>(roundTrip(
        socket_path, encodeMessage<MessageType::CancelRequest>(id)))) {
      case JobService::CancelOutcome::Cancelled:
        std::cerr << "cancelled job '" << id << "'\n";
        return 0;
      case JobService::CancelOutcome::AlreadyTerminal:
        std::cerr << "job '" << id << "' already finished\n";
        return 0;
      case JobService::CancelOutcome::Unknown: break;
    }
    std::cerr << "unknown job '" << id << "'\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 1);
    const std::string command = argv[1];
    if (command == "--help" || command == "help")
        return usage(std::cout, 0);

    std::string socket_path;
    std::string id;
    bool wait = false;
    bool hexfloat = false;
    for (int i = 2; i < argc; ++i) {
        if (const char *v = value(argc, argv, i, "--socket"))
            socket_path = v;
        else if (const char *v = value(argc, argv, i, "--id"))
            id = v;
        else if (std::strcmp(argv[i], "--wait") == 0)
            wait = true;
        else if (std::strcmp(argv[i], "--hexfloat") == 0)
            hexfloat = true;
    }
    if (socket_path.empty()) {
        std::cerr << "need --socket PATH\n";
        return usage(std::cerr, 1);
    }

    try {
        if (command == "submit")
            return cmdSubmit(socket_path, argc, argv);
        if (command == "status" || command == "result" ||
            command == "cancel") {
            if (id.empty()) {
                std::cerr << command << ": need --id ID\n";
                return 1;
            }
        }
        if (command == "status")
            return cmdStatus(socket_path, id);
        if (command == "list")
            return cmdList(socket_path);
        if (command == "stats")
            return cmdStats(socket_path);
        if (command == "result")
            return cmdResult(socket_path, id, wait, hexfloat);
        if (command == "cancel")
            return cmdCancel(socket_path, id);
        if (command == "shutdown") {
            decodeMessage(
                roundTrip(socket_path,
                          encodeMessage(MessageType::ShutdownRequest)),
                MessageType::ShutdownReply);
            std::cerr << "daemon shutting down\n";
            return 0;
        }
        if (command == "ping") {
            decodeMessage(
                roundTrip(socket_path,
                          encodeMessage(MessageType::PingRequest)),
                MessageType::PingReply);
            std::cerr << "pong\n";
            return 0;
        }
    } catch (const BackpressureError &err) {
        std::cerr << "casq_job: " << err.what() << "\n";
        return kExitBackpressure;
    } catch (const std::exception &err) {
        std::cerr << "casq_job: " << tool::describeError("", err)
                  << "\n";
        return 1;
    }
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr, 1);
}
