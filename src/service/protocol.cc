#include "service/protocol.hh"

namespace casq {

namespace {

/** Request types are 1..8, reply types 65..72, plus ErrorReply. */
bool
knownMessageType(std::uint8_t type)
{
    return (type >= std::uint8_t(MessageType::SubmitRequest) &&
            type <= std::uint8_t(MessageType::PingRequest)) ||
           (type >= std::uint8_t(MessageType::SubmitReply) &&
            type <= std::uint8_t(MessageType::PingReply)) ||
           type == std::uint8_t(MessageType::ErrorReply);
}

/** Read and check magic, version and type: the one header check. */
MessageType
readHeader(ByteReader &r)
{
    if (r.u32() != kProtocolMagic)
        throw SerializeError("not a casq service frame "
                             "(bad magic)",
                             0);
    const std::uint8_t version = r.u8();
    if (version != kProtocolVersion) {
        throw SerializeError(
            "unsupported protocol version " +
                std::to_string(version) + " (expected " +
                std::to_string(kProtocolVersion) + ")",
            4);
    }
    const std::uint8_t type = r.u8();
    if (!knownMessageType(type)) {
        throw SerializeError("unknown message type " +
                                 std::to_string(type),
                             5);
    }
    return MessageType(type);
}

void
writeRunResult(ByteWriter &w, const RunResult &result)
{
    w.u32(std::uint32_t(result.means.size()));
    for (double mean : result.means)
        w.f64(mean);
    for (double err : result.stderrs)
        w.f64(err);
    w.i32(result.trajectories);
}

RunResult
readRunResult(ByteReader &r)
{
    RunResult result;
    const std::size_t observables = r.count(16);
    result.means.resize(observables);
    result.stderrs.resize(observables);
    for (double &mean : result.means)
        mean = r.f64();
    for (double &err : result.stderrs)
        err = r.f64();
    result.trajectories = r.i32();
    return result;
}

} // namespace

MessageType
peekMessageType(const std::vector<std::uint8_t> &frame)
{
    ByteReader r(frame);
    return readHeader(r);
}

ByteWriter
frameWriter(MessageType type)
{
    ByteWriter w;
    w.u32(kProtocolMagic);
    w.u8(kProtocolVersion);
    w.u8(std::uint8_t(type));
    return w;
}

ByteReader
frameReader(const std::vector<std::uint8_t> &frame, MessageType want)
{
    ByteReader r(frame);
    const MessageType type = readHeader(r);
    if (type != want) {
        throw SerializeError(
            "unexpected message type " +
                std::to_string(std::uint8_t(type)) + " (expected " +
                std::to_string(std::uint8_t(want)) + ")",
            5);
    }
    return r;
}

std::vector<std::uint8_t>
encodeMessage(MessageType type)
{
    return frameWriter(type).take();
}

void
decodeMessage(const std::vector<std::uint8_t> &frame, MessageType type)
{
    frameReader(frame, type).requireEnd();
}

// ---------------------------------------------------------- bodies

void
writeBody(ByteWriter &w, const std::string &jobId)
{
    w.str(jobId);
}

void
readBody(ByteReader &r, std::string &jobId)
{
    jobId = r.str();
}

void
writeBody(ByteWriter &w, const JobSpec &job)
{
    const std::vector<std::uint8_t> spec = job.work.encode();
    w.str(job.id);
    w.str(std::string(spec.begin(), spec.end()));
}

void
readBody(ByteReader &r, JobSpec &job)
{
    job.id = r.str();
    const std::string spec = r.str();
    job.work = ShardSpec::decode(
        std::vector<std::uint8_t>(spec.begin(), spec.end()));
}

void
writeBody(ByteWriter &w, const ResultRequest &request)
{
    w.str(request.id);
    w.boolean(request.wait);
}

void
readBody(ByteReader &r, ResultRequest &request)
{
    request.id = r.str();
    request.wait = r.boolean();
}

void
writeBody(ByteWriter &w, const JobProgress &job)
{
    w.str(job.id);
    w.u8(std::uint8_t(job.state));
    w.str(job.error);
    w.u32(std::uint32_t(job.shards.size()));
    for (const ShardProgress &shard : job.shards) {
        w.u8(std::uint8_t(shard.state));
        w.u32(shard.attempts);
        w.i32(shard.worker);
        w.boolean(shard.stolen);
        w.f64(shard.wallMillis);
    }
    w.u32(job.shardsDone);
    w.u32(job.retries);
    w.i32(job.trajectories);
    w.u32(job.observables);
    w.u64(job.trajectoriesDone);
    w.u64(job.prefixStateHits);
    w.f64(job.sinceSubmitMillis);
    w.f64(job.activeMillis);
    w.f64(job.trajectoriesPerSecond);
}

void
readBody(ByteReader &r, JobProgress &job)
{
    job.id = r.str();
    const std::uint8_t state = r.u8();
    if (state > std::uint8_t(JobState::Cancelled)) {
        throw SerializeError("job state " + std::to_string(state) +
                                 " out of range",
                             r.offset());
    }
    job.state = JobState(state);
    job.error = r.str();
    const std::size_t shards = r.count(11);
    job.shards.resize(shards);
    for (ShardProgress &shard : job.shards) {
        const std::uint8_t shard_state = r.u8();
        if (shard_state > std::uint8_t(ShardState::Failed)) {
            throw SerializeError("shard state " +
                                     std::to_string(shard_state) +
                                     " out of range",
                                 r.offset());
        }
        shard.state = ShardState(shard_state);
        shard.attempts = r.u32();
        shard.worker = r.i32();
        shard.stolen = r.boolean();
        shard.wallMillis = r.f64();
    }
    job.shardsDone = r.u32();
    job.retries = r.u32();
    job.trajectories = r.i32();
    job.observables = r.u32();
    job.trajectoriesDone = r.u64();
    job.prefixStateHits = r.u64();
    job.sinceSubmitMillis = r.f64();
    job.activeMillis = r.f64();
    job.trajectoriesPerSecond = r.f64();
}

void
writeBody(ByteWriter &w, const ServiceTotals &totals)
{
    w.u64(totals.jobsAdmitted);
    w.u64(totals.jobsDone);
    w.u64(totals.jobsFailed);
    w.u64(totals.jobsCancelled);
    w.u64(totals.shardsExecuted);
    w.u64(totals.shardFailures);
    w.u64(totals.shardRetries);
    w.u64(totals.shardsStolen);
    w.u64(totals.trajectoriesDone);
    w.u64(totals.prefixStateHits);
    w.f64(totals.upMillis);
    w.f64(totals.trajectoriesPerSecond);
}

void
readBody(ByteReader &r, ServiceTotals &totals)
{
    totals.jobsAdmitted = r.u64();
    totals.jobsDone = r.u64();
    totals.jobsFailed = r.u64();
    totals.jobsCancelled = r.u64();
    totals.shardsExecuted = r.u64();
    totals.shardFailures = r.u64();
    totals.shardRetries = r.u64();
    totals.shardsStolen = r.u64();
    totals.trajectoriesDone = r.u64();
    totals.prefixStateHits = r.u64();
    totals.upMillis = r.f64();
    totals.trajectoriesPerSecond = r.f64();
}

void
writeBody(ByteWriter &w, const std::vector<JobProgress> &jobs)
{
    w.u32(std::uint32_t(jobs.size()));
    for (const JobProgress &job : jobs)
        writeBody(w, job);
}

void
readBody(ByteReader &r, std::vector<JobProgress> &jobs)
{
    jobs.resize(r.count(1));
    for (JobProgress &job : jobs)
        readBody(r, job);
}

void
writeBody(ByteWriter &w, const ResultReply &reply)
{
    writeBody(w, reply.job);
    writeRunResult(w, reply.result);
}

void
readBody(ByteReader &r, ResultReply &reply)
{
    readBody(r, reply.job);
    reply.result = readRunResult(r);
}

void
writeBody(ByteWriter &w, JobService::CancelOutcome outcome)
{
    w.u8(std::uint8_t(outcome));
}

void
readBody(ByteReader &r, JobService::CancelOutcome &outcome)
{
    const std::uint8_t value = r.u8();
    if (value >
        std::uint8_t(JobService::CancelOutcome::AlreadyTerminal)) {
        throw SerializeError("cancel outcome " +
                                 std::to_string(value) +
                                 " out of range",
                             r.offset());
    }
    outcome = JobService::CancelOutcome(value);
}

void
writeBody(ByteWriter &w, const ErrorReply &reply)
{
    w.u8(std::uint8_t(reply.kind));
    w.str(reply.message);
}

void
readBody(ByteReader &r, ErrorReply &reply)
{
    const std::uint8_t kind = r.u8();
    if (kind > std::uint8_t(ErrorReply::Kind::Payload)) {
        throw SerializeError("error kind " + std::to_string(kind) +
                                 " out of range",
                             r.offset());
    }
    reply.kind = ErrorReply::Kind(kind);
    reply.message = r.str();
}

void
ErrorReply::raise() const
{
    switch (kind) {
      case Kind::Admission: throw AdmissionError(message);
      case Kind::Backpressure: throw BackpressureError(message);
      case Kind::Payload: throw SerializeError(message);
      case Kind::Service: break;
    }
    throw ServiceError(message);
}

} // namespace casq
