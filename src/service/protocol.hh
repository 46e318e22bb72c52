/**
 * @file
 * Wire protocol between casq_job (client) and casq_serve (daemon).
 *
 * Transport framing (service/socket.hh) delivers whole frames; this
 * header defines what a frame contains.  Every message is a
 * versioned, endian-stable payload in the house serialization
 * format (common/serialize.hh):
 *
 *   u32 magic 'CSQP' | u8 version | u8 type | body (may be empty)
 *
 * with the body encoded field-by-field little-endian; MessageBody
 * names each type's body.  tests/golden/protocol_frames.txt pins
 * the bytes of one frame of every type.  Job specs
 * travel as embedded ShardSpec payloads -- the exact bytes
 * `casq_shard plan` writes -- so the daemon re-validates them with
 * the same decoder and the job fingerprint machinery applies
 * unchanged.
 *
 * Malformed frames (bad magic, version skew, truncation, trailing
 * bytes, out-of-range enums) raise SerializeError with a byte
 * offset; both tools render those through describePayloadError().
 * Request/reply pairing is strict: every request type has exactly
 * one success reply type, and any request can be answered with
 * ErrorReply instead.
 */

#ifndef CASQ_SERVICE_PROTOCOL_HH
#define CASQ_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "service/job_service.hh"

namespace casq {

/** 'CSQP' little-endian. */
constexpr std::uint32_t kProtocolMagic = 0x50515343u;

/**
 * Protocol version history:
 *   1 -- initial protocol.
 *   2 -- JobProgress and ServiceTotals carry prefixStateHits
 *        (trajectories forked from a prefix-state checkpoint).
 *   3 -- job specs embed shard payloads in format v4, which carries
 *        the full serialized noise configuration instead of a
 *        3-value recipe byte (docs/noise.md).
 */
constexpr std::uint8_t kProtocolVersion = 3;

enum class MessageType : std::uint8_t
{
    // requests (client -> daemon)
    SubmitRequest = 1,
    StatusRequest = 2,
    ListRequest = 3,
    StatsRequest = 4,
    ResultRequest = 5,
    CancelRequest = 6,
    ShutdownRequest = 7,
    PingRequest = 8,

    // replies (daemon -> client)
    SubmitReply = 65,
    StatusReply = 66,
    ListReply = 67,
    StatsReply = 68,
    ResultReply = 69,
    CancelReply = 70,
    ShutdownReply = 71,
    PingReply = 72,
    ErrorReply = 127,
};

/**
 * Read a frame's header and return its message type without
 * consuming the body (the dispatcher peeks, then hands the frame to
 * that type's decoder).  Magic, version and type are checked here
 * and nowhere else: every decoder reads its header through the same
 * routine.  Throws SerializeError.
 */
MessageType peekMessageType(const std::vector<std::uint8_t> &frame);

// ---------------------------------------------------------- bodies
//
// A message is a type plus at most one body.  List, Stats, Shutdown
// and Ping requests and Submit, Shutdown and Ping replies carry
// none: they are header-only frames.  Status and Cancel requests
// carry a job id (a plain string).

/** ResultRequest body. */
struct ResultRequest
{
    std::string id;
    bool wait = false; //!< block until the job is terminal
};

/** ResultReply body. */
struct ResultReply
{
    JobProgress job;  //!< terminal snapshot
    RunResult result; //!< merged estimate (Done jobs)
};

/**
 * ErrorReply body.  Any request can be answered with it instead of
 * its success reply.  `kind` preserves the error taxonomy across the
 * wire so the client can rethrow the matching exception type
 * (backpressure is retryable, admission is not).
 */
struct ErrorReply
{
    enum class Kind : std::uint8_t
    {
        Service = 0,      //!< ServiceError
        Admission = 1,    //!< AdmissionError
        Backpressure = 2, //!< BackpressureError
        Payload = 3,      //!< SerializeError while decoding
    };

    Kind kind = Kind::Service;
    std::string message;

    /** Rethrow as the exception type `kind` names. */
    [[noreturn]] void raise() const;
};

/** The body a message type carries; header-only types have none. */
template <MessageType> struct MessageBody;
template <> struct MessageBody<MessageType::SubmitRequest>
{
    using type = JobSpec;
};
template <> struct MessageBody<MessageType::StatusRequest>
{
    using type = std::string;
};
template <> struct MessageBody<MessageType::ResultRequest>
{
    using type = ResultRequest;
};
template <> struct MessageBody<MessageType::CancelRequest>
{
    using type = std::string;
};
template <> struct MessageBody<MessageType::StatusReply>
{
    using type = JobProgress;
};
template <> struct MessageBody<MessageType::ListReply>
{
    using type = std::vector<JobProgress>;
};
template <> struct MessageBody<MessageType::StatsReply>
{
    using type = ServiceTotals;
};
template <> struct MessageBody<MessageType::ResultReply>
{
    using type = ResultReply;
};
template <> struct MessageBody<MessageType::CancelReply>
{
    using type = JobService::CancelOutcome;
};
template <> struct MessageBody<MessageType::ErrorReply>
{
    using type = ErrorReply;
};

template <MessageType T>
using BodyOf = typename MessageBody<T>::type;

/** One codec per body kind; decoders range-check every enum. */
void writeBody(ByteWriter &w, const std::string &jobId);
void readBody(ByteReader &r, std::string &jobId);
void writeBody(ByteWriter &w, const JobSpec &job);
void readBody(ByteReader &r, JobSpec &job);
void writeBody(ByteWriter &w, const ResultRequest &request);
void readBody(ByteReader &r, ResultRequest &request);
void writeBody(ByteWriter &w, const JobProgress &job);
void readBody(ByteReader &r, JobProgress &job);
void writeBody(ByteWriter &w, const std::vector<JobProgress> &jobs);
void readBody(ByteReader &r, std::vector<JobProgress> &jobs);
void writeBody(ByteWriter &w, const ServiceTotals &totals);
void readBody(ByteReader &r, ServiceTotals &totals);
void writeBody(ByteWriter &w, const ResultReply &reply);
void readBody(ByteReader &r, ResultReply &reply);
void writeBody(ByteWriter &w, JobService::CancelOutcome outcome);
void readBody(ByteReader &r, JobService::CancelOutcome &outcome);
void writeBody(ByteWriter &w, const ErrorReply &reply);
void readBody(ByteReader &r, ErrorReply &reply);

// --------------------------------------------------------- framing

/** A writer holding the header of a `type` frame. */
ByteWriter frameWriter(MessageType type);

/**
 * A reader past the header of `frame`, which must be a `want`
 * message.  Throws SerializeError.
 */
ByteReader frameReader(const std::vector<std::uint8_t> &frame,
                       MessageType want);

/** Encode a header-only message. */
std::vector<std::uint8_t> encodeMessage(MessageType type);

/** Check that `frame` is exactly a header-only `type` message. */
void decodeMessage(const std::vector<std::uint8_t> &frame,
                   MessageType type);

/** Encode a `T` message carrying `body`. */
template <MessageType T>
std::vector<std::uint8_t>
encodeMessage(const BodyOf<T> &body)
{
    ByteWriter w = frameWriter(T);
    writeBody(w, body);
    return w.take();
}

/** Decode the body of a `T` message; throws SerializeError. */
template <MessageType T>
BodyOf<T>
decodeMessage(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = frameReader(frame, T);
    BodyOf<T> body{};
    readBody(r, body);
    r.requireEnd();
    return body;
}

} // namespace casq

#endif // CASQ_SERVICE_PROTOCOL_HH
