/**
 * @file
 * Shared glue for the command-line tools (casq_shard, casq_serve,
 * casq_job): every payload-decode failure and every top-level error
 * funnels through the helpers here, so all three tools render the
 * same canonical diagnostic -- "file: byte N: message" for corrupt
 * payloads (describePayloadError), "file: message" for other file
 * failures, and "<tool>: message" at the top level.  The
 * synthetic-chain workload flags of `casq_shard plan` and `casq_job
 * submit` are parsed here too, so both build the same spec.
 */

#ifndef CASQ_TOOLS_TOOL_COMMON_HH
#define CASQ_TOOLS_TOOL_COMMON_HH

#include <cstdint>
#include <cstring>
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/serialize.hh"
#include "sim/shard.hh"

namespace casq::tool {

/**
 * The one canonical error rendering: SerializeErrors (corrupt or
 * truncated payloads) become "path: byte N: message"; anything else
 * becomes "path: message" (or just the message without a path).
 */
inline std::string
describeError(const std::string &path, const std::exception &err)
{
    if (const auto *payload =
            dynamic_cast<const SerializeError *>(&err)) {
        return describePayloadError(path, *payload);
    }
    if (path.empty())
        return err.what();
    return path + ": " + err.what();
}

/** Read a payload file, rendering I/O failures canonically. */
inline std::vector<std::uint8_t>
readPayloadFile(const std::string &path)
{
    try {
        return readBinaryFile(path);
    } catch (const SerializeError &err) {
        throw SerializeError(describePayloadError(path, err));
    }
}

/**
 * Decode in-memory payload bytes read from `path`; a decode failure
 * rethrows SerializeError with the canonical "path: byte N:"
 * rendering already applied.
 */
template <class Payload>
Payload
decodePayload(const std::string &path,
              const std::vector<std::uint8_t> &bytes)
{
    try {
        return Payload::decode(bytes);
    } catch (const SerializeError &err) {
        throw SerializeError(describePayloadError(path, err));
    }
}

/** Read + decode a payload file in one step. */
template <class Payload>
Payload
decodePayloadFile(const std::string &path)
{
    return decodePayload<Payload>(path, readPayloadFile(path));
}

/**
 * `casq_shard run`'s exit status when the engine rejects the spec
 * (a UserError: no attempt can run it).  The message is left at
 * --out in place of a result, so `casq_serve --spawn` can fail the
 * job with it instead of retrying the shard.
 */
constexpr int kExitRejected = 2;

/**
 * Top-level tool wrapper: run `body`, printing any escaped failure
 * as "<tool>: message" on stderr and returning the failure exit
 * code.
 */
template <class Body>
int
runTool(const char *tool, Body &&body)
{
    try {
        return body();
    } catch (const std::exception &err) {
        std::cerr << tool << ": " << describeError("", err) << "\n";
        return 1;
    }
}

/** --flag VALUE helper over argv[i..]; advances i past VALUE. */
inline const char *
value(int argc, char **argv, int &i, const char *flag)
{
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

/** What parseFlag did with argv[i]. */
enum class FlagParse
{
    Consumed, //!< a workload flag (and its value)
    Other,    //!< not a workload flag; the caller decides
    Failed,   //!< bad value; the diagnostic is already printed
};

/**
 * The synthetic-chain ensemble workload `casq_shard plan` and
 * `casq_job submit` describe on the command line: the ShardSpec
 * fields plus the chain's qubit count and depth.
 */
struct ChainWorkload
{
    ShardSpec spec;
    std::size_t qubits = 8;
    int depth = 16;

    /**
     * Consume argv[i] if it is a workload flag.  Bad values print
     * "<command>: ..." on stderr and return Failed.
     */
    FlagParse
    parseFlag(const char *command, int argc, char **argv, int &i)
    {
        constexpr long long kMaxInt = std::numeric_limits<int>::max();
        if (const char *v = value(argc, argv, i, "--shards")) {
            spec.shardCount = std::uint32_t(
                bench::checkedInt("--shards", v, 1, 1 << 20));
        } else if (const char *v = value(argc, argv, i, "--qubits")) {
            qubits = std::size_t(
                bench::checkedInt("--qubits", v, 1, 1 << 20));
        } else if (const char *v = value(argc, argv, i, "--depth")) {
            depth = int(bench::checkedInt("--depth", v, 0, kMaxInt));
        } else if (const char *v =
                       value(argc, argv, i, "--strategy")) {
            spec.strategy = v;
        } else if (const char *v =
                       value(argc, argv, i, "--backend")) {
            spec.backend = backendRecipeFromName(v);
        } else if (const char *v =
                       value(argc, argv, i, "--backend-seed")) {
            spec.backendSeed =
                bench::checkedUInt64("--backend-seed", v);
        } else if (const char *v =
                       value(argc, argv, i, "--instances")) {
            spec.instances = int(
                bench::checkedInt("--instances", v, 1, kMaxInt));
        } else if (const char *v = value(argc, argv, i, "--traj")) {
            spec.trajectories =
                int(bench::checkedInt("--traj", v, 1, kMaxInt));
        } else if (const char *v = value(argc, argv, i, "--seed")) {
            spec.seed = bench::checkedUInt64("--seed", v);
        } else if (const char *v =
                       value(argc, argv, i, "--compile-seed")) {
            spec.compileSeed =
                bench::checkedUInt64("--compile-seed", v);
        } else if (const char *v =
                       value(argc, argv, i, "--sim-backend")) {
            const auto kind = simBackendKindFromName(v);
            if (!kind) {
                std::cerr << command
                          << ": unknown simulation backend '" << v
                          << "'\n";
                return FlagParse::Failed;
            }
            spec.simBackend = *kind;
        } else if (const char *v = value(argc, argv, i, "--noise")) {
            try {
                spec.noise = noiseModelFromRecipe(v);
            } catch (const SerializeError &err) {
                std::cerr << command << ": bad noise recipe '" << v
                          << "': " << err.what() << "\n";
                return FlagParse::Failed;
            }
        } else if (const char *v =
                       value(argc, argv, i, "--prefix-state")) {
            const auto mode = prefixStateModeFromName(v);
            if (!mode) {
                std::cerr << command
                          << ": unknown prefix-state mode '" << v
                          << "'\n";
                return FlagParse::Failed;
            }
            spec.prefixState = *mode;
        } else if (std::strcmp(argv[i], "--no-twirl") == 0) {
            spec.twirl = false;
        } else if (std::strcmp(argv[i], "--native") == 0) {
            spec.lowerToNative = true;
        } else if (std::strcmp(argv[i], "--no-prefix-cache") == 0) {
            spec.prefixCache = false;
        } else {
            return FlagParse::Other;
        }
        return FlagParse::Consumed;
    }

    /**
     * Build the chain circuit and estimate <Z_q> on every qubit of
     * a device of the chain's width.
     */
    void
    finish()
    {
        spec.logical = bench::syntheticChainWorkload(
            qubits, depth, /*idle_layers=*/true);
        spec.backendQubits = std::uint32_t(qubits);
        for (std::uint32_t q = 0; q < qubits; ++q)
            spec.observables.push_back(
                PauliString::single(qubits, q, PauliOp::Z));
    }
};

} // namespace casq::tool

#endif // CASQ_TOOLS_TOOL_COMMON_HH
