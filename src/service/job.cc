#include "service/job.hh"

#include <cmath>
#include <limits>

#include "passes/pipeline.hh"
#include "sim/statevector.hh"

namespace casq {

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Scheduled: return "scheduled";
      case JobState::Running: return "running";
      case JobState::Merging: return "merging";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "unknown";
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
}

const char *
shardStateName(ShardState state)
{
    switch (state) {
      case ShardState::Pending: return "pending";
      case ShardState::Running: return "running";
      case ShardState::Done: return "done";
      case ShardState::Failed: return "failed";
    }
    return "unknown";
}

namespace {

bool
validIdChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' ||
           c == '-';
}

[[noreturn]] void
reject(const std::string &what)
{
    throw AdmissionError(what);
}

} // namespace

void
validateJobSpec(const JobSpec &job)
{
    if (job.id.empty())
        reject("job id must not be empty");
    if (job.id.size() > kMaxJobIdLength) {
        reject("job id exceeds " + std::to_string(kMaxJobIdLength) +
               " characters");
    }
    for (char c : job.id) {
        if (!validIdChar(c)) {
            reject("job id '" + job.id +
                   "' contains characters outside [A-Za-z0-9._-]");
        }
    }

    const ShardSpec &work = job.work;
    if (work.shardIndex != 0) {
        reject("job submissions carry shardIndex 0 (the scheduler "
               "assigns shard indices), got " +
               std::to_string(work.shardIndex));
    }
    if (!strategyFromName(work.strategy))
        reject("unknown strategy '" + work.strategy + "'");

    if (work.instances < 1)
        reject("ensemble must have at least 1 instance");
    if (work.instances > kMaxJobInstances) {
        reject("ensemble of " + std::to_string(work.instances) +
               " instances exceeds the admission bound of " +
               std::to_string(kMaxJobInstances));
    }
    if (work.trajectories < 1)
        reject("job must simulate at least 1 trajectory");

    if (work.shardCount < 1)
        reject("job must split into at least 1 shard");
    if (work.shardCount > kMaxJobShards) {
        reject(std::to_string(work.shardCount) +
               " shards exceed the admission bound of " +
               std::to_string(kMaxJobShards));
    }
    if (std::uint64_t(work.shardCount) >
        std::uint64_t(work.trajectories)) {
        reject(std::to_string(work.shardCount) +
               " shards for " + std::to_string(work.trajectories) +
               " trajectories: every shard must own at least one "
               "trajectory");
    }

    if (work.observables.empty())
        reject("job must estimate at least one observable");
    for (const PauliString &obs : work.observables) {
        if (obs.numQubits() != work.logical.numQubits()) {
            reject("observable width " +
                   std::to_string(obs.numQubits()) +
                   " does not match the " +
                   std::to_string(work.logical.numQubits()) +
                   "-qubit circuit");
        }
    }

    // The shard wire format stores per-shard slot counts as u32
    // (sim/shard.cc), and the merge materializes trajectories x
    // observables doubles; reject products the format cannot carry
    // before any shard math can overflow.
    const std::uint64_t slot_product =
        std::uint64_t(work.trajectories) *
        std::uint64_t(work.observables.size());
    if (slot_product >
        std::uint64_t(std::numeric_limits<std::uint32_t>::max())) {
        reject("trajectories x observables = " +
               std::to_string(slot_product) +
               " overflows the shard slot format (u32)");
    }

    // The fixed-topology recipes carry their own width; the
    // parameterized ones must agree with the circuit so
    // executeShard's backend/circuit width check cannot fail after
    // admission.
    if (work.backend == BackendRecipe::Linear ||
        work.backend == BackendRecipe::Ring) {
        if (work.backendQubits != work.logical.numQubits()) {
            reject("backend recipe builds " +
                   std::to_string(work.backendQubits) +
                   " qubits but the circuit has " +
                   std::to_string(work.logical.numQubits()));
        }
    }

    // The noise configuration was validated field by field when the
    // submission frame was decoded (decodeNoiseModel rejects unknown
    // flags, unknown extra kinds and non-finite or negative
    // parameters); re-check the invariants the workers rely on so a
    // spec constructed in-process cannot bypass them.
    if (!std::isfinite(work.noise.coherentScale) ||
        work.noise.coherentScale < 0.0)
        reject("noise coherentScale must be finite and >= 0");
    if (work.noise.extras.size() > 64) {
        reject(std::to_string(work.noise.extras.size()) +
               " extra noise sources exceed the format bound of 64");
    }
    for (const ExtraNoiseSpec &extra : work.noise.extras) {
        if (extra.kind != ExtraNoiseKind::CorrelatedDephasing &&
            extra.kind != ExtraNoiseKind::PhaseDrift)
            reject("unknown extra noise source kind");
        if (!std::isfinite(extra.param0) || extra.param0 < 0.0 ||
            !std::isfinite(extra.param1) || extra.param1 < 0.0)
            reject("extra noise source parameters must be finite "
                   "and >= 0");
    }

    // Substrates the worker would otherwise find it cannot use
    // mid-shard, aborting (and taking an in-process daemon with
    // it): a forced stabilizer run cannot simulate non-Clifford
    // noise draws, and a job that runs dense -- forced, or auto
    // routing under non-Clifford noise -- cannot exceed the
    // statevector limit.
    const SimBackendKind kind = work.simBackend;
    const std::size_t width = work.logical.numQubits();
    const bool too_wide = width > kMaxDenseQubits;
    std::string blocker;
    if (kind == SimBackendKind::Stabilizer ||
        (kind == SimBackendKind::Auto && too_wide))
        blocker = work.makeNoise().cliffordBlocker(work.makeBackend());
    if (kind == SimBackendKind::Stabilizer && !blocker.empty()) {
        reject("--sim-backend stabilizer cannot simulate this "
               "job's noise (" +
               blocker + "); use auto or dense");
    }
    const bool dense = kind == SimBackendKind::Dense ||
                       (kind == SimBackendKind::Auto && !blocker.empty());
    if (dense && too_wide) {
        reject(std::to_string(width) +
               " qubits exceed the dense statevector limit (" +
               std::to_string(kMaxDenseQubits) + ")" +
               (blocker.empty() ? std::string()
                                : "; auto routing runs this job "
                                  "dense (" + blocker + ")") +
               "; wider jobs need Pauli noise and --sim-backend "
               "auto or stabilizer");
    }
}

} // namespace casq
