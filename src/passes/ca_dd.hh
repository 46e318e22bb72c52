/**
 * @file
 * Context-Aware Dynamical Decoupling (paper Algorithm 1).
 *
 * Pipeline: build the crosstalk graph from the device; collect
 * jointly-idling delay groups from the scheduled circuit; split each
 * group recursively at its widest joint window; colour the idle
 * qubits against the crosstalk graph with the colours of active ECR
 * controls/targets pinned; insert the Walsh sequence of each colour
 * as real X pulses.
 */

#ifndef CASQ_PASSES_CA_DD_HH
#define CASQ_PASSES_CA_DD_HH

#include <map>
#include <vector>

#include "device/backend.hh"
#include "passes/coloring.hh"

namespace casq {

/**
 * Minimum idle duration worth decoupling (Dmin, ns), shared by the
 * CA-DD and uniform DD passes and the idle-window analysis.
 */
inline constexpr double kMinIdleNs = 150.0;

/** Highest Walsh row CA-DD's colouring may use (<= kMaxWalshRow). */
inline constexpr int kMaxDdColor = 15;

/** A set of overlapping, crosstalk-adjacent idle windows. */
struct JointDelayGroup
{
    double start = 0.0;
    double end = 0.0;
    std::vector<IdleWindow> members; //!< clipped to [start, end]

    double duration() const { return end - start; }
};

/**
 * Algorithm 1, CollectJointDelays: gather idle windows of at least
 * min_duration, group windows that overlap in time and are adjacent
 * on the crosstalk graph, and split each group recursively at the
 * member covering the most jointly-idle qubits.
 */
std::vector<JointDelayGroup> collectJointDelays(
    const ScheduledCircuit &schedule, const CrosstalkGraph &graph,
    double min_duration);

/** Colouring result of one joint delay group. */
struct ColoredGroup
{
    JointDelayGroup group;
    std::map<std::uint32_t, int> colors; //!< per idle qubit
    std::map<std::uint32_t, int> pinned; //!< active neighbours
    std::size_t slots = 4;
};

/**
 * Algorithm 1, ColorGraph: pin the colours of gate qubits running
 * concurrently with the group on crosstalk-adjacent qubits, then
 * greedily colour the idle members.
 */
ColoredGroup colorGroup(const JointDelayGroup &group,
                        const ScheduledCircuit &schedule,
                        const CrosstalkGraph &graph, int max_color);

/**
 * The full CA-DD pass: returns a copy of the schedule dressed with
 * context-aware DD pulses on the idle windows of at least
 * kMinIdleNs, coloured up to kMaxDdColor against the device's full
 * crosstalk graph.
 */
ScheduledCircuit applyCaDd(const ScheduledCircuit &schedule,
                           const Backend &backend);

/** Context-unaware baselines (paper's "DD" comparison curves). */
enum class UniformDdStyle
{
    Aligned,           //!< X2 at 1/4, 3/4 on every idle window
    StaggeredByParity, //!< X2 offset on odd-numbered qubits
};

/**
 * Apply the same X2 sequence to every idle window of at least
 * kMinIdleNs, no context.
 */
ScheduledCircuit applyUniformDd(const ScheduledCircuit &schedule,
                                const GateDurations &durations,
                                UniformDdStyle style);

} // namespace casq

#endif // CASQ_PASSES_CA_DD_HH
