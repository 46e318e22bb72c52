#include "passes/ca_dd.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hh"
#include "passes/dd_sequences.hh"
#include "passes/walsh.hh"
#include "sim/timeline.hh"

namespace casq {

namespace {

bool
overlaps(const IdleWindow &a, const IdleWindow &b)
{
    return a.start < b.end - 1e-9 && b.start < a.end - 1e-9;
}

bool
overlapsSpan(const IdleWindow &w, double start, double end)
{
    return w.start < end - 1e-9 && start < w.end - 1e-9;
}

/**
 * The echoed two-qubit gates of a schedule in start order, built once
 * per pass so that each window or group visits only the gates near
 * its span instead of rescanning the whole schedule.
 */
class EchoIndex
{
  public:
    explicit EchoIndex(const ScheduledCircuit &schedule)
    {
        for (const auto &timed : schedule.instructions()) {
            if (!isEchoedTwoQubitOp(timed.inst.op) ||
                timed.duration <= 0.0) {
                continue;
            }
            _gates.push_back(&timed);
            _longest = std::max(_longest, timed.duration);
        }
        std::stable_sort(_gates.begin(), _gates.end(),
                         [](const TimedInstruction *a,
                            const TimedInstruction *b) {
                             return a->start < b->start;
                         });
    }

    /**
     * Visit a superset of the gates overlapping [start, end): every
     * gate that starts before `end` and could still be running at
     * `start`.  The pointers address the schedule, so comparing them
     * compares schedule positions.
     */
    template <typename Visit>
    void
    forEachNear(double start, double end, Visit &&visit) const
    {
        // A gate running at `start` began less than the longest gate
        // duration earlier (the margin absorbs rounding).
        auto it = std::lower_bound(
            _gates.begin(), _gates.end(), start - _longest - 1e-6,
            [](const TimedInstruction *gate, double t) {
                return gate->start < t;
            });
        for (; it != _gates.end() && (*it)->start < end; ++it)
            visit(**it);
    }

  private:
    std::vector<const TimedInstruction *> _gates;
    double _longest = 0.0;
};

/**
 * Union-find grouping of windows by overlap + adjacency.  Candidates
 * for window i come only from the time-sorted windows of i's
 * crosstalk neighbours, but the unite(i, j) calls keep the
 * lexicographic (i, j) order an all-pairs scan makes.  That order
 * decides the union-find roots, the roots decide the group order,
 * and collectJointDelays' unstable sort passes the group order on to
 * the schedule bytes.
 */
std::vector<std::vector<IdleWindow>>
groupWindows(const std::vector<IdleWindow> &windows,
             const CrosstalkGraph &graph)
{
    const std::size_t n = windows.size();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t(0));
    auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };

    // Window indices by (qubit, start): each qubit's windows form a
    // time-sorted run.
    auto key = [&](std::size_t j) {
        return std::make_pair(windows[j].qubit, windows[j].start);
    };
    std::vector<std::size_t> by_qubit(n);
    std::iota(by_qubit.begin(), by_qubit.end(), std::size_t(0));
    std::sort(by_qubit.begin(), by_qubit.end(),
              [&](std::size_t a, std::size_t b) {
                  return key(a) < key(b);
              });
    double longest = 0.0;
    for (const auto &w : windows)
        longest = std::max(longest, w.duration());

    std::vector<std::size_t> partners;
    for (std::size_t i = 0; i < n; ++i) {
        const IdleWindow &a = windows[i];
        partners.clear();
        for (std::uint32_t r : graph.neighbors(a.qubit)) {
            // A window overlapping a began less than the longest
            // window earlier (the margin absorbs rounding).
            auto it = std::lower_bound(
                by_qubit.begin(), by_qubit.end(),
                std::make_pair(r, a.start - longest - 1e-6),
                [&](std::size_t j,
                    const std::pair<std::uint32_t, double> &bound) {
                    return key(j) < bound;
                });
            for (; it != by_qubit.end() && windows[*it].qubit == r &&
                   windows[*it].start < a.end;
                 ++it) {
                if (*it > i && overlaps(a, windows[*it]))
                    partners.push_back(*it);
            }
        }
        std::sort(partners.begin(), partners.end());
        for (std::size_t j : partners)
            parent[find(i)] = find(j);
    }

    // Groups in root order, members in window order.
    std::vector<std::vector<IdleWindow>> by_root(n);
    for (std::size_t i = 0; i < n; ++i)
        by_root[find(i)].push_back(windows[i]);
    std::vector<std::vector<IdleWindow>> out;
    for (auto &group : by_root)
        if (!group.empty())
            out.push_back(std::move(group));
    return out;
}

/** Recursive split of one group (Algorithm 1, lines 10-18). */
void
splitGroup(std::vector<IdleWindow> group, double min_duration,
           const CrosstalkGraph &graph,
           std::vector<JointDelayGroup> &out)
{
    if (group.empty())
        return;
    if (group.size() == 1) {
        out.push_back(JointDelayGroup{group[0].start, group[0].end,
                                      {group[0]}});
        return;
    }
    // Widest joint window: the member overlapped by the most
    // members (ties: the longest one).
    std::size_t best = 0;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        std::size_t count = 0;
        for (std::size_t j = 0; j < group.size(); ++j)
            if (overlaps(group[i], group[j]))
                ++count;
        const bool better =
            count > best_count ||
            (count == best_count &&
             group[i].duration() > group[best].duration());
        if (better) {
            best = i;
            best_count = count;
        }
    }
    const double span_start = group[best].start;
    const double span_end = group[best].end;

    JointDelayGroup joint{span_start, span_end, {}};
    std::vector<IdleWindow> before, after;
    for (const auto &w : group) {
        if (overlapsSpan(w, span_start, span_end)) {
            IdleWindow clipped = w;
            clipped.start = std::max(w.start, span_start);
            clipped.end = std::min(w.end, span_end);
            if (clipped.duration() >= min_duration)
                joint.members.push_back(clipped);
            // Residual pieces outside the span.  Like every other
            // window in this pass, a residual of exactly
            // min_duration is still worth decoupling (the >= Dmin
            // convention of Algorithm 1); the recursion drops
            // anything shorter.
            if (w.start <= span_start - min_duration) {
                before.push_back(
                    IdleWindow{w.qubit, w.start, span_start});
            }
            if (w.end >= span_end + min_duration) {
                after.push_back(
                    IdleWindow{w.qubit, span_end, w.end});
            }
        } else if (w.end <= span_start + 1e-9) {
            before.push_back(w);
        } else {
            after.push_back(w);
        }
    }
    if (!joint.members.empty())
        out.push_back(std::move(joint));
    for (auto &sub : groupWindows(before, graph))
        splitGroup(std::move(sub), min_duration, graph, out);
    for (auto &sub : groupWindows(after, graph))
        splitGroup(std::move(sub), min_duration, graph, out);
}

/**
 * Split idle windows at the start/end times of echoed two-qubit
 * gates running on crosstalk-adjacent qubits, so that spectator
 * sequences stay aligned with the echo/rotary pulses of each
 * individual gate (the per-layer contexts of Sec. III B).  Pieces
 * shorter than min_duration are dropped.
 */
std::vector<IdleWindow>
splitAtContextBoundaries(const std::vector<IdleWindow> &windows,
                         const EchoIndex &echoes,
                         const CrosstalkGraph &graph,
                         double min_duration)
{
    std::vector<IdleWindow> out;
    std::vector<double> cuts;
    for (const auto &w : windows) {
        cuts.assign({w.start, w.end});
        echoes.forEachNear(w.start, w.end,
                           [&](const TimedInstruction &timed) {
            bool adjacent = false;
            for (auto gq : timed.inst.qubits)
                adjacent |= graph.connected(gq, w.qubit);
            if (!adjacent)
                return;
            for (double t : {timed.start, timed.end()})
                if (t > w.start + 1e-9 && t < w.end - 1e-9)
                    cuts.push_back(t);
        });
        // Sorted doubles do not depend on the visiting order.
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            if (cuts[i + 1] - cuts[i] >= min_duration) {
                out.push_back(
                    IdleWindow{w.qubit, cuts[i], cuts[i + 1]});
            }
        }
    }
    return out;
}

std::vector<JointDelayGroup>
collectJointDelays(const ScheduledCircuit &schedule,
                   const EchoIndex &echoes,
                   const CrosstalkGraph &graph, double min_duration)
{
    const std::vector<IdleWindow> windows = splitAtContextBoundaries(
        schedule.idleWindows(min_duration), echoes, graph,
        min_duration);
    std::vector<JointDelayGroup> out;
    for (auto &group : groupWindows(windows, graph))
        splitGroup(std::move(group), min_duration, graph, out);
    std::sort(out.begin(), out.end(),
              [](const JointDelayGroup &a, const JointDelayGroup &b) {
                  return a.start < b.start;
              });
    return out;
}

ColoredGroup
colorGroup(const JointDelayGroup &group, const EchoIndex &echoes,
           const CrosstalkGraph &graph, int max_color)
{
    ColoredGroup result;
    result.group = group;

    // Pin colours of qubits executing echoed two-qubit gates
    // concurrently with this group on crosstalk-adjacent qubits.
    std::set<std::uint32_t> member_qubits;
    for (const auto &w : group.members)
        member_qubits.insert(w.qubit);

    // Later gates overwrite earlier pins, so the concurrent gates
    // are applied in schedule order.
    std::vector<const TimedInstruction *> concurrent;
    echoes.forEachNear(group.start, group.end,
                       [&](const TimedInstruction &timed) {
        if (timed.end() > group.start + 1e-9 &&
            timed.start < group.end - 1e-9) {
            concurrent.push_back(&timed);
        }
    });
    std::sort(concurrent.begin(), concurrent.end());
    for (const TimedInstruction *timed : concurrent) {
        // Only gates whose qubits neighbour a member matter.
        for (std::size_t k = 0; k < timed->inst.qubits.size(); ++k) {
            const std::uint32_t gq = timed->inst.qubits[k];
            bool relevant = false;
            for (auto m : member_qubits)
                if (graph.connected(gq, m))
                    relevant = true;
            if (relevant) {
                result.pinned[gq] =
                    (k == 0) ? kControlColor : kTargetColor;
            }
        }
    }

    ColoringProblem problem;
    problem.idleQubits.assign(member_qubits.begin(),
                              member_qubits.end());
    problem.pinned = result.pinned;
    problem.maxColor = max_color;
    result.colors = greedyColor(problem, graph);

    int max_used = 1;
    for (const auto &[q, c] : result.colors)
        max_used = std::max(max_used, c);
    for (const auto &[q, c] : result.pinned)
        max_used = std::max(max_used, c);
    result.slots = walshSlots(max_used);
    return result;
}

/** An idle window and the sequence that pads it. */
struct Pad
{
    IdleWindow window;
    const DdSequence *seq = nullptr;
};

/**
 * Copy of the schedule with every pad's pulses appended in pad order
 * and one stable sort at the end, which orders ties exactly as a
 * sort after each window would (the input is already start-sorted).
 */
ScheduledCircuit
padSchedule(const ScheduledCircuit &schedule,
            const std::vector<Pad> &pads, double pulse_duration)
{
    std::size_t pulses = 0;
    for (const Pad &pad : pads)
        pulses += pad.seq->numPulses();
    ScheduledCircuit out = schedule;
    out.reserve(schedule.instructions().size() + pulses);
    for (const Pad &pad : pads) {
        insertDdPulses(out, pad.window.qubit, pad.window.start,
                       pad.window.end, *pad.seq, pulse_duration);
    }
    out.sortByStart();
    return out;
}

} // namespace

std::vector<JointDelayGroup>
collectJointDelays(const ScheduledCircuit &schedule,
                   const CrosstalkGraph &graph, double min_duration)
{
    return collectJointDelays(schedule, EchoIndex(schedule), graph,
                              min_duration);
}

ColoredGroup
colorGroup(const JointDelayGroup &group,
           const ScheduledCircuit &schedule,
           const CrosstalkGraph &graph, int max_color)
{
    return colorGroup(group, EchoIndex(schedule), graph, max_color);
}

ScheduledCircuit
applyCaDd(const ScheduledCircuit &schedule, const Backend &backend)
{
    const CrosstalkGraph graph = backend.crosstalkGraph();
    const EchoIndex echoes(schedule);
    std::vector<Pad> pads;
    for (const auto &group :
         collectJointDelays(schedule, echoes, graph, kMinIdleNs)) {
        const ColoredGroup colored =
            colorGroup(group, echoes, graph, kMaxDdColor);
        for (const auto &member : colored.group.members) {
            const int color = colored.colors.at(member.qubit);
            pads.push_back(
                Pad{member, &walshSequence(color, colored.slots)});
        }
    }
    return padSchedule(schedule, pads, backend.durations().oneQubit);
}

ScheduledCircuit
applyUniformDd(const ScheduledCircuit &schedule,
               const GateDurations &durations, UniformDdStyle style)
{
    // Context-unaware padding in the style of standard transpiler
    // DD passes: every scheduled delay (idle windows split at the
    // global gate-boundary grid, i.e. per layer in barrier-aligned
    // circuits) is padded with the same X2 sequence, with no
    // knowledge of crosstalk or of neighbouring gate echoes.
    std::vector<double> grid;
    for (const auto &timed : schedule.instructions()) {
        if (timed.inst.op == Op::Barrier || timed.duration <= 0.0)
            continue;
        grid.push_back(timed.start);
        grid.push_back(timed.end());
    }
    std::sort(grid.begin(), grid.end());

    const DdSequence aligned = alignedX2();
    const DdSequence offset = offsetX2();
    std::vector<Pad> pads;
    for (const auto &window : schedule.idleWindows(kMinIdleNs)) {
        const DdSequence *seq =
            style == UniformDdStyle::StaggeredByParity &&
                    window.qubit % 2 == 1
                ? &offset
                : &aligned;
        // Cut the window at the grid points strictly inside it.
        double from = window.start;
        auto cut = [&](double to) {
            if (to - from >= kMinIdleNs)
                pads.push_back(Pad{{window.qubit, from, to}, seq});
            from = to;
        };
        for (auto t = std::upper_bound(grid.begin(), grid.end(),
                                       window.start + 1e-9);
             t != grid.end() && *t < window.end - 1e-9; ++t) {
            cut(*t);
        }
        cut(window.end);
    }
    return padSchedule(schedule, pads, durations.oneQubit);
}

} // namespace casq
