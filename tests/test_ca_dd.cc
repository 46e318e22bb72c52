#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "passes/ca_dd.hh"
#include "passes/dd_sequences.hh"
#include "passes/walsh.hh"

namespace casq {
namespace {

Backend
testBackend(std::size_t n)
{
    Backend backend("test", makeLinear(n));
    for (const auto &edge : backend.coupling().edges())
        backend.pair(edge.a, edge.b).zzRateMHz = 0.06;
    return backend;
}

TEST(CaDd, CollectsAdjacentOverlappingWindows)
{
    Backend backend = testBackend(3);
    Circuit qc(3, 0);
    qc.delay(0, 2000).delay(1, 2000).sx(2);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    // Qubits 0 and 1 overlap and are coupled: one group of two
    // members; qubit 2's idle tail is its own group.
    bool found_joint = false;
    for (const auto &g : groups)
        if (g.members.size() >= 2)
            found_joint = true;
    EXPECT_TRUE(found_joint);
}

TEST(CaDd, ShortWindowsIgnored)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.sx(0).delay(0, 100).sx(0).sx(1).delay(1, 100).sx(1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(groups.empty());
}

TEST(CaDd, ColorGroupPinsActiveGates)
{
    Backend backend = testBackend(4);
    // Qubit 0 idles while ECR(1 -> 2) runs; 3 idles next to the
    // target.
    Circuit qc(4, 0);
    qc.barrier();
    qc.ecr(1, 2);
    qc.delay(0, 500).delay(3, 500);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_FALSE(groups.empty());
    for (const auto &group : groups) {
        const ColoredGroup colored = colorGroup(
            group, sched, backend.crosstalkGraph(), 15);
        for (const auto &member : group.members) {
            const int color = colored.colors.at(member.qubit);
            if (member.qubit == 0) {
                // Control spectator: must differ from the echo
                // row of its neighbouring control.
                EXPECT_NE(color, kControlColor);
                EXPECT_EQ(colored.pinned.at(1), kControlColor);
            }
            if (member.qubit == 3) {
                EXPECT_NE(color, kTargetColor);
                EXPECT_EQ(colored.pinned.at(2), kTargetColor);
            }
        }
    }
}

/** True if some group spans exactly [start, end] with n members. */
bool
hasGroup(const std::vector<JointDelayGroup> &groups, double start,
         double end, std::size_t members)
{
    for (const auto &g : groups) {
        if (std::abs(g.start - start) < 1e-9 &&
            std::abs(g.end - end) < 1e-9 &&
            g.members.size() == members) {
            return true;
        }
    }
    return false;
}

TEST(CaDd, ResidualOfExactlyMinDurationBeforeSpanIsKept)
{
    // Regression for the recursive split's boundary handling: a
    // residual piece left *before* the chosen joint span whose
    // length equals min_duration exactly must still be decoupled
    // (>= Dmin, like every other window in the pass), not silently
    // dropped by a strict comparison.
    Backend backend = testBackend(4);
    ScheduledCircuit sched(4, 0);
    // Qubits 0-2 idle over [200, 500]; qubit 3 idles [350, 1000]
    // and wins the joint-span selection (longest of a full-overlap
    // tie), leaving [200, 350] -- exactly min_duration -- before
    // the span on qubits 0-2.
    for (std::uint32_t q = 0; q < 3; ++q) {
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 0.0,
                                   200.0});
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 500.0,
                                   500.0});
    }
    sched.add(TimedInstruction{Instruction(Op::X, {3}), 0.0,
                               350.0});
    sched.sortByStart();

    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(hasGroup(groups, 350.0, 1000.0, 4u));
    EXPECT_TRUE(hasGroup(groups, 200.0, 350.0, 3u));
}

TEST(CaDd, ResidualOfExactlyMinDurationAfterSpanIsKept)
{
    // Mirror case: the exact-boundary residual falls *after* the
    // joint span.
    Backend backend = testBackend(4);
    ScheduledCircuit sched(4, 0);
    // Qubits 0-2 idle over [500, 800]; qubit 3 idles [0, 650] and
    // wins the span, leaving [650, 800] -- exactly min_duration --
    // after it on qubits 0-2.
    for (std::uint32_t q = 0; q < 3; ++q) {
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 0.0,
                                   500.0});
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 800.0,
                                   200.0});
    }
    sched.add(TimedInstruction{Instruction(Op::X, {3}), 650.0,
                               350.0});
    sched.sortByStart();

    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(hasGroup(groups, 0.0, 650.0, 4u));
    EXPECT_TRUE(hasGroup(groups, 650.0, 800.0, 3u));
}

TEST(CaDd, AppliesPulsesWithoutOverlap)
{
    Backend backend = testBackend(4);
    Circuit qc(4, 0);
    qc.h(0).h(1).h(2).h(3).barrier();
    qc.ecr(1, 2);
    qc.delay(0, 500).delay(3, 500);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const ScheduledCircuit dressed = applyCaDd(sched, backend);
    EXPECT_EQ(dressed.findOverlap(), -1);

    std::size_t dd_pulses = 0;
    for (const auto &t : dressed.instructions())
        if (t.inst.tag == InstTag::DD)
            ++dd_pulses;
    EXPECT_GE(dd_pulses, 4u); // two spectators, >= 2 pulses each
    // Pulse count per qubit is even (frame restored).
    std::map<std::uint32_t, int> per_qubit;
    for (const auto &t : dressed.instructions())
        if (t.inst.tag == InstTag::DD)
            ++per_qubit[t.inst.qubits[0]];
    for (const auto &[q, count] : per_qubit)
        EXPECT_EQ(count % 2, 0) << "qubit " << q;
}

TEST(CaDd, AdjacentIdleQubitsGetStaggeredRows)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.delay(0, 2000).delay(1, 2000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_EQ(groups.size(), 1u);
    const ColoredGroup colored = colorGroup(
        groups[0], sched, backend.crosstalkGraph(), 15);
    EXPECT_NE(colored.colors.at(0), colored.colors.at(1));
}

TEST(CaDd, NoIdleQubitsNoPulses)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.ecr(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const ScheduledCircuit dressed = applyCaDd(sched, backend);
    EXPECT_EQ(dressed.instructions().size(),
              sched.instructions().size());
}

TEST(CaDd, UniformDdStyles)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.delay(0, 2000).delay(1, 2000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());

    const ScheduledCircuit aligned = applyUniformDd(
        sched, backend.durations(), UniformDdStyle::Aligned);
    std::map<std::uint32_t, std::vector<double>> starts;
    for (const auto &t : aligned.instructions())
        if (t.inst.tag == InstTag::DD)
            starts[t.inst.qubits[0]].push_back(t.start);
    ASSERT_EQ(starts[0].size(), 2u);
    ASSERT_EQ(starts[1].size(), 2u);
    // Aligned: identical pulse times on both qubits.
    EXPECT_NEAR(starts[0][0], starts[1][0], 1e-9);

    const ScheduledCircuit staggered =
        applyUniformDd(sched, backend.durations(),
                       UniformDdStyle::StaggeredByParity);
    starts.clear();
    for (const auto &t : staggered.instructions())
        if (t.inst.tag == InstTag::DD)
            starts[t.inst.qubits[0]].push_back(t.start);
    EXPECT_GT(std::abs(starts[0][0] - starts[1][0]), 100.0);
}

TEST(CaDd, NnnEdgeForcesThirdColor)
{
    Backend backend = testBackend(3);
    backend.addNnnPair(0, 2, 0.01);
    Circuit qc(3, 0);
    qc.delay(0, 4000).delay(1, 4000).delay(2, 4000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_EQ(groups.size(), 1u);
    const ColoredGroup colored = colorGroup(
        groups[0], sched, backend.crosstalkGraph(), 15);
    std::set<int> distinct;
    for (const auto &[q, c] : colored.colors)
        distinct.insert(c);
    EXPECT_EQ(distinct.size(), 3u);
}

/**
 * Reference DD insertion in the historical shape: every window is
 * padded and the whole schedule re-sorted before the next one.
 */
ScheduledCircuit
perWindowSortReference(const ScheduledCircuit &schedule,
                       const Backend &backend, bool context_aware,
                       UniformDdStyle style)
{
    const double pulse = backend.durations().oneQubit;
    ScheduledCircuit out = schedule;
    if (context_aware) {
        const CrosstalkGraph graph = backend.crosstalkGraph();
        for (const auto &group :
             collectJointDelays(schedule, graph, 150.0)) {
            const ColoredGroup colored =
                colorGroup(group, schedule, graph, 15);
            for (const auto &m : colored.group.members) {
                insertDdPulses(out, m.qubit, m.start, m.end,
                               walshSequence(colored.colors.at(m.qubit),
                                             colored.slots),
                               pulse);
                out.sortByStart();
            }
        }
        return out;
    }
    std::vector<double> grid;
    for (const auto &timed : schedule.instructions()) {
        if (timed.inst.op == Op::Barrier || timed.duration <= 0.0)
            continue;
        grid.push_back(timed.start);
        grid.push_back(timed.end());
    }
    for (const auto &window : schedule.idleWindows(150.0)) {
        std::vector<double> cuts{window.start, window.end};
        for (double t : grid)
            if (t > window.start + 1e-9 && t < window.end - 1e-9)
                cuts.push_back(t);
        std::sort(cuts.begin(), cuts.end());
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            if (cuts[i + 1] - cuts[i] < 150.0)
                continue;
            const bool odd = style == UniformDdStyle::StaggeredByParity &&
                             window.qubit % 2 == 1;
            insertDdPulses(out, window.qubit, cuts[i], cuts[i + 1],
                           odd ? offsetX2() : alignedX2(), pulse);
            out.sortByStart();
        }
    }
    return out;
}

std::size_t
ddCount(const ScheduledCircuit &schedule)
{
    return std::count_if(schedule.instructions().begin(),
                         schedule.instructions().end(),
                         [](const TimedInstruction &t) {
                             return t.inst.tag == InstTag::DD;
                         });
}

TEST(CaDd, PassesSortOnceAndMatchPerWindowSort)
{
    // An 8-qubit chain with an NNN triangle, idle spectators next to
    // staggered ECRs, and a long shared delay.
    Backend backend = makeFakeLinear(8, 3);
    backend.addNnnPair(0, 2, 0.01);
    Circuit qc(8, 0);
    for (int layer = 0; layer < 4; ++layer) {
        for (std::uint32_t q = layer % 2; q + 1 < 8; q += 3)
            qc.ecr(q, q + 1);
        qc.barrier();
        for (std::uint32_t q = 0; q < 8; ++q)
            qc.delay(q, 400.0 + 100.0 * q);
        qc.barrier();
    }
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());

    for (int variant = 0; variant < 3; ++variant) {
        const bool context_aware = variant == 2;
        const UniformDdStyle style =
            variant == 1 ? UniformDdStyle::StaggeredByParity
                         : UniformDdStyle::Aligned;
        const ScheduledCircuit dressed =
            context_aware
                ? applyCaDd(sched, backend)
                : applyUniformDd(sched, backend.durations(), style);
        const ScheduledCircuit reference = perWindowSortReference(
            sched, backend, context_aware, style);

        const auto &insts = dressed.instructions();
        EXPECT_TRUE(std::is_sorted(
            insts.begin(), insts.end(),
            [](const TimedInstruction &a, const TimedInstruction &b) {
                return a.start < b.start;
            }))
            << "variant " << variant;
        EXPECT_EQ(dressed.findOverlap(), -1) << "variant " << variant;
        EXPECT_GT(ddCount(dressed), 0u) << "variant " << variant;
        EXPECT_EQ(ddCount(dressed), ddCount(reference))
            << "variant " << variant;

        // Same instructions in the same order, bit for bit.
        ASSERT_EQ(insts.size(), reference.instructions().size());
        for (std::size_t i = 0; i < insts.size(); ++i) {
            const TimedInstruction &a = insts[i];
            const TimedInstruction &b = reference.instructions()[i];
            EXPECT_TRUE(a.inst.op == b.inst.op &&
                        a.inst.qubits == b.inst.qubits &&
                        a.inst.tag == b.inst.tag &&
                        a.start == b.start && a.duration == b.duration)
                << "variant " << variant << " instruction " << i;
        }
    }
}

} // namespace
} // namespace casq
