#include <algorithm>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/timeline.hh"

namespace casq {
namespace {

GateDurations
durations()
{
    return GateDurations{};
}

TEST(Timeline, EcrQuarterSegments)
{
    Circuit qc(2, 0);
    qc.ecr(0, 1);
    const Timeline timeline(scheduleASAP(qc, durations()));
    // One ECR of 500 ns splits into 4 segments of 125 ns.
    ASSERT_EQ(timeline.segments().size(), 4u);
    for (const auto &seg : timeline.segments())
        EXPECT_NEAR(seg.duration(), 125.0, 1e-9);
}

TEST(Timeline, ControlEchoFrameSigns)
{
    Circuit qc(2, 0);
    qc.ecr(0, 1);
    const Timeline timeline(scheduleASAP(qc, durations()));
    const auto &segs = timeline.segments();
    // Control (qubit 0): +, +, -, -; target (qubit 1): +, -, +, -.
    const int expect_ctrl[] = {1, 1, -1, -1};
    const int expect_tgt[] = {1, -1, 1, -1};
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(segs[k].qubits[0].frameSign, expect_ctrl[k]);
        EXPECT_EQ(segs[k].qubits[1].frameSign, expect_tgt[k]);
        EXPECT_EQ(segs[k].qubits[0].role, Role::Control);
        EXPECT_EQ(segs[k].qubits[1].role, Role::Target);
        EXPECT_TRUE(segs[k].qubits[0].driven);
    }
}

TEST(Timeline, IdleQubitDefaults)
{
    Circuit qc(3, 0);
    qc.ecr(0, 1);
    const Timeline timeline(scheduleASAP(qc, durations()));
    for (const auto &seg : timeline.segments()) {
        EXPECT_EQ(seg.qubits[2].role, Role::Idle);
        EXPECT_EQ(seg.qubits[2].frameSign, 1);
        EXPECT_FALSE(seg.qubits[2].driven);
        EXPECT_EQ(seg.qubits[2].instIndex, -1);
    }
}

TEST(Timeline, SameGateSharesInstIndex)
{
    Circuit qc(2, 0);
    qc.ecr(0, 1);
    const Timeline timeline(scheduleASAP(qc, durations()));
    const auto &seg = timeline.segments()[0];
    EXPECT_GE(seg.qubits[0].instIndex, 0);
    EXPECT_EQ(seg.qubits[0].instIndex, seg.qubits[1].instIndex);
}

TEST(Timeline, MeasurementRole)
{
    Circuit qc(1, 1);
    qc.measure(0, 0);
    const Timeline timeline(scheduleASAP(qc, durations()));
    ASSERT_FALSE(timeline.segments().empty());
    EXPECT_EQ(timeline.segments()[0].qubits[0].role,
              Role::Measuring);
    EXPECT_FALSE(timeline.segments()[0].qubits[0].driven);
}

TEST(Timeline, VirtualGateFiresBeforeLaterGates)
{
    Circuit qc(1, 0);
    qc.rz(0, 0.5).sx(0);
    const Timeline timeline(scheduleASAP(qc, durations()));
    std::vector<Op> fire_order;
    for (const auto &event : timeline.events()) {
        if (event.kind == TimelineEvent::Kind::Fire) {
            fire_order.push_back(timeline.circuit()
                                     .instructions()[event.index]
                                     .inst.op);
        }
    }
    ASSERT_EQ(fire_order.size(), 2u);
    EXPECT_EQ(fire_order[0], Op::RZ);
    EXPECT_EQ(fire_order[1], Op::SX);
}

TEST(Timeline, GateFiresAfterItsSegments)
{
    Circuit qc(1, 0);
    qc.sx(0).sx(0);
    const Timeline timeline(scheduleASAP(qc, durations()));
    // Events: segment(gate 1 window), fire 1, segment, fire 2.
    const auto &events = timeline.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].kind, TimelineEvent::Kind::Segment);
    EXPECT_EQ(events[1].kind, TimelineEvent::Kind::Fire);
    EXPECT_EQ(events[2].kind, TimelineEvent::Kind::Segment);
    EXPECT_EQ(events[3].kind, TimelineEvent::Kind::Fire);
}

TEST(Timeline, DelayCreatesIdleSegmentsOnly)
{
    Circuit qc(1, 0);
    qc.delay(0, 300.0);
    const Timeline timeline(scheduleASAP(qc, durations()));
    ASSERT_EQ(timeline.segments().size(), 1u);
    EXPECT_EQ(timeline.segments()[0].qubits[0].role, Role::Idle);
    // Delays never fire.
    for (const auto &event : timeline.events())
        EXPECT_EQ(event.kind, TimelineEvent::Kind::Segment);
}

TEST(Timeline, EchoedOpClassification)
{
    EXPECT_TRUE(isEchoedTwoQubitOp(Op::ECR));
    EXPECT_TRUE(isEchoedTwoQubitOp(Op::CX));
    EXPECT_TRUE(isEchoedTwoQubitOp(Op::RZZ));
    EXPECT_TRUE(isEchoedTwoQubitOp(Op::Can));
    EXPECT_FALSE(isEchoedTwoQubitOp(Op::X));
    EXPECT_FALSE(isEchoedTwoQubitOp(Op::Measure));
}

TEST(Timeline, ParallelGatesShareSegmentBoundaries)
{
    Circuit qc(4, 0);
    qc.ecr(0, 1).ecr(2, 3);
    const Timeline timeline(scheduleASAP(qc, durations()));
    // Both gates start at 0 with equal duration: still 4 segments.
    EXPECT_EQ(timeline.segments().size(), 4u);
    const auto &seg = timeline.segments()[2];
    EXPECT_EQ(seg.qubits[0].frameSign, -1);
    EXPECT_EQ(seg.qubits[2].frameSign, -1);
}

/**
 * Reference annotation: every instruction against every segment,
 * O(instructions x segments), with the coverage and quarter rules
 * of Timeline (kTimeEps as in sim/timeline.cc).
 */
std::vector<std::vector<SegmentQubit>>
fullScanAnnotation(const ScheduledCircuit &circuit,
                   const std::vector<Segment> &segments)
{
    constexpr double kTimeEps = 1e-6;
    std::vector<std::vector<SegmentQubit>> out(
        segments.size(),
        std::vector<SegmentQubit>(circuit.numQubits()));
    const auto &insts = circuit.instructions();
    for (std::size_t idx = 0; idx < insts.size(); ++idx) {
        const TimedInstruction &timed = insts[idx];
        const Op op = timed.inst.op;
        if (op == Op::Barrier || op == Op::Delay ||
            timed.duration <= 0.0) {
            continue;
        }
        for (std::size_t s = 0; s < segments.size(); ++s) {
            const Segment &seg = segments[s];
            if (seg.t0 < timed.start - kTimeEps ||
                seg.t1 > timed.end() + kTimeEps) {
                continue;
            }
            const double mid = (seg.t0 + seg.t1) / 2.0;
            const int quarter = std::min(
                3, int((mid - timed.start) / (timed.duration / 4.0)));
            for (std::size_t k = 0; k < timed.inst.qubits.size();
                 ++k) {
                SegmentQubit &sq = out[s][timed.inst.qubits[k]];
                sq.instIndex = std::int32_t(idx);
                sq.driven = op != Op::Measure && op != Op::Reset;
                if (op == Op::Measure) {
                    sq.role = Role::Measuring;
                } else if (op == Op::Reset) {
                    sq.role = Role::Resetting;
                } else if (!isEchoedTwoQubitOp(op)) {
                    sq.role = Role::Gate1q;
                } else if (k == 0) {
                    sq.role = Role::Control;
                    sq.frameSign = quarter < 2 ? 1 : -1;
                } else {
                    sq.role = Role::Target;
                    sq.frameSign = quarter % 2 == 0 ? 1 : -1;
                }
            }
        }
    }
    return out;
}

/**
 * A random schedule on a 35 ns grid: overlapping gates of every
 * role, barriers, delays, zero- and sub-epsilon-duration
 * instructions, and starts/ends jittered within kTimeEps of the
 * grid so segment boundaries merge.
 */
ScheduledCircuit
randomSchedule(Rng &rng)
{
    const std::size_t n = 2 + rng.uniformInt(4);
    ScheduledCircuit circuit(n, 1);
    const Op ops[] = {Op::X,       Op::SX,    Op::RZ,    Op::CX,
                      Op::ECR,     Op::RZZ,   Op::Swap,  Op::Measure,
                      Op::Reset,   Op::Delay, Op::Barrier};
    const double lengths[] = {0.0, 1e-7, 35.0, 70.0, 140.0, 500.0};
    const auto jitter = [&rng] {
        return rng.uniformInt(3) == 0 ? rng.uniform(-9e-7, 9e-7)
                                      : 0.0;
    };
    const std::size_t count = 4 + rng.uniformInt(24);
    for (std::size_t i = 0; i < count; ++i) {
        const Op op = ops[rng.uniformInt(std::size(ops))];
        TimedInstruction timed;
        timed.start = 35.0 * double(rng.uniformInt(20)) + jitter();
        timed.duration = std::max(
            0.0, lengths[rng.uniformInt(std::size(lengths))] +
                     jitter());
        std::vector<std::uint32_t> qubits;
        const std::uint32_t q0 = std::uint32_t(rng.uniformInt(n));
        if (op == Op::Barrier) {
            for (std::uint32_t q = 0; q < n; ++q)
                qubits.push_back(q);
            timed.duration = 0.0;
        } else if (opIsTwoQubitGate(op)) {
            const std::uint32_t q1 = std::uint32_t(
                (q0 + 1 + rng.uniformInt(n - 1)) % n);
            qubits = {q0, q1};
        } else {
            qubits = {q0};
        }
        std::vector<double> params;
        if (op == Op::RZ || op == Op::RZZ)
            params = {0.3};
        if (op == Op::Delay)
            params = {timed.duration};
        timed.inst = Instruction(op, std::move(qubits),
                                 std::move(params));
        if (op == Op::Measure)
            timed.inst.cbit = 0;
        circuit.add(std::move(timed));
    }
    return circuit;
}

TEST(Timeline, AnnotationMatchesFullScan)
{
    Rng rng(20240611);
    std::size_t covered = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const ScheduledCircuit circuit = randomSchedule(rng);
        const Timeline timeline(circuit);
        const auto &segments = timeline.segments();
        const auto expected = fullScanAnnotation(circuit, segments);
        for (std::size_t s = 0; s < segments.size(); ++s) {
            for (std::size_t q = 0; q < circuit.numQubits(); ++q) {
                const SegmentQubit &got = segments[s].qubits[q];
                const SegmentQubit &want = expected[s][q];
                EXPECT_EQ(got.role, want.role)
                    << "trial " << trial << " seg " << s << " q " << q;
                EXPECT_EQ(got.frameSign, want.frameSign)
                    << "trial " << trial << " seg " << s << " q " << q;
                EXPECT_EQ(got.driven, want.driven)
                    << "trial " << trial << " seg " << s << " q " << q;
                EXPECT_EQ(got.instIndex, want.instIndex)
                    << "trial " << trial << " seg " << s << " q " << q;
                covered += want.instIndex >= 0;
            }
        }
    }
    EXPECT_GT(covered, 1000u);
}

} // namespace
} // namespace casq
