#include <gtest/gtest.h>

#include "passes/dd_sequences.hh"

namespace casq {
namespace {

TEST(DdSequences, AlignedAndOffsetX2)
{
    EXPECT_EQ(alignedX2().fractions,
              (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(offsetX2().fractions,
              (std::vector<double>{0.5, 1.0}));
}

TEST(DdSequences, WalshSequenceDelegates)
{
    EXPECT_EQ(walshSequence(3).fractions,
              (std::vector<double>{0.25, 0.75}));
    EXPECT_EQ(walshSequence(2).numPulses(), 2u);
}

TEST(DdSequences, InsertPlacesTaggedPulses)
{
    ScheduledCircuit sched(1, 0);
    const bool ok = insertDdPulses(sched, 0, 1000.0, 2000.0,
                                   alignedX2(), 40.0);
    EXPECT_TRUE(ok);
    ASSERT_EQ(sched.instructions().size(), 2u);
    const auto &first = sched.instructions()[0];
    EXPECT_EQ(first.inst.op, Op::X);
    EXPECT_EQ(first.inst.tag, InstTag::DD);
    // Centered at 1250 with 40 ns duration.
    EXPECT_NEAR(first.start, 1250.0 - 20.0, 1e-9);
    EXPECT_NEAR(sched.instructions()[1].start, 1750.0 - 20.0,
                1e-9);
}

TEST(DdSequences, EndPulseClampedInsideWindow)
{
    ScheduledCircuit sched(1, 0);
    const bool ok = insertDdPulses(sched, 0, 0.0, 1000.0,
                                   offsetX2(), 40.0);
    EXPECT_TRUE(ok);
    const auto &last = sched.instructions().back();
    EXPECT_LE(last.start + 40.0, 1000.0 + 1e-9);
}

TEST(DdSequences, RejectsTooShortWindow)
{
    ScheduledCircuit sched(1, 0);
    const bool ok = insertDdPulses(sched, 0, 0.0, 100.0,
                                   alignedX2(), 40.0);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(sched.instructions().empty());
}

TEST(DdSequences, PulsesDoNotOverlapEachOther)
{
    ScheduledCircuit sched(1, 0);
    // Row 1 at 8 slots has pulses at every eighth: tight window.
    const bool ok = insertDdPulses(sched, 0, 0.0, 800.0,
                                   walshSequence(1, 8), 40.0);
    EXPECT_TRUE(ok);
    EXPECT_EQ(sched.findOverlap(), -1);
    // Insertion only appends; ordering is the caller's sort.
    sched.sortByStart();
    double prev_end = -1.0;
    for (const auto &t : sched.instructions()) {
        EXPECT_GE(t.start, prev_end - 1e-9);
        prev_end = t.end();
    }
}

TEST(DdSequences, InsertAppendsWithoutSorting)
{
    ScheduledCircuit sched(2, 0);
    sched.add(
        TimedInstruction{Instruction(Op::SX, {1}), 2000.0, 35.0});
    ASSERT_TRUE(insertDdPulses(sched, 0, 0.0, 1000.0, alignedX2(),
                               40.0));
    ASSERT_EQ(sched.instructions().size(), 3u);
    // The earlier pulses stay behind the later gate until the
    // caller sorts.
    EXPECT_EQ(sched.instructions()[0].inst.op, Op::SX);
    EXPECT_EQ(sched.instructions()[1].inst.tag, InstTag::DD);
    sched.sortByStart();
    EXPECT_EQ(sched.instructions()[2].inst.op, Op::SX);
}

TEST(DdSequences, EmptySequenceIsNoop)
{
    ScheduledCircuit sched(1, 0);
    EXPECT_TRUE(
        insertDdPulses(sched, 0, 0.0, 500.0, DdSequence{}, 40.0));
    EXPECT_TRUE(sched.instructions().empty());
}

} // namespace
} // namespace casq
