#include <gtest/gtest.h>

#include "passes/dd_sequences.hh"
#include "passes/walsh.hh"

namespace casq {
namespace {

TEST(Walsh, SlotCounts)
{
    EXPECT_EQ(walshSlots(0), 4u);
    EXPECT_EQ(walshSlots(1), 4u);
    EXPECT_EQ(walshSlots(3), 4u);
    EXPECT_EQ(walshSlots(4), 8u);
    EXPECT_EQ(walshSlots(7), 8u);
    EXPECT_EQ(walshSlots(8), 16u);
}

TEST(Walsh, HardwarePulsePatterns)
{
    // Row 2 over 4 slots is the control echo (+ + - -), row 1 the
    // target rotary (+ - + -), row 3 the control-spectator
    // sequence (+ - - +).
    EXPECT_EQ(walshSigns(2, 4), (std::vector<int>{1, 1, -1, -1}));
    EXPECT_EQ(walshSigns(1, 4), (std::vector<int>{1, -1, 1, -1}));
    EXPECT_EQ(walshSigns(3, 4), (std::vector<int>{1, -1, -1, 1}));
}

TEST(Walsh, PaperSequenceTimings)
{
    // Control spectator: tau/4 - X - tau/2 - X - tau/4 (row 3).
    EXPECT_EQ(walshPulseFractions(3, 4),
              (std::vector<double>{0.25, 0.75}));
    // Target spectator: tau/2 - X - tau/2 - X (row 2).
    EXPECT_EQ(walshPulseFractions(2, 4),
              (std::vector<double>{0.5, 1.0}));
}

TEST(WalshDeath, RejectsSlotCountsThatAreNotWalsh)
{
    // Six slots is not a power of two: no Walsh row exists there,
    // even though the row index fits.
    EXPECT_DEATH(walshSequence(1, 6), "power-of-two slot count >= 4");
    EXPECT_DEATH(walshSigns(1, 6), "power-of-two slot count >= 4");
    EXPECT_DEATH(walshPulseFractions(3, 2), "power-of-two");
    // Row 4 needs eight slots.
    EXPECT_DEATH(walshSigns(4, 4), "power-of-two");
    EXPECT_TRUE(isWalshShape(4, 8));
    EXPECT_FALSE(isWalshShape(4, 4));
    EXPECT_FALSE(isWalshShape(1, 6));
    EXPECT_FALSE(isWalshShape(-1, 4));
}

TEST(Walsh, TabulatedSequencesMatchDirectComputation)
{
    for (std::size_t slots = 4; slots <= walshSlots(kMaxWalshRow);
         slots *= 2) {
        for (int k = 0; std::size_t(k) < slots; ++k)
            EXPECT_EQ(walshSequence(k, slots).fractions,
                      walshPulseFractions(k, slots))
                << "row " << k << " slots " << slots;
    }
    EXPECT_EQ(&walshSequence(5), &walshSequence(5, 8));
}

class WalshRowProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(WalshRowProperties, BalancedSoSuppressesZ)
{
    const int k = GetParam();
    const auto signs = walshSigns(k, walshSlots(k));
    int sum = 0;
    for (int s : signs)
        sum += s;
    EXPECT_EQ(sum, 0) << "row " << k;
}

TEST_P(WalshRowProperties, EvenPulseCountRestoresFrame)
{
    const int k = GetParam();
    EXPECT_EQ(walshPulseCount(k) % 2, 0u) << "row " << k;
}

TEST_P(WalshRowProperties, PulsesReproduceSigns)
{
    const int k = GetParam();
    const std::size_t slots = walshSlots(k);
    const auto signs = walshSigns(k, slots);
    const auto pulses = walshPulseFractions(k, slots);
    // Walk the slots, flipping at each pulse; must match signs.
    int frame = 1;
    std::size_t next = 0;
    for (std::size_t j = 0; j < slots; ++j) {
        const double slot_start = double(j) / double(slots);
        while (next < pulses.size() &&
               pulses[next] <= slot_start + 1e-12) {
            frame = -frame;
            ++next;
        }
        EXPECT_EQ(frame, signs[j]) << "row " << k << " slot " << j;
    }
}

INSTANTIATE_TEST_SUITE_P(Rows1To15, WalshRowProperties,
                         ::testing::Range(1, 16));

class WalshPairProperties
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(WalshPairProperties, DistinctRowsOrthogonalSoSuppressZz)
{
    const auto [j, k] = GetParam();
    if (j == k) {
        EXPECT_NE(walshInnerProduct(j, k), 0);
    } else {
        EXPECT_EQ(walshInnerProduct(j, k), 0)
            << "rows " << j << ", " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairsUpTo9, WalshPairProperties,
    ::testing::ValuesIn([] {
        std::vector<std::pair<int, int>> pairs;
        for (int j = 1; j < 10; ++j)
            for (int k = j; k < 10; ++k)
                pairs.emplace_back(j, k);
        return pairs;
    }()));

} // namespace
} // namespace casq
