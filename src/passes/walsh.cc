#include "passes/walsh.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace casq {

std::size_t
walshSlots(int k)
{
    casq_assert(k >= 0, "negative Walsh index");
    std::size_t slots = 4;
    while (std::size_t(k) >= slots)
        slots *= 2;
    return slots;
}

bool
isWalshShape(int k, std::size_t slots)
{
    return k >= 0 && slots >= 4 && std::has_single_bit(slots) &&
           std::size_t(k) < slots;
}

std::vector<int>
walshSigns(int k, std::size_t slots)
{
    casq_assert(isWalshShape(k, slots), "Walsh row ", k,
                " needs a power-of-two slot count >= 4 above it, got ",
                slots);
    std::vector<int> signs(slots);
    for (std::size_t j = 0; j < slots; ++j)
        signs[j] =
            (__builtin_popcountll(std::uint64_t(k) & j) & 1) ? -1 : 1;
    return signs;
}

std::vector<double>
walshPulseFractions(int k, std::size_t slots)
{
    const std::vector<int> signs = walshSigns(k, slots);
    std::vector<double> fractions;
    for (std::size_t j = 0; j + 1 < slots; ++j)
        if (signs[j] != signs[j + 1])
            fractions.push_back(double(j + 1) / double(slots));
    if (signs.back() == -1)
        fractions.push_back(1.0);
    casq_assert(fractions.size() % 2 == 0,
                "Walsh sequence has odd pulse count");
    return fractions;
}

std::size_t
walshPulseCount(int k)
{
    return walshPulseFractions(k, walshSlots(k)).size();
}

int
walshInnerProduct(int j, int k)
{
    const std::size_t slots =
        std::max(walshSlots(j), walshSlots(k));
    const std::vector<int> a = walshSigns(j, slots);
    const std::vector<int> b = walshSigns(k, slots);
    int acc = 0;
    for (std::size_t i = 0; i < slots; ++i)
        acc += a[i] * b[i];
    return acc;
}

} // namespace casq
