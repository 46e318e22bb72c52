#include "passes/dd_sequences.hh"

#include <algorithm>

#include "common/logging.hh"
#include "passes/walsh.hh"

namespace casq {

DdSequence
alignedX2()
{
    return DdSequence{{0.25, 0.75}};
}

DdSequence
offsetX2()
{
    return DdSequence{{0.5, 1.0}};
}

const DdSequence &
walshSequence(int k, std::size_t slots)
{
    // Every row 0..kMaxWalshRow at every power-of-two slot count up
    // to walshSlots(kMaxWalshRow), built once.  The level with S
    // slots holds rows 0..S-1 and starts at index S - 4.
    static const std::vector<DdSequence> table = [] {
        std::vector<DdSequence> rows;
        for (std::size_t s = 4; s <= walshSlots(kMaxWalshRow); s *= 2)
            for (std::size_t k = 0; k < s; ++k)
                rows.push_back(DdSequence{walshPulseFractions(int(k), s)});
        return rows;
    }();
    if (slots == 0)
        slots = walshSlots(k);
    casq_assert(isWalshShape(k, slots) &&
                    slots <= walshSlots(kMaxWalshRow),
                "Walsh row ", k, " needs a power-of-two slot count >= 4",
                " above it and at most ", walshSlots(kMaxWalshRow),
                ", got ", slots);
    return table[slots - 4 + std::size_t(k)];
}

bool
insertDdPulses(ScheduledCircuit &schedule, std::uint32_t qubit,
               double start, double end, const DdSequence &seq,
               double pulse_duration)
{
    const double window = end - start;
    if (seq.fractions.empty())
        return true;
    if (window < double(seq.numPulses()) * pulse_duration * 1.5)
        return false;

    // Center each pulse at its fraction, clamped into the window,
    // then push overlapping pulses apart while keeping order.
    std::vector<double> starts;
    starts.reserve(seq.numPulses());
    for (double f : seq.fractions) {
        double s = start + f * window - pulse_duration / 2.0;
        s = std::clamp(s, start, end - pulse_duration);
        starts.push_back(s);
    }
    for (std::size_t i = 1; i < starts.size(); ++i)
        starts[i] = std::max(starts[i],
                             starts[i - 1] + pulse_duration);
    if (starts.back() > end - pulse_duration + 1e-9)
        return false;

    for (double s : starts) {
        Instruction x(Op::X, {qubit});
        x.tag = InstTag::DD;
        schedule.add(TimedInstruction{std::move(x), s,
                                      pulse_duration});
    }
    return true;
}

} // namespace casq
