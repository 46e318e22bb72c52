#include "sim/timeline.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace casq {

namespace {
constexpr double kTimeEps = 1e-6;
} // namespace

bool
isEchoedTwoQubitOp(Op op)
{
    switch (op) {
      case Op::CX:
      case Op::CZ:
      case Op::ECR:
      case Op::RZZ:
      case Op::Can:
        return true;
      default:
        return false;
    }
}

Timeline::Timeline(const ScheduledCircuit &circuit) : _circuit(circuit)
{
    buildSegments();
    annotateActivity();
    buildEvents();
}

void
Timeline::buildSegments()
{
    std::vector<double> bounds{0.0, _circuit.totalDuration()};
    for (const auto &timed : _circuit.instructions()) {
        if (timed.inst.op == Op::Barrier)
            continue;
        bounds.push_back(timed.start);
        bounds.push_back(timed.end());
        if (isEchoedTwoQubitOp(timed.inst.op) &&
            timed.duration > 0.0) {
            // Quarter marks: echo at the midpoint, rotary pulses
            // per quarter.
            for (int k = 1; k < 4; ++k)
                bounds.push_back(timed.start +
                                 timed.duration * k / 4.0);
        }
    }
    std::sort(bounds.begin(), bounds.end());
    std::vector<double> unique_bounds;
    for (double b : bounds) {
        if (unique_bounds.empty() ||
            b - unique_bounds.back() > kTimeEps) {
            unique_bounds.push_back(b);
        }
    }
    for (std::size_t k = 0; k + 1 < unique_bounds.size(); ++k) {
        Segment seg;
        seg.t0 = unique_bounds[k];
        seg.t1 = unique_bounds[k + 1];
        seg.qubits.assign(_circuit.numQubits(), SegmentQubit{});
        _segments.push_back(std::move(seg));
    }
}

void
Timeline::annotateActivity()
{
    const auto &insts = _circuit.instructions();
    for (std::size_t idx = 0; idx < insts.size(); ++idx) {
        const auto &timed = insts[idx];
        if (timed.inst.op == Op::Barrier || timed.duration <= 0.0 ||
            timed.inst.op == Op::Delay) {
            continue;
        }
        // Segments tile the timeline in order, so the covered ones
        // (t0 >= start - eps and t1 <= end + eps) are one run that
        // starts at the first t0 >= start - eps.
        const double hi = timed.end() + kTimeEps;
        auto it = std::lower_bound(
            _segments.begin(), _segments.end(),
            timed.start - kTimeEps,
            [](const Segment &seg, double t) { return seg.t0 < t; });
        for (; it != _segments.end() && it->t1 <= hi; ++it) {
            Segment &seg = *it;
            // Quarter index of the segment midpoint within the gate.
            const double mid = (seg.t0 + seg.t1) / 2.0;
            const int quarter = std::min(
                3, int((mid - timed.start) / (timed.duration / 4.0)));
            for (std::size_t k = 0; k < timed.inst.qubits.size();
                 ++k) {
                SegmentQubit &sq = seg.qubits[timed.inst.qubits[k]];
                sq.instIndex = std::int32_t(idx);
                switch (timed.inst.op) {
                  case Op::Measure:
                    sq.role = Role::Measuring;
                    sq.driven = false;
                    break;
                  case Op::Reset:
                    sq.role = Role::Resetting;
                    sq.driven = false;
                    break;
                  default:
                    if (isEchoedTwoQubitOp(timed.inst.op)) {
                        if (k == 0) {
                            // Control: echo pulse at the midpoint.
                            sq.role = Role::Control;
                            sq.frameSign = quarter < 2 ? 1 : -1;
                        } else {
                            // Target: rotary flips every quarter.
                            sq.role = Role::Target;
                            sq.frameSign = (quarter % 2 == 0) ? 1
                                                              : -1;
                        }
                    } else {
                        sq.role = Role::Gate1q;
                    }
                    sq.driven = true;
                    break;
                }
            }
        }
    }
}

void
Timeline::buildEvents()
{
    // Fire order: by end time, then by scheduled sequence.
    struct Fire
    {
        double end;
        std::int32_t index;
    };
    std::vector<Fire> fires;
    const auto &insts = _circuit.instructions();
    for (std::size_t idx = 0; idx < insts.size(); ++idx) {
        if (insts[idx].inst.op == Op::Barrier ||
            insts[idx].inst.op == Op::Delay) {
            continue;
        }
        fires.push_back(Fire{insts[idx].end(), std::int32_t(idx)});
    }
    std::stable_sort(fires.begin(), fires.end(),
                     [](const Fire &a, const Fire &b) {
                         if (std::abs(a.end - b.end) > kTimeEps)
                             return a.end < b.end;
                         return a.index < b.index;
                     });

    std::size_t next_fire = 0;
    for (std::size_t k = 0; k < _segments.size(); ++k) {
        while (next_fire < fires.size() &&
               fires[next_fire].end <= _segments[k].t0 + kTimeEps) {
            _events.push_back(TimelineEvent{TimelineEvent::Kind::Fire,
                                            fires[next_fire].index});
            ++next_fire;
        }
        if (_segments[k].duration() > kTimeEps) {
            _events.push_back(TimelineEvent{
                TimelineEvent::Kind::Segment, std::int32_t(k)});
        }
    }
    while (next_fire < fires.size()) {
        _events.push_back(TimelineEvent{TimelineEvent::Kind::Fire,
                                        fires[next_fire].index});
        ++next_fire;
    }
}

} // namespace casq
