#include "passes/builtin.hh"

namespace casq {

namespace {

/** Count scheduled instructions carrying the given tag. */
std::size_t
countTag(const ScheduledCircuit &schedule, InstTag tag)
{
    std::size_t count = 0;
    for (const TimedInstruction &timed : schedule.instructions())
        count += timed.inst.tag == tag;
    return count;
}

} // namespace

void
TwirlPlanPass::run(PassContext &context)
{
    TwirlPlan plan = makeTwirlPlan(context.layered());
    // Build each distinct gate's conjugation table now, in the
    // (once-per-ensemble) prefix, so no twirl instance pays for it.
    for (const TwirlPlan::LayerGates &target : plan.targets)
        for (const Instruction &gate : target.gates)
            _tables->of2q(instructionUnitary(gate));
    context.setProperty(kTwirlPlanKey, std::move(plan));
}

void
LateTwirlPass::run(PassContext &context)
{
    const TwirlPlan &plan =
        context.requireProperty<TwirlPlan>(kTwirlPlanKey);
    std::size_t frames = 0;
    TwirlFrames frame_insts;
    context.setFlat(insertTwirlFrames(
        context.flat(), plan, context.rng(), *_tables,
        _native.get(), &frames,
        _publishFrames ? &frame_insts : nullptr));
    context.setProperty(kTwirlGatesKey, frames);
    if (_publishFrames)
        context.setProperty(kTwirlFramesKey,
                            std::move(frame_insts));
}

void
CaEcPlanPass::run(PassContext &context)
{
    context.setProperty(kCaecPlanKey,
                        std::make_shared<const CaecPlan>(
                            makeCaecPlan(context.layered())));
}

void
CaEcFlatPass::run(PassContext &context)
{
    const auto &plan =
        context.requireProperty<std::shared_ptr<const CaecPlan>>(
            kCaecPlanKey);
    const TwirlFrames *frames =
        context.property<TwirlFrames>(kTwirlFramesKey);
    CaecStats stats;
    context.setFlat(applyCaEcFlat(context.flat(), *plan, frames,
                                  context.backend(), *_tables,
                                  _options, _scope, _native.get(),
                                  &stats));
    context.setProperty(kCaecStatsKey, stats);
}

void
FlattenPass::run(PassContext &context)
{
    context.setFlat(context.layered().flatten());
}

void
TranspilePass::run(PassContext &context)
{
    context.setFlat(transpileToNative(context.flat()));
}

void
SchedulePass::run(PassContext &context)
{
    context.setScheduled(scheduleASAP(
        context.flat(), context.backend().durations()));
}

void
IdleAnalysisPass::run(PassContext &context)
{
    context.setProperty(
        kIdleWindowsKey,
        context.scheduled().idleWindows(kMinIdleNs));
}

std::string
UniformDdPass::name() const
{
    return _style == UniformDdStyle::Aligned ? "dd-uniform-aligned"
                                             : "dd-uniform-staggered";
}

void
UniformDdPass::run(PassContext &context)
{
    context.setScheduled(applyUniformDd(
        context.scheduled(), context.backend().durations(),
        _style));
    context.setProperty(
        kDdPulsesKey, countTag(context.scheduled(), InstTag::DD));
}

void
CaDdPass::run(PassContext &context)
{
    context.setScheduled(
        applyCaDd(context.scheduled(), context.backend()));
    context.setProperty(
        kDdPulsesKey, countTag(context.scheduled(), InstTag::DD));
}

} // namespace casq
