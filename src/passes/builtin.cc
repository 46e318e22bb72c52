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
    auto plan =
        std::make_shared<const TwirlPlan>(makeTwirlPlan(context.layered()));
    // Build each distinct gate's conjugation table now, in the
    // (once-per-ensemble) prefix, so no twirl instance pays for it.
    for (const TwirlPlan::LayerGates &target : plan->targets)
        for (const Instruction &gate : target.gates)
            _tables->of2q(instructionUnitary(gate));
    context.artifacts().twirlPlan = std::move(plan);
}

void
LateTwirlPass::run(PassContext &context)
{
    PassArtifacts &artifacts = context.artifacts();
    casq_assert(artifacts.twirlPlan != nullptr,
                "pass property 'twirl.plan' missing or of the wrong "
                "type");
    std::size_t frames = 0;
    TwirlFrames frame_insts;
    context.setFlat(insertTwirlFrames(
        context.flat(), *artifacts.twirlPlan, context.rng(),
        *_tables, _native.get(), &frames,
        _publishFrames ? &frame_insts : nullptr));
    artifacts.twirlGates = frames;
    if (_publishFrames)
        artifacts.twirlFrames = std::move(frame_insts);
}

void
CaEcPlanPass::run(PassContext &context)
{
    context.artifacts().caecPlan = std::make_shared<const CaecPlan>(
        makeCaecPlan(context.layered()));
}

void
CaEcFlatPass::run(PassContext &context)
{
    PassArtifacts &artifacts = context.artifacts();
    casq_assert(artifacts.caecPlan != nullptr,
                "pass property 'caec.plan' missing or of the wrong "
                "type");
    const TwirlFrames *frames =
        artifacts.twirlFrames ? &*artifacts.twirlFrames : nullptr;
    CaecStats stats;
    context.setFlat(applyCaEcFlat(context.flat(), *artifacts.caecPlan,
                                  frames, context.backend(), *_tables,
                                  _options, _scope, _native.get(),
                                  &stats));
    artifacts.caecStats = stats;
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
    context.artifacts().idleWindows =
        context.scheduled().idleWindows(kMinIdleNs);
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
    context.artifacts().ddPulses =
        countTag(context.scheduled(), InstTag::DD);
}

void
CaDdPass::run(PassContext &context)
{
    context.setScheduled(
        applyCaDd(context.scheduled(), context.backend()));
    context.artifacts().ddPulses =
        countTag(context.scheduled(), InstTag::DD);
}

} // namespace casq
