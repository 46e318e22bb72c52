#include "passes/twirling.hh"

#include "circuit/unitary.hh"
#include "common/logging.hh"

namespace casq {

namespace {

Instruction
pauliInstruction(PauliOp op, std::uint32_t q)
{
    static const Op ops[] = {Op::I, Op::X, Op::Y, Op::Z};
    Instruction inst(ops[int(op)], {q});
    inst.tag = InstTag::Twirl;
    return inst;
}

/**
 * Sample one Pauli frame per two-qubit gate of `insts` (non-2q
 * instructions are skipped) and append the non-identity frame gates:
 * the sampled Pauli P before the gate, its conjugation Q = U P
 * U^dagger after.
 */
void
sampleTwirlFrames(const std::vector<Instruction> &insts, Rng &rng,
                  ConjugationTable &tables,
                  std::vector<Instruction> &pre,
                  std::vector<Instruction> &post)
{
    for (const Instruction &inst : insts) {
        if (!opIsTwoQubitGate(inst.op))
            continue;
        const Conjugation2Q &table =
            tables.of2q(instructionUnitary(inst));
        const auto &twirl_set = table.twirlSet();
        casq_assert(!twirl_set.empty(), "empty twirl set");
        const Pauli2 p =
            twirl_set[rng.uniformInt(twirl_set.size())];
        const auto image = table.conjugate(p);
        casq_assert(image.has_value(),
                    "twirl Pauli without conjugation image");
        if (p.op0 != PauliOp::I)
            pre.push_back(
                pauliInstruction(p.op0, inst.qubits[0]));
        if (p.op1 != PauliOp::I)
            pre.push_back(
                pauliInstruction(p.op1, inst.qubits[1]));
        if (image->pauli.op0 != PauliOp::I)
            post.push_back(
                pauliInstruction(image->pauli.op0,
                                 inst.qubits[0]));
        if (image->pauli.op1 != PauliOp::I)
            post.push_back(
                pauliInstruction(image->pauli.op1,
                                 inst.qubits[1]));
    }
}

} // namespace

std::size_t
TwirlPlan::gateCount() const
{
    std::size_t n = 0;
    for (const LayerGates &target : targets)
        n += target.gates.size();
    return n;
}

TwirlPlan
makeTwirlPlan(const LayeredCircuit &circuit)
{
    TwirlPlan plan;
    plan.layerCount = circuit.layers().size();
    for (std::size_t li = 0; li < plan.layerCount; ++li) {
        const Layer &layer = circuit.layers()[li];
        if (layer.kind != LayerKind::TwoQubit)
            continue;
        TwirlPlan::LayerGates target;
        target.layer = li;
        for (const Instruction &inst : layer.insts)
            if (opIsTwoQubitGate(inst.op))
                target.gates.push_back(inst);
        if (!target.gates.empty())
            plan.targets.push_back(std::move(target));
    }
    return plan;
}

std::vector<std::vector<Instruction>>
barrierSegments(const Circuit &flat)
{
    // flatten() emits exactly one all-qubit barrier between
    // consecutive layers, and transpilation passes barriers through
    // untouched.
    std::vector<std::vector<Instruction>> segments(1);
    for (const Instruction &inst : flat.instructions()) {
        if (isLayerSeparator(inst, flat.numQubits()))
            segments.emplace_back();
        else
            segments.back().push_back(inst);
    }
    return segments;
}

Circuit
insertTwirlFrames(const Circuit &flat, const TwirlPlan &plan, Rng &rng,
                  ConjugationTable &tables,
                  TranspileCache *native,
                  std::size_t *frames, TwirlFrames *frame_insts)
{
    if (frames)
        *frames = 0;
    if (plan.layerCount == 0)
        return flat;

    std::vector<std::vector<Instruction>> segments =
        barrierSegments(flat);
    casq_assert(segments.size() == plan.layerCount,
                "flat circuit has ", segments.size(),
                " barrier segment(s) but the twirl plan was "
                "captured from ", plan.layerCount, " layer(s)");

    std::vector<std::vector<Instruction>> out_segments;
    out_segments.reserve(segments.size() + 2 * plan.targets.size());
    std::size_t next = 0;
    for (std::size_t li = 0; li < segments.size(); ++li) {
        if (next >= plan.targets.size() ||
            plan.targets[next].layer != li) {
            out_segments.push_back(std::move(segments[li]));
            continue;
        }
        std::vector<Instruction> pre, post;
        sampleTwirlFrames(plan.targets[next].gates, rng, tables, pre,
                          post);
        if (frames)
            *frames += pre.size() + post.size();
        if (frame_insts)
            frame_insts->targets.push_back(
                {plan.targets[next].layer, pre, post});
        ++next;
        // Empty frame layers are elided before lowering; the rest
        // receive the lowering the transpile pass applied to the
        // stream.
        if (!pre.empty())
            out_segments.push_back(native ? native->lower(pre)
                                          : std::move(pre));
        out_segments.push_back(std::move(segments[li]));
        if (!post.empty())
            out_segments.push_back(native ? native->lower(post)
                                          : std::move(post));
    }

    Circuit out(flat.numQubits(), flat.numClbits());
    for (std::size_t s = 0; s < out_segments.size(); ++s) {
        for (Instruction &inst : out_segments[s])
            out.append(std::move(inst));
        if (s + 1 < out_segments.size())
            out.barrier();
    }
    return out;
}

} // namespace casq
