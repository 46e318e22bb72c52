#include "circuit/stratify.hh"

#include "common/logging.hh"

namespace casq {

bool
Layer::actsOn(std::uint32_t qubit) const
{
    for (const auto &inst : insts)
        if (inst.actsOn(qubit))
            return true;
    return false;
}

const Instruction *
Layer::gateOn(std::uint32_t qubit) const
{
    for (const auto &inst : insts)
        if (inst.actsOn(qubit))
            return &inst;
    return nullptr;
}

bool
isLayerSeparator(const Instruction &inst, std::size_t num_qubits)
{
    return inst.op == Op::Barrier && inst.qubits.size() == num_qubits;
}

void
LayeredCircuit::addLayer(Layer layer)
{
    // Instructions within a layer must touch disjoint qubits, and
    // all-qubit barriers are reserved as layer separators.
    std::vector<bool> used(_numQubits, false);
    for (const auto &inst : layer.insts) {
        casq_assert(!isLayerSeparator(inst, _numQubits),
                    "a layer may not hold an all-qubit barrier");
        for (auto q : inst.qubits) {
            casq_assert(!used[q],
                        "layer instructions overlap on qubit q", q);
            used[q] = true;
        }
    }
    _layers.push_back(std::move(layer));
}

Circuit
LayeredCircuit::flatten() const
{
    Circuit out(_numQubits, _numClbits);
    for (std::size_t li = 0; li < _layers.size(); ++li) {
        for (const auto &inst : _layers[li].insts)
            out.append(inst);
        if (li + 1 < _layers.size())
            out.barrier();
    }
    return out;
}

std::size_t
LayeredCircuit::countTwoQubitGates() const
{
    std::size_t n = 0;
    for (const auto &layer : _layers)
        for (const auto &inst : layer.insts)
            if (opIsTwoQubitGate(inst.op))
                ++n;
    return n;
}

namespace {

LayerKind
classify(const Instruction &inst)
{
    if (inst.isConditional() || inst.op == Op::Measure ||
        inst.op == Op::Reset) {
        return LayerKind::Dynamic;
    }
    if (opIsTwoQubitGate(inst.op))
        return LayerKind::TwoQubit;
    return LayerKind::OneQubit;
}

} // namespace

LayeredCircuit
stratify(const Circuit &circuit)
{
    LayeredCircuit out(circuit.numQubits(), circuit.numClbits());
    Layer current;
    bool open = false;
    std::vector<bool> used(circuit.numQubits(), false);

    auto flush = [&]() {
        if (open && !current.insts.empty())
            out.addLayer(std::move(current));
        current = Layer{};
        open = false;
        used.assign(circuit.numQubits(), false);
    };

    for (const auto &inst : circuit.instructions()) {
        if (inst.op == Op::Barrier) {
            flush();
            continue;
        }
        const LayerKind kind = classify(inst);
        bool overlaps = false;
        for (auto q : inst.qubits)
            overlaps |= used[q];
        if (!open) {
            current.kind = kind;
            open = true;
        } else if (kind != current.kind || overlaps) {
            flush();
            current.kind = kind;
            open = true;
        }
        for (auto q : inst.qubits)
            used[q] = true;
        current.insts.push_back(inst);
    }
    flush();
    return out;
}

} // namespace casq
