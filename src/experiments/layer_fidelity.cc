#include "experiments/layer_fidelity.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/statistics.hh"
#include "pauli/clifford.hh"

namespace casq {

std::vector<LayerUnit>
partitionUnits(const LayerSpec &spec, const Backend &backend)
{
    std::vector<LayerUnit> units;
    for (const auto &[c, t] : spec.gates)
        units.push_back(LayerUnit{{c, t}, true});

    // Greedily pair up coupled idle qubits; singles remain alone.
    std::set<std::uint32_t> remaining(spec.idles.begin(),
                                      spec.idles.end());
    for (auto q : spec.idles) {
        if (!remaining.count(q))
            continue;
        bool paired = false;
        for (auto p : backend.coupling().neighbors(q)) {
            if (p != q && remaining.count(p)) {
                units.push_back(LayerUnit{{q, p}, false});
                remaining.erase(q);
                remaining.erase(p);
                paired = true;
                break;
            }
        }
        if (!paired) {
            units.push_back(LayerUnit{{q}, false});
            remaining.erase(q);
        }
    }
    return units;
}

namespace {

/** Random non-identity Pauli ops for a unit. */
std::vector<PauliOp>
samplePauli(const LayerUnit &unit, Rng &rng)
{
    std::vector<PauliOp> ops;
    do {
        ops.clear();
        for (std::size_t k = 0; k < unit.qubits.size(); ++k)
            ops.push_back(PauliOp(rng.uniformInt(4)));
        bool nontrivial = false;
        for (auto op : ops)
            nontrivial |= op != PauliOp::I;
        if (nontrivial)
            return ops;
    } while (true);
}

/** Append eigenstate-preparation layers for the sampled Paulis. */
void
appendPreparation(LayeredCircuit &circuit,
                  const std::vector<LayerUnit> &units,
                  const std::vector<std::vector<PauliOp>> &paulis)
{
    Layer h_layer{LayerKind::OneQubit, {}};
    Layer s_layer{LayerKind::OneQubit, {}};
    for (std::size_t u = 0; u < units.size(); ++u) {
        for (std::size_t k = 0; k < units[u].qubits.size(); ++k) {
            const std::uint32_t q = units[u].qubits[k];
            switch (paulis[u][k]) {
              case PauliOp::X:
                h_layer.insts.emplace_back(
                    Op::H, std::vector<std::uint32_t>{q});
                break;
              case PauliOp::Y:
                // S H |0> is the +1 eigenstate of Y.
                h_layer.insts.emplace_back(
                    Op::H, std::vector<std::uint32_t>{q});
                s_layer.insts.emplace_back(
                    Op::S, std::vector<std::uint32_t>{q});
                break;
              default:
                break;
            }
        }
    }
    if (!h_layer.insts.empty())
        circuit.addLayer(std::move(h_layer));
    if (!s_layer.insts.empty())
        circuit.addLayer(std::move(s_layer));
}

/** Evolve a unit Pauli through d ideal applications of its gate. */
std::pair<std::vector<PauliOp>, int>
evolvePauli(const LayerUnit &unit, const std::vector<PauliOp> &ops,
            const Conjugation2Q *table, int depth)
{
    if (!unit.isGate || table == nullptr)
        return {ops, 1};
    Pauli2 p{ops[0], ops[1]};
    int sign = 1;
    for (int d = 0; d < depth; ++d) {
        const auto image = table->conjugate(p);
        casq_assert(image.has_value(),
                    "layer gate must be Clifford for the protocol");
        p = image->pauli;
        sign *= image->sign;
    }
    return {{p.op0, p.op1}, sign};
}

} // namespace

LayerSpec
fig8LayerSpec()
{
    // Subsystem order of fig8Qubits(): 37, 38, 39, 40, 52, 56, 57,
    // 58, 59, 60 -> local 0..9.  Gates: ECR(37->52), ECR(38->39),
    // ECR(57->58); idle: 40, 56, 59, 60.  Controls 37 and 38 are
    // adjacent (the case-IV pair the paper highlights).
    LayerSpec spec;
    spec.gates = {{0, 4}, {1, 2}, {6, 7}};
    spec.idles = {3, 5, 8, 9};
    return spec;
}

std::vector<std::uint32_t>
fig8Qubits()
{
    return {37, 38, 39, 40, 52, 56, 57, 58, 59, 60};
}

LayerFidelityResult
measureLayerFidelity(const LayerSpec &spec, const Backend &backend,
                     const NoiseModel &noise,
                     const CompileOptions &compile,
                     const LayerFidelityOptions &options,
                     const ExecutionOptions &exec)
{
    const std::vector<LayerUnit> units =
        partitionUnits(spec, backend);

    // One engine for the whole protocol: its pool outlives every
    // (sample, depth) point and its variant cache serves any
    // schedule the sweep revisits.
    SimulationEngine engine(backend, noise);

    // One pipeline reused across every Pauli sample and depth.
    PassManager pipeline = buildPipeline(compile);

    // Base layer (one layered TwoQubit stratum).
    Layer gate_layer{LayerKind::TwoQubit, {}};
    for (const auto &[c, t] : spec.gates)
        gate_layer.insts.emplace_back(
            Op::ECR, std::vector<std::uint32_t>{c, t});

    const Conjugation2Q ecr_table(gateUnitary(Op::ECR));

    // Per unit, per depth: accumulated sign-corrected expectations.
    std::vector<std::vector<double>> sums(
        units.size(),
        std::vector<double>(options.depths.size(), 0.0));

    Rng pauli_rng(exec.seed ^ 0xFEEDFACEull);
    for (int r = 0; r < options.pauliSamples; ++r) {
        std::vector<std::vector<PauliOp>> paulis;
        for (const auto &unit : units)
            paulis.push_back(samplePauli(unit, pauli_rng));

        for (std::size_t di = 0; di < options.depths.size(); ++di) {
            const int depth = options.depths[di];
            LayeredCircuit circuit(backend.numQubits(), 0);
            appendPreparation(circuit, units, paulis);
            for (int d = 0; d < depth; ++d)
                circuit.addLayer(gate_layer);

            std::vector<PauliString> observables;
            std::vector<int> signs;
            for (std::size_t u = 0; u < units.size(); ++u) {
                const auto [ops, sign] = evolvePauli(
                    units[u], paulis[u],
                    units[u].isGate ? &ecr_table : nullptr, depth);
                PauliString obs(backend.numQubits());
                for (std::size_t k = 0; k < ops.size(); ++k)
                    obs.setOp(units[u].qubits[k], ops[k]);
                observables.push_back(std::move(obs));
                signs.push_back(sign);
            }

            EnsembleRunOptions run{exec};
            run.instances = options.twirlInstances;
            run.compileSeed = exec.seed + 13 * r + 131 * depth;
            const RunResult result = engine.runEnsemble(
                circuit, pipeline, observables, run);
            for (std::size_t u = 0; u < units.size(); ++u)
                sums[u][di] += signs[u] * result.means[u];
        }
    }

    LayerFidelityResult out;
    out.units = units;
    std::vector<double> xs(options.depths.begin(),
                           options.depths.end());
    out.layerFidelity = 1.0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        std::vector<double> ys;
        for (double s : sums[u])
            ys.push_back(s / options.pauliSamples);
        DecayFit fit = fitExpDecay(xs, ys);
        const double lambda = std::clamp(fit.lambda, 1e-6, 1.0);
        const double dim = std::pow(4.0, units[u].qubits.size());
        const double fidelity = ((dim - 1.0) * lambda + 1.0) / dim;
        out.unitLambdas.push_back(lambda);
        out.unitFidelities.push_back(fidelity);
        out.layerFidelity *= fidelity;
    }
    out.gamma = 1.0 / (out.layerFidelity * out.layerFidelity);
    return out;
}

} // namespace casq
