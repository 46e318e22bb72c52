#include "experiments/ramsey.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace casq {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
} // namespace

std::vector<PauliString>
plusStateObservables(std::size_t num_qubits,
                     const std::vector<std::uint32_t> &probes)
{
    casq_assert(probes.size() <= 8, "too many Ramsey probes");
    const std::size_t count = std::size_t(1) << probes.size();
    std::vector<PauliString> obs;
    obs.reserve(count);
    for (std::size_t mask = 0; mask < count; ++mask) {
        PauliString p(num_qubits);
        for (std::size_t k = 0; k < probes.size(); ++k)
            if (mask & (std::size_t(1) << k))
                p.setOp(probes[k], PauliOp::X);
        obs.push_back(std::move(p));
    }
    return obs;
}

double
plusStateFidelity(const std::vector<double> &x_subsets)
{
    double acc = 0.0;
    for (double v : x_subsets)
        acc += v;
    return acc / double(x_subsets.size());
}

std::vector<RamseyPoint>
runRamsey(const ContextBuilder &builder,
          const std::vector<std::uint32_t> &probes,
          const Backend &backend, const NoiseModel &noise,
          const CompileOptions &compile,
          const std::vector<int> &depths,
          const ExecutionOptions &exec, int twirl_instances)
{
    SimulationEngine engine(backend, noise);
    const std::vector<PauliString> obs =
        plusStateObservables(backend.numQubits(), probes);

    // One pipeline for the whole depth sweep: pass-internal caches
    // (twirl conjugation tables) are built once and reused.  The
    // engine fuses compilation into trajectory execution per depth,
    // so no schedule vector is materialized between the stages.
    PassManager pipeline = buildPipeline(compile);

    std::vector<RamseyPoint> points;
    for (int depth : depths) {
        const LayeredCircuit layered = builder(depth);
        EnsembleRunOptions opts{exec};
        opts.instances = twirl_instances;
        opts.compileSeed = exec.seed + std::uint64_t(depth) * 977;
        const RunResult result =
            engine.runEnsemble(layered, pipeline, obs, opts);

        RamseyPoint point;
        point.depth = depth;
        point.fidelity = plusStateFidelity(result.means);
        double var = 0.0;
        for (double se : result.stderrs)
            var += se * se;
        point.stderror = std::sqrt(var) / double(result.means.size());
        points.push_back(point);
    }
    return points;
}

LayeredCircuit
buildCaseIdleIdle(std::size_t num_qubits, std::uint32_t q0,
                  std::uint32_t q1, int depth, double tau_ns)
{
    LayeredCircuit circuit(num_qubits, 0);
    Layer prep{LayerKind::OneQubit, {}};
    prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{q0});
    prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{q1});
    circuit.addLayer(std::move(prep));
    for (int d = 0; d < depth; ++d) {
        Layer idle{LayerKind::OneQubit, {}};
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q0},
                                std::vector<double>{tau_ns});
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q1},
                                std::vector<double>{tau_ns});
        circuit.addLayer(std::move(idle));
    }
    return circuit;
}

LayeredCircuit
buildCaseSpectator(std::size_t num_qubits, std::uint32_t control,
                   std::uint32_t target, int depth,
                   const std::vector<std::uint32_t> &prepared)
{
    LayeredCircuit circuit(num_qubits, 0);
    Layer prep{LayerKind::OneQubit, {}};
    for (auto q : prepared)
        prep.insts.emplace_back(Op::H, std::vector<std::uint32_t>{q});
    circuit.addLayer(std::move(prep));
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        gates.insts.emplace_back(
            Op::ECR, std::vector<std::uint32_t>{control, target});
        circuit.addLayer(std::move(gates));
    }
    return circuit;
}

LayeredCircuit
buildCaseControlControl(std::size_t num_qubits, std::uint32_t ctrl0,
                        std::uint32_t tgt0, std::uint32_t ctrl1,
                        std::uint32_t tgt1, int depth)
{
    LayeredCircuit circuit(num_qubits, 0);
    Layer prep{LayerKind::OneQubit, {}};
    prep.insts.emplace_back(Op::H,
                            std::vector<std::uint32_t>{ctrl0});
    prep.insts.emplace_back(Op::H,
                            std::vector<std::uint32_t>{ctrl1});
    circuit.addLayer(std::move(prep));
    for (int d = 0; d < depth; ++d) {
        // ECR is an involution: applying the parallel pair twice
        // leaves the logical state unchanged while exposing the
        // aligned control-control echoes.
        for (int rep = 0; rep < 2; ++rep) {
            Layer gates{LayerKind::TwoQubit, {}};
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{ctrl0, tgt0});
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{ctrl1, tgt1});
            circuit.addLayer(std::move(gates));
        }
    }
    return circuit;
}

double
SpectroscopyResult::peakMhz() const
{
    casq_assert(!fidelities.empty(), "empty spectroscopy result");
    std::size_t best = 0;
    for (std::size_t i = 1; i < fidelities.size(); ++i)
        if (fidelities[i] > fidelities[best])
            best = i;
    return frequenciesMhz[best];
}

SpectroscopyResult
runDetuningScan(const ContextBuilder &builder, std::uint32_t probe,
                double total_idle_ns, const Backend &backend,
                const NoiseModel &noise,
                const CompileOptions &compile, int depth,
                const std::vector<double> &frequencies_mhz,
                const ExecutionOptions &exec)
{
    SimulationEngine engine(backend, noise);
    std::vector<PauliString> obs{
        PauliString::single(backend.numQubits(), probe, PauliOp::X),
        PauliString::single(backend.numQubits(), probe, PauliOp::Y)};

    PassManager pipeline = buildPipeline(compile);
    const LayeredCircuit layered = builder(depth);
    EnsembleRunOptions opts{exec};
    opts.instances = 4;
    opts.compileSeed = exec.seed;
    const RunResult result =
        engine.runEnsemble(layered, pipeline, obs, opts);
    const double x = result.means[0];
    const double y = result.means[1];

    // Measuring X in a frame rotating at f for the total idle time
    // corresponds to the rotated quadrature cos(phi) X + sin(phi) Y.
    SpectroscopyResult out;
    out.frequenciesMhz = frequencies_mhz;
    for (double f : frequencies_mhz) {
        const double phi = kTwoPi * f * total_idle_ns * 1e-3;
        const double proj = std::cos(phi) * x + std::sin(phi) * y;
        out.fidelities.push_back((1.0 + proj) / 2.0);
    }
    return out;
}

} // namespace casq
