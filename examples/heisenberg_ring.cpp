/**
 * @file
 * Heisenberg-ring example (the paper's Fig. 7 workload): Trotterized
 * dynamics of a spin ring built from canonical two-qubit blocks,
 * with the ZZ part of the always-on crosstalk absorbed into the
 * Heisenberg interactions at zero cost.
 *
 *   $ ./examples/heisenberg_ring [qubits] [steps]
 *
 * Also demonstrates the CaecStats bookkeeping: how many
 * compensations were absorbed into gates vs inserted explicitly.
 */

#include <cstdlib>
#include <iostream>

#include "experiments/heisenberg.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

using namespace casq;

int
main(int argc, char **argv)
{
    const std::size_t n =
        argc > 1 ? std::size_t(std::atoi(argv[1])) : 12;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 3;

    Backend backend = makeFakeRing(n, 31);
    const LayeredCircuit circuit = buildHeisenbergRing(n, steps);

    // What does CA-EC actually do on this circuit?  The ca-ec pass
    // publishes its bookkeeping on the compilation result.
    Rng rng(3);
    const CompilationResult compiled =
        buildPipeline(Strategy::Ec).compile(circuit, backend, rng);
    const CaecStats &stats = *compiled.artifacts.caecStats;
    std::cout << "CA-EC on " << n << "-qubit ring, " << steps
              << " Trotter steps:\n"
              << "  compensations absorbed into can gates: "
              << stats.absorbedIntoGates << "\n"
              << "  virtual rz compensations:               "
              << stats.insertedRz << "\n"
              << "  explicit rzz insertions:                "
              << stats.insertedRzz << "\n\n";

    // Compare <Z_2>(t) under bare twirling vs CA-EC.
    const PauliString obs =
        PauliString::single(n, 2, PauliOp::Z);
    SimulationEngine ideal(backend, NoiseModel::ideal());
    SimulationEngine noisy(backend, NoiseModel::standard());

    std::cout << "d   ideal     twirled   ca-ec\n";
    std::cout << "--------------------------------\n";
    for (int d = 1; d <= steps; ++d) {
        const LayeredCircuit step_circuit =
            buildHeisenbergRing(n, d);
        ExecutionOptions one;
        one.trajectories = 1;
        const double ideal_value =
            ideal.run(scheduleASAP(step_circuit.flatten(),
                                   backend.durations()),
                      {obs}, one)
                .means[0];
        std::cout << d << "  ";
        std::cout.precision(4);
        std::cout.width(8);
        std::cout << std::fixed << ideal_value << "  ";
        for (Strategy strategy : {Strategy::None, Strategy::Ec}) {
            CompileOptions options;
            options.strategy = strategy;
            const auto ensemble = compileEnsemble(
                step_circuit, backend, options, 4, 11 + d);
            ExecutionOptions exec;
            exec.trajectories = 64;
            exec.seed = 17 + d;
            std::cout.width(8);
            std::cout << noisy.run(ensemble, {obs}, exec).means[0]
                      << "  ";
        }
        std::cout << "\n";
    }
    std::cout << "\nThe idle-period ZZ corrections ride along for "
                 "free inside the Heisenberg interactions "
                 "(gamma -> gamma - theta/2, paper Fig. 1d).\n";
    return 0;
}
