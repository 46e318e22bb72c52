/**
 * @file
 * Floquet-Ising example (the paper's Fig. 6 workload): evolve a
 * 6-qubit chain at the Clifford point and watch the boundary
 * stabilizer <X0 X5> alternate between +1 and -1.  Compares bare
 * twirled execution against the context-aware strategies.
 *
 *   $ ./examples/ising_floquet [steps]
 */

#include <cstdlib>
#include <iostream>

#include "experiments/floquet.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

using namespace casq;

int
main(int argc, char **argv)
{
    const int max_steps = argc > 1 ? std::atoi(argv[1]) : 6;

    Backend backend = makeFakeLinear(6, 21);
    SimulationEngine noisy(backend, NoiseModel::standard());
    SimulationEngine ideal(backend, NoiseModel::ideal());
    const PauliString obs =
        PauliString::two(6, 0, PauliOp::X, 5, PauliOp::X);

    std::cout << "d   ideal     twirled   ca-ec     ca-dd\n";
    std::cout << "------------------------------------------\n";
    for (int d = 1; d <= max_steps; ++d) {
        const LayeredCircuit circuit = buildFloquetIsing(6, d);

        ExecutionOptions one;
        one.trajectories = 1;
        const double ideal_value =
            ideal.run(scheduleASAP(circuit.flatten(),
                                   backend.durations()),
                      {obs}, one)
                .means[0];

        std::cout << d << "  ";
        std::cout.precision(4);
        std::cout.width(8);
        std::cout << std::fixed << ideal_value << "  ";
        for (Strategy strategy :
             {Strategy::None, Strategy::Ec, Strategy::CaDd}) {
            CompileOptions options;
            options.strategy = strategy;
            options.twirl = true;
            const auto ensemble = compileEnsemble(
                circuit, backend, options, 8, 99 + 7 * d);
            ExecutionOptions exec;
            exec.trajectories = 240;
            exec.seed = 5 + d;
            const double value =
                noisy.run(ensemble, {obs}, exec).means[0];
            std::cout.width(8);
            std::cout << value << "  ";
        }
        std::cout << "\n";
    }
    std::cout << "\nThe boundary spins flip sign each step; "
                 "suppression preserves the oscillation amplitude "
                 "that bare twirled execution loses.\n";
    return 0;
}
