/**
 * @file
 * Dynamic-circuit example (the paper's Fig. 9 workload): prepare a
 * Bell pair with a mid-circuit parity measurement and feedforward,
 * then rescue the fidelity with outcome-conditioned compensation.
 *
 *   $ ./examples/dynamic_bell
 *
 * Shows the compiled circuit so the conditional rz compensation
 * rules inserted by CA-EC are visible.
 */

#include <iostream>

#include "experiments/dynamic.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

using namespace casq;

int
main()
{
    Backend backend = makeFakeLinear(3, 99);
    backend.pair(0, 1).measureStarkMHz = 0.08;
    backend.pair(1, 2).measureStarkMHz = 0.05;

    const LayeredCircuit bell = buildDynamicBell();
    SimulationEngine engine(backend, NoiseModel::standard());
    ExecutionOptions exec;
    exec.trajectories = 600;

    double bare = 0.0;
    for (Strategy strategy : {Strategy::None, Strategy::Ec}) {
        CompileOptions options;
        options.strategy = strategy;
        options.twirl = false;
        Rng rng(1);
        const ScheduledCircuit compiled =
            compileCircuit(bell, backend, options, rng);
        const RunResult result = engine.run(
            compiled, bellFidelityObservables(), exec);
        const double fidelity = bellFidelity(result.means);
        if (strategy == Strategy::None)
            bare = fidelity;

        std::cout << "=== strategy: " << strategyName(strategy)
                  << " ===\n";
        if (strategy == Strategy::Ec) {
            std::cout << "compiled instructions (note the "
                         "conditional rz compensations):\n";
            for (const auto &timed : compiled.instructions()) {
                if (timed.inst.tag == InstTag::Compensation ||
                    timed.inst.op == Op::Measure ||
                    timed.inst.isConditional()) {
                    std::cout << "  t=" << timed.start << "ns  "
                              << timed.inst.toString() << "\n";
                }
            }
        }
        std::cout.precision(3);
        std::cout << "Bell fidelity: " << std::fixed << fidelity
                  << "\n\n";
    }
    std::cout << "The qubits idle ~5 us through measurement + "
                 "feedforward; compensating the known coherent "
                 "phases (including the outcome-conditioned ZZ "
                 "rule) recovers most of the "
              << bare << " -> ideal gap, as in paper Fig. 9.\n";
    return 0;
}
