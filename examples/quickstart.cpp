/**
 * @file
 * Quickstart: build a circuit, pick a synthetic device, compile it
 * with context-aware error suppression, and run it on the noisy
 * trajectory simulator.
 *
 *   $ ./examples/quickstart
 *
 * The example prepares a GHZ state on four qubits of a linear
 * device, compares bare execution against the CA-EC and CA-DD
 * strategies, and prints the resulting stabilizer expectations.
 */

#include <iostream>

#include "experiments/ramsey.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

using namespace casq;

int
main()
{
    // 1. A device: 4-qubit chain with paper-typical calibration
    //    data (always-on ZZ of tens of kHz, finite T1/T2, gate and
    //    readout errors).  Real backends expose exactly these
    //    tables; both the compiler and the simulator read them.
    const Backend backend = makeFakeLinear(4, /*seed=*/7);

    // 2. A logical circuit, as alternating layers: GHZ preparation
    //    followed by an idle period (e.g. waiting on a far-away
    //    measurement) and the un-preparation.  Ideally every qubit
    //    returns to |0>.
    Circuit qc(4, 0);
    qc.h(0).barrier();
    qc.cx(0, 1).barrier();
    qc.cx(1, 2).barrier();
    qc.cx(2, 3).barrier();
    for (std::uint32_t q = 0; q < 4; ++q)
        qc.delay(q, 8000.0);
    qc.barrier();
    qc.cx(2, 3).barrier();
    qc.cx(1, 2).barrier();
    qc.cx(0, 1).barrier();
    qc.h(0);
    const LayeredCircuit logical = stratify(qc);

    // 3. Observables: P(|0000>) via the Z-subset expectations.
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < 4; ++q)
        obs.push_back(PauliString::single(4, q, PauliOp::Z));

    SimulationEngine engine(backend, NoiseModel::standard());

    std::cout << "strategy      <Z0>    <Z1>    <Z2>    <Z3>\n";
    std::cout << "--------------------------------------------\n";
    for (Strategy strategy :
         {Strategy::None, Strategy::Ec, Strategy::CaDd,
          Strategy::Combined}) {
        // 4. Compile: each strategy is a pass pipeline (twirl +
        //    strategy-specific suppression), built once and reused
        //    for every twirled instance of the ensemble.
        CompileOptions options;
        options.strategy = strategy;
        options.twirl = true;
        PassManager pipeline = buildPipeline(options);
        const auto ensemble = compileEnsemble(logical, backend,
                                              pipeline,
                                              /*instances=*/8,
                                              /*seed=*/1234);

        // 5. Execute: trajectories sample the stochastic noise.
        ExecutionOptions exec;
        exec.trajectories = 400;
        const RunResult result = engine.run(ensemble, obs, exec);

        std::cout.width(12);
        std::cout << std::left << strategyName(strategy) << "  ";
        for (double z : result.means) {
            std::cout.width(6);
            std::cout.precision(3);
            std::cout << std::fixed << z << "  ";
        }
        std::cout << "\n";
    }
    std::cout << "\nIdeal value is 1.000 everywhere; context-aware "
                 "suppression keeps the idle period from degrading "
                 "the GHZ round trip.\n";

    // 6. Under the hood: a strategy is just an ordered pass list.
    //    Compile one instance through the PassManager directly to
    //    see the passes and what each one cost.
    PassManager pipeline = buildPipeline(Strategy::Combined);
    Rng rng(1234);
    const CompilationResult result =
        pipeline.compile(logical, backend, rng);
    std::cout << "\nca-ec+dd pipeline:";
    for (const auto &metric : result.metrics)
        std::cout << "  " << metric.name;
    std::cout << "\ncompile time: " << result.totalMillis()
              << " ms, " << result.scheduled.instructions().size()
              << " scheduled instructions\n";
    return 0;
}
