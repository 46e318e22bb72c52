/**
 * @file
 * Reproduction of paper Fig. 8: layer fidelity of a sparse
 * 10-qubit layer on the fake_nazca heavy-hex device (qubits
 * 37-40, 52, 56-60 with ECR(37->52), ECR(38->39), ECR(57->58) and
 * four idle qubits; controls 37/38 are adjacent -- the case-IV
 * pair DD cannot fix).
 *
 * Paper values: LF_bare = 0.648, LF_DD = 0.743, LF_CA-DD = 0.822,
 * LF_CA-EC = 0.881; gamma = LF^-2: 2.38 / 1.81 / 1.48 / 1.29; for
 * a 10-layer circuit the overhead ratios reach ~7x (CA-DD vs DD)
 * and ~30x (CA-EC vs DD).
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "experiments/layer_fidelity.hh"

using namespace casq;

int
main(int argc, char **argv)
{
    const bench::BenchConfig config = bench::parseArgs(argc, argv);

    const Backend nazca = makeFakeNazca(0xCA5);
    Backend backend = nazca.subsystem(fig8Qubits());
    // Strengthen the highlighted ctrl-ctrl coupling (paper: "ZZ
    // between Ctrl-Ctrl on Q37 and Q38").
    backend.pair(0, 1).zzRateMHz = 0.10;

    const LayerSpec spec = fig8LayerSpec();

    LayerFidelityOptions options;
    options.depths = {1, 2, 4, 8, 16};
    options.pauliSamples = 5;
    options.twirlInstances = config.twirlInstances;
    ExecutionOptions exec;
    exec.trajectories = std::max(32, config.trajectories / 2);
    exec.seed = config.seed;
    exec.threads = int(config.threads);

    const std::vector<std::pair<std::string, Strategy>> curves{
        {"bare", Strategy::None},
        {"dd", Strategy::DdStaggered},
        {"ca-dd", Strategy::CaDd},
        {"ca-ec", Strategy::Ec}};
    const std::vector<double> paper{0.648, 0.743, 0.822, 0.881};

    printBanner(std::cout,
                "Fig. 8 -- layer fidelity of the sparse 10-qubit "
                "nazca layer");
    Table table({"strategy", "LF (measured)", "LF (paper)",
                 "gamma=LF^-2", "gamma (paper)"});
    std::vector<Strategy> available;
    for (const auto &curve : curves)
        available.push_back(curve.second);
    bench::anyStrategyMatches(config, available);

    std::vector<double> gammas;
    for (std::size_t k = 0; k < curves.size(); ++k) {
        if (!config.wantsStrategy(curves[k].second))
            continue;
        CompileOptions compile;
        compile.strategy = curves[k].second;
        compile.twirl = true;
        const LayerFidelityResult result = measureLayerFidelity(
            spec, backend, NoiseModel::standard(), compile,
            options, exec);
        gammas.push_back(result.gamma);
        table.addRow({curves[k].first,
                      Table::fmt(result.layerFidelity, 3),
                      Table::fmt(paper[k], 3),
                      Table::fmt(result.gamma, 2),
                      Table::fmt(1.0 / (paper[k] * paper[k]), 2)});
    }
    table.print(std::cout);
    std::cout << "\n";

    // The overhead ratios compare strategies pairwise, so they only
    // make sense when every curve was measured.
    if (gammas.size() < curves.size()) {
        std::cout << "(--strategy filter active: skipping the "
                     "cross-strategy overhead ratios)\n";
        return 0;
    }

    printBanner(std::cout,
                "sampling-overhead ratios (single layer and "
                "10-layer circuit)");
    Table ratios({"comparison", "per layer", "10 layers",
                  "paper (10 layers)"});
    const double r_cadd = gammas[1] / gammas[2];
    const double r_caec = gammas[1] / gammas[3];
    ratios.addRow({"dd / ca-dd", Table::fmt(r_cadd, 2) + "x",
                   Table::fmt(std::pow(r_cadd, 10), 1) + "x",
                   "~7x"});
    ratios.addRow({"dd / ca-ec", Table::fmt(r_caec, 2) + "x",
                   Table::fmt(std::pow(r_caec, 10), 1) + "x",
                   "~30x"});
    ratios.print(std::cout);
    bench::paperReference(
        "layer fidelity ordering bare < DD < CA-DD < CA-EC; the "
        "overhead gain compounds exponentially with circuit depth");
    return 0;
}
