/**
 * @file
 * Reproduction of paper Fig. 3: Ramsey characterization of the four
 * coherent-error contexts and their suppression.
 *
 *  - Case I   (3c): two adjacent idle qubits.
 *  - Case II  (3d): spectator of an ECR control.
 *  - Case III (3e): spectator of an ECR target.
 *  - Case IV  (3f): adjacent controls of two parallel ECRs.
 *
 * Absolute rates come from the synthetic device model; the *shape*
 * to compare with the paper: bare curves oscillate and decay;
 * aligned DD removes Z but not ZZ in case I; EC and staggered
 * (context-aware) DD recover the signal; in case IV only EC helps.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "experiments/ramsey.hh"

using namespace casq;

namespace {

struct Curve
{
    std::string name;
    Strategy strategy;
};

std::vector<Series>
sweep(const ContextBuilder &builder,
      const std::vector<std::uint32_t> &probes,
      const Backend &backend, const std::vector<Curve> &curves,
      const std::vector<int> &depths,
      const bench::BenchConfig &config)
{
    std::vector<Strategy> available;
    for (const auto &curve : curves)
        available.push_back(curve.strategy);
    bench::anyStrategyMatches(config, available);

    std::vector<Series> series;
    for (const auto &curve : curves) {
        if (!config.wantsStrategy(curve.strategy))
            continue;
        CompileOptions compile;
        compile.strategy = curve.strategy;
        compile.twirl = false;
        ExecutionOptions exec;
        exec.trajectories = config.trajectories;
        exec.seed = config.seed;
        exec.threads = int(config.threads);
        const auto points =
            runRamsey(builder, probes, backend,
                      NoiseModel::standard(), compile, depths, exec,
                      config.twirlInstances);
        Series s;
        s.name = curve.name;
        for (const auto &p : points)
            s.values.push_back(p.fidelity);
        series.push_back(std::move(s));
    }
    return series;
}

std::vector<double>
toDoubles(const std::vector<int> &depths)
{
    return std::vector<double>(depths.begin(), depths.end());
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchConfig config = bench::parseArgs(argc, argv);
    const std::vector<int> depths{0, 2, 4, 6, 8, 10, 12, 16, 20};

    // --- Case I: jointly idle pair (tau = 500 ns intervals). ----
    {
        Backend backend = makeFakeLinear(2, 41);
        backend.pair(0, 1).zzRateMHz = 0.08;
        const auto series = sweep(
            [&](int d) {
                return buildCaseIdleIdle(2, 0, 1, d, 500.0);
            },
            {0, 1}, backend,
            {{"noisy", Strategy::None},
             {"aligned-dd", Strategy::DdAligned},
             {"ca-ec", Strategy::Ec},
             {"ec+aligned-dd", Strategy::EcAlignedDd},
             {"staggered-ca-dd", Strategy::CaDd}},
            depths, config);
        printFigure(std::cout,
                    "Fig. 3c -- case I: idle-idle pair Ramsey "
                    "fidelity vs depth",
                    "d", toDoubles(depths), series);
        bench::paperReference(
            "noisy and aligned-DD oscillate and decay; EC, "
            "EC+aligned-DD and staggered DD stay near 1 with "
            "staggered DD also suppressing slow incoherent noise");
    }

    // --- Cases II/III: control and target spectators. -----------
    {
        Backend backend = makeFakeLinear(4, 43);
        backend.pair(0, 1).zzRateMHz = 0.08; // ctrl spectator
        backend.pair(2, 3).zzRateMHz = 0.08; // tgt spectator
        auto builder = [&](int d) {
            return buildCaseSpectator(4, 1, 2, d, {0, 3});
        };
        for (const auto &[title, probe] :
             {std::pair<std::string, std::uint32_t>{
                  "Fig. 3d -- case II: control spectator", 0},
              {"Fig. 3e -- case III: target spectator", 3}}) {
            const auto series = sweep(
                builder, {probe}, backend,
                {{"noisy", Strategy::None},
                 {"ca-ec", Strategy::Ec},
                 {"ca-dd", Strategy::CaDd}},
                depths, config);
            printFigure(std::cout, title, "d", toDoubles(depths),
                        series);
            bench::paperReference(
                "spectator Z error: oscillating decay without "
                "suppression; both EC (phase absorption) and "
                "correctly-placed DD recover the signal");
        }
    }

    // --- Case IV: adjacent controls of parallel ECRs. ------------
    {
        Backend backend = makeFakeLinear(4, 47);
        backend.pair(1, 2).zzRateMHz = 0.08; // ctrl-ctrl
        const std::vector<int> d4{0, 1, 2, 3, 4, 6, 8};
        const auto series = sweep(
            [&](int d) {
                return buildCaseControlControl(4, 1, 0, 2, 3, d);
            },
            {1, 2}, backend,
            {{"noisy", Strategy::None},
             {"ca-dd", Strategy::CaDd},
             {"ca-ec", Strategy::Ec}},
            d4, config);
        printFigure(std::cout,
                    "Fig. 3f -- case IV: adjacent controls (ZZ "
                    "survives the echoes)",
                    "d", toDoubles(d4), series);
        bench::paperReference(
            "aligned gate echoes leave the ctrl-ctrl ZZ: DD cannot "
            "be applied (no idle qubits), only compensation into "
            "another two-qubit rotation recovers fidelity");
    }
    return 0;
}
