/**
 * @file
 * Reproduction of paper Fig. 4: characterization of the less
 * dominant coherent errors.
 *
 *  (a) AC Stark shift: detuning-scan spectroscopy of a spectator
 *      while its neighbour runs gates; the peak sits offset from
 *      the always-on reference by the Stark rate.
 *  (b) Charge-parity +-delta: Ramsey beating cos(nu t) cos(delta t).
 *  (c) NNN ZZ from a frequency collision: Walsh-Hadamard sequences
 *      beat none/aligned/staggered DD on the qubit triplet.
 */

#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "experiments/ramsey.hh"
#include "sim/engine.hh"

using namespace casq;

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}

static void
figure4a(const bench::BenchConfig &config)
{
    Backend backend = makeFakeLinear(3, 53);
    const double zz = 0.06, stark = 0.02;
    backend.pair(0, 1).zzRateMHz = zz;
    backend.pair(0, 1).starkShiftMHz = stark;
    backend.pair(1, 2).zzRateMHz = 0.05;

    // Spectator 0 idles while ECR(1 -> 2) runs d times.
    const int depth = 8;
    const double total =
        depth * backend.durations().twoQubit;
    auto builder = [&](int d) {
        return buildCaseSpectator(3, 1, 2, d, {0});
    };
    CompileOptions compile;
    compile.twirl = false;
    ExecutionOptions exec;
    exec.trajectories = config.trajectories;
    exec.seed = config.seed;

    std::vector<double> freqs;
    for (double f = -0.12; f <= 0.121; f += 0.004)
        freqs.push_back(f);
    const SpectroscopyResult scan = runDetuningScan(
        builder, 0, total, backend, NoiseModel::standard(), compile,
        depth, freqs, exec);

    printFigure(std::cout,
                "Fig. 4a -- spectator spectroscopy while the "
                "neighbour is driven",
                "f_MHz", scan.frequenciesMhz,
                {Series{"fidelity", scan.fidelities}});
    Table table({"quantity", "value (MHz)"});
    table.addRow({"always-on ZZ reference (-nu)",
                  Table::fmt(-zz, 3)});
    table.addRow({"observed peak", Table::fmt(scan.peakMhz(), 3)});
    table.addRow({"offset = Stark shift",
                  Table::fmt(scan.peakMhz() + zz, 3)});
    table.addRow({"device Stark rate", Table::fmt(stark, 3)});
    table.print(std::cout);
    bench::paperReference(
        "~20 kHz Stark shift measured as the distance between the "
        "spectroscopy peak and the always-on coupling frequency");
    std::cout << "\n";
}

static void
figure4b(const bench::BenchConfig &config)
{
    Backend backend = makeFakeLinear(1, 59);
    const double delta = 0.004; // 4 kHz charge-parity splitting
    const double nu = 0.02;     // known applied rotation
    backend.qubit(0).chargeParityMHz = delta;
    backend.qubit(0).quasiStaticSigmaMHz = 0.0;

    CompileOptions compile;
    compile.twirl = false;
    ExecutionOptions exec;
    exec.trajectories = config.trajectories;
    exec.seed = config.seed;
    SimulationEngine engine(backend, NoiseModel::standard());

    std::vector<double> times, measured, envelope;
    for (int d = 0; d <= 40; d += 2) {
        const double tau = d * 2000.0;
        LayeredCircuit circuit(1, 0);
        Layer prep{LayerKind::OneQubit, {}};
        prep.insts.emplace_back(Op::H,
                                std::vector<std::uint32_t>{0});
        circuit.addLayer(std::move(prep));
        if (d > 0) {
            Layer idle{LayerKind::OneQubit, {}};
            idle.insts.emplace_back(Op::Delay,
                                    std::vector<std::uint32_t>{0},
                                    std::vector<double>{tau});
            circuit.addLayer(std::move(idle));
        }
        // Known rotation nu applied as a virtual frame change.
        Layer rot{LayerKind::OneQubit, {}};
        rot.insts.emplace_back(
            Op::RZ, std::vector<std::uint32_t>{0},
            std::vector<double>{kTwoPi * nu * tau * 1e-3});
        circuit.addLayer(std::move(rot));

        Rng rng(1);
        const ScheduledCircuit sched = compileCircuit(
            circuit, backend, compile, rng);
        const RunResult result = engine.run(
            sched, {PauliString::single(1, 0, PauliOp::X)},
            {config.trajectories, config.seed, 2});
        times.push_back(tau * 1e-3);
        measured.push_back(result.means[0]);
        envelope.push_back(std::cos(kTwoPi * nu * tau * 1e-3) *
                           std::cos(kTwoPi * delta * tau * 1e-3));
    }
    printFigure(std::cout,
                "Fig. 4b -- charge-parity beating: <X(t)> under a "
                "known rotation nu with +-delta per shot",
                "t_us", times,
                {Series{"measured", measured},
                 Series{"cos(nu t) cos(delta t)", envelope}});
    bench::paperReference(
        "beating of the Ramsey oscillation at cos(nu t) "
        "cos(delta t) from the shot-to-shot charge-parity sign");
}

static void
figure4c(const bench::BenchConfig &config)
{
    // FakeSherbrooke carries the type-VI collision NNN edge on the
    // triplet (0, 1, 2).
    Backend full = makeFakeSherbrooke(61);
    Backend backend = full.subsystem({0, 1, 2});
    backend.addNnnPair(0, 2, 0.012);
    backend.pair(0, 1).zzRateMHz = 0.06;
    backend.pair(1, 2).zzRateMHz = 0.06;

    const std::vector<int> depths{0, 2, 4, 6, 8, 12, 16};
    std::vector<Series> series;
    const std::vector<std::pair<std::string, Strategy>> curves{
        {"none", Strategy::None},
        {"aligned", Strategy::DdAligned},
        {"staggered", Strategy::DdStaggered},
        {"walsh (ca-dd)", Strategy::CaDd}};
    std::vector<Strategy> available;
    for (const auto &curve : curves)
        available.push_back(curve.second);
    bench::anyStrategyMatches(config, available);

    for (const auto &[name, strategy] : curves) {
        if (!config.wantsStrategy(strategy))
            continue;
        CompileOptions compile;
        compile.strategy = strategy;
        compile.twirl = false;
        ExecutionOptions exec;
        exec.trajectories = config.trajectories;
        exec.seed = config.seed;
        exec.threads = int(config.threads);
        const auto points = runRamsey(
            [&](int d) {
                LayeredCircuit circuit(3, 0);
                Layer prep{LayerKind::OneQubit, {}};
                for (std::uint32_t q = 0; q < 3; ++q)
                    prep.insts.emplace_back(
                        Op::H, std::vector<std::uint32_t>{q});
                circuit.addLayer(std::move(prep));
                for (int k = 0; k < d; ++k) {
                    Layer idle{LayerKind::OneQubit, {}};
                    for (std::uint32_t q = 0; q < 3; ++q)
                        idle.insts.emplace_back(
                            Op::Delay,
                            std::vector<std::uint32_t>{q},
                            std::vector<double>{1000.0});
                    circuit.addLayer(std::move(idle));
                }
                return circuit;
            },
            {0, 1, 2}, backend, NoiseModel::standard(), compile,
            depths, exec, config.twirlInstances);
        Series s;
        s.name = name;
        for (const auto &p : points)
            s.values.push_back(p.fidelity);
        series.push_back(std::move(s));
    }
    printFigure(std::cout,
                "Fig. 4c -- NNN collision triplet: joint Ramsey "
                "fidelity under different DD sequences",
                "d",
                std::vector<double>(depths.begin(), depths.end()),
                series);
    bench::paperReference(
        "with an enhanced next-nearest-neighbour ZZ, progressively "
        "more cancellation going up the Walsh-Hadamard hierarchy: "
        "walsh > staggered > aligned > none");
}

int
main(int argc, char **argv)
{
    const bench::BenchConfig config = bench::parseArgs(argc, argv);
    figure4a(config);
    figure4b(config);
    figure4c(config);
    return 0;
}
