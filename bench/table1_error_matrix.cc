/**
 * @file
 * Reproduction of paper Table I: the coherent-error inventory and
 * which suppression technique addresses each row.
 *
 * For every error source a dedicated micro-experiment turns on
 * only that mechanism, measures the bare Ramsey fidelity, and then
 * applies EC and DD; "works" means the suppressed fidelity
 * recovers most of the bare loss, matching the paper's check-marks
 * (EC cannot fix slow stochastic Z; DD cannot fix gate-active ZZ;
 * NNN ZZ needs the Walsh hierarchy).
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "experiments/ramsey.hh"

using namespace casq;

namespace {

Backend
quietLinear(std::size_t n, std::uint64_t seed)
{
    Backend backend = makeFakeLinear(n, seed);
    for (std::uint32_t q = 0; q < n; ++q) {
        backend.qubit(q).quasiStaticSigmaMHz = 0.0;
        backend.qubit(q).chargeParityMHz = 0.0;
        backend.qubit(q).t1Ns = 1e12;
        backend.qubit(q).t2Ns = 1e12;
        backend.qubit(q).gateError1q = 0.0;
        backend.qubit(q).readoutError = 0.0;
    }
    for (const auto &edge : backend.coupling().edges()) {
        PairProperties &p = backend.pair(edge.a, edge.b);
        p.zzRateMHz = 0.0;
        p.starkShiftMHz = 0.0;
        p.measureStarkMHz = 0.0;
        p.gateError2q = 0.0;
    }
    return backend;
}

double
fidelity(const Backend &backend, const ContextBuilder &builder,
         const std::vector<std::uint32_t> &probes,
         Strategy strategy, int depth,
         const bench::BenchConfig &config)
{
    CompileOptions compile;
    compile.strategy = strategy;
    compile.twirl = false;
    ExecutionOptions exec;
    exec.trajectories = config.trajectories;
    exec.seed = config.seed;
    exec.threads = int(config.threads);
    const auto points =
        runRamsey(builder, probes, backend, NoiseModel::standard(),
                  compile, {depth}, exec, 4);
    return points[0].fidelity;
}

std::string
verdict(double bare, double suppressed)
{
    const double recovered = (suppressed - bare) / (1.0 - bare);
    if (recovered > 0.6)
        return "yes (" + Table::fmt(suppressed, 2) + ")";
    if (recovered > 0.25)
        return "partial (" + Table::fmt(suppressed, 2) + ")";
    return "no (" + Table::fmt(suppressed, 2) + ")";
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchConfig config = bench::parseArgs(argc, argv);
    if (config.onlyStrategy)
        std::cout << "(--strategy ignored: the error matrix "
                     "compares a fixed strategy set)\n";
    Table table({"error", "source", "bare F", "EC", "DD",
                 "paper: EC / DD"});

    // Row 1: Z (idle) -- always-on local term with neighbour in
    // |1>; compensation = phase shift, any DD works.
    {
        Backend backend = quietLinear(2, 11);
        backend.pair(0, 1).zzRateMHz = 0.08;
        auto builder = [&](int d) {
            LayeredCircuit circuit(2, 0);
            Layer prep{LayerKind::OneQubit, {}};
            prep.insts.emplace_back(Op::H,
                                    std::vector<std::uint32_t>{0});
            prep.insts.emplace_back(Op::X,
                                    std::vector<std::uint32_t>{1});
            circuit.addLayer(std::move(prep));
            for (int k = 0; k < d; ++k) {
                Layer idle{LayerKind::OneQubit, {}};
                idle.insts.emplace_back(
                    Op::Delay, std::vector<std::uint32_t>{0},
                    std::vector<double>{500.0});
                circuit.addLayer(std::move(idle));
            }
            return circuit;
        };
        const double bare = fidelity(backend, builder, {0},
                                     Strategy::None, 8, config);
        table.addRow(
            {"Z (idle)", "always-on",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::Ec, 8, config)),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::CaDd, 8, config)),
             "phase shift / any"});
    }

    // Row 2: ZZ (idle) -- jointly idle pair; absorb or staggered.
    {
        Backend backend = quietLinear(2, 13);
        backend.pair(0, 1).zzRateMHz = 0.08;
        auto builder = [&](int d) {
            return buildCaseIdleIdle(2, 0, 1, d, 500.0);
        };
        const double bare = fidelity(backend, builder, {0, 1},
                                     Strategy::None, 8, config);
        table.addRow(
            {"ZZ (idle)", "always-on",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {0, 1},
                                    Strategy::Ec, 8, config)),
             verdict(bare, fidelity(backend, builder, {0, 1},
                                    Strategy::CaDd, 8, config)),
             "absorb / staggered"});
    }

    // Row 3: ZZ (active) -- adjacent controls; DD cannot apply.
    {
        Backend backend = quietLinear(4, 17);
        backend.pair(1, 2).zzRateMHz = 0.08;
        auto builder = [&](int d) {
            return buildCaseControlControl(4, 1, 0, 2, 3, d);
        };
        const double bare = fidelity(backend, builder, {1, 2},
                                     Strategy::None, 3, config);
        table.addRow(
            {"ZZ (active)", "always-on",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {1, 2},
                                    Strategy::Ec, 3, config)),
             verdict(bare, fidelity(backend, builder, {1, 2},
                                    Strategy::CaDd, 3, config)),
             "commute-absorb / x"});
    }

    // Row 4: Stark Z from a neighbouring gate.
    {
        Backend backend = quietLinear(4, 19);
        backend.pair(0, 1).starkShiftMHz = 0.05;
        auto builder = [&](int d) {
            return buildCaseSpectator(4, 1, 2, d, {0});
        };
        const double bare = fidelity(backend, builder, {0},
                                     Strategy::None, 10, config);
        table.addRow(
            {"Stark Z", "neighbour gate",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::Ec, 10, config)),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::CaDd, 10, config)),
             "phase shift / any"});
    }

    // Row 5: slow stochastic Z (quasi-static + charge parity):
    // EC cannot predict the per-shot sign; DD refocuses it.
    {
        Backend backend = quietLinear(2, 23);
        backend.qubit(0).quasiStaticSigmaMHz = 0.035;
        backend.qubit(0).chargeParityMHz = 0.02;
        auto builder = [&](int d) {
            return buildCaseIdleIdle(2, 0, 1, d, 500.0);
        };
        const double bare = fidelity(backend, builder, {0},
                                     Strategy::None, 10, config);
        table.addRow(
            {"slow Z", "quasi-particles",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::Ec, 10, config)),
             verdict(bare, fidelity(backend, builder, {0},
                                    Strategy::CaDd, 10, config)),
             "x / any"});
    }

    // Row 6: NNN ZZ from a frequency collision: Walsh rows.
    {
        Backend backend = quietLinear(3, 29);
        backend.pair(0, 1).zzRateMHz = 0.06;
        backend.pair(1, 2).zzRateMHz = 0.06;
        backend.addNnnPair(0, 2, 0.02);
        auto builder = [&](int d) {
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
                        Op::Delay, std::vector<std::uint32_t>{q},
                        std::vector<double>{1000.0});
                circuit.addLayer(std::move(idle));
            }
            return circuit;
        };
        const double bare = fidelity(backend, builder, {0, 1, 2},
                                     Strategy::None, 8, config);
        table.addRow(
            {"NNN ZZ", "freq. collision",
             Table::fmt(bare, 2),
             verdict(bare, fidelity(backend, builder, {0, 1, 2},
                                    Strategy::Ec, 8, config)),
             verdict(bare, fidelity(backend, builder, {0, 1, 2},
                                    Strategy::CaDd, 8, config)),
             "x(*) / walsh"});
    }

    printBanner(std::cout,
                "Table I -- coherent errors and their suppression "
                "(measured Ramsey fidelities)");
    table.print(std::cout);
    std::cout << "(*) the paper lists EC as inapplicable for NNN "
                 "ZZ; our pass generalizes the compensation to any "
                 "characterized crosstalk edge, so EC also works "
                 "here.\n\n";
    bench::paperReference(
        "EC handles the deterministic rows (phase shifts / "
        "absorption), DD handles everything refocusable; slow "
        "stochastic Z defeats EC, gate-active ZZ defeats DD");
    return 0;
}
