/**
 * @file
 * Workloads shared by the compile tests and the golden fingerprints
 * in test_dd_golden.cc.  tests/golden/twirl_reference_schedules.txt
 * was captured from these exact circuits: changing one fails the
 * golden test.
 */

#ifndef CASQ_TESTS_WORKLOADS_HH
#define CASQ_TESTS_WORKLOADS_HH

#include "experiments/ramsey.hh"

namespace casq {

/** Gates, idles, and parallel ECR contexts on a 4-qubit chain. */
inline LayeredCircuit
equivalenceWorkload()
{
    LayeredCircuit circuit = buildCaseControlControl(4, 1, 0, 2, 3,
                                                     2);
    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 4; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{900.0});
    circuit.addLayer(std::move(idle));
    return circuit;
}

/**
 * Every scheduling path late twirling must reproduce: parallel ECR
 * and mixed rzz/can two-qubit layers, idle and sx one-qubit layers,
 * and a measure -> feedforward dynamic tail followed by one more
 * twirled layer.
 */
inline LayeredCircuit
twirlWorkload()
{
    LayeredCircuit circuit(5, 1);

    Layer ecr{LayerKind::TwoQubit, {}};
    ecr.insts.emplace_back(Op::ECR,
                           std::vector<std::uint32_t>{0, 1});
    ecr.insts.emplace_back(Op::ECR,
                           std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(ecr));

    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{600.0});
    circuit.addLayer(std::move(idle));

    Layer mixed{LayerKind::TwoQubit, {}};
    mixed.insts.emplace_back(Op::RZZ,
                             std::vector<std::uint32_t>{1, 2},
                             std::vector<double>{0.37});
    mixed.insts.emplace_back(
        Op::Can, std::vector<std::uint32_t>{3, 4},
        std::vector<double>{0.3, 0.2, 0.1});
    circuit.addLayer(std::move(mixed));

    Layer ones{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        ones.insts.emplace_back(Op::SX,
                                std::vector<std::uint32_t>{q});
    circuit.addLayer(std::move(ones));

    Layer measure{LayerKind::Dynamic, {}};
    Instruction m(Op::Measure, {0});
    m.cbit = 0;
    measure.insts.push_back(m);
    circuit.addLayer(std::move(measure));

    Layer feedforward{LayerKind::Dynamic, {}};
    Instruction fx(Op::X, {2});
    fx.condBit = 0;
    fx.condValue = 1;
    feedforward.insts.push_back(fx);
    circuit.addLayer(std::move(feedforward));

    Layer tail{LayerKind::TwoQubit, {}};
    tail.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{1, 2});
    circuit.addLayer(std::move(tail));

    return circuit;
}

/**
 * Every compensation path of Algorithm 2: absorber gates (can/rzz),
 * a Clifford layer the pending angles transform through, idle
 * accumulation, and a measure -> feedforward tail (the Fig. 9b
 * conditional-rz rule) followed by one more gate layer.
 */
inline LayeredCircuit
caecWalkWorkload()
{
    LayeredCircuit circuit(5, 1);

    Layer gates{LayerKind::TwoQubit, {}};
    gates.insts.emplace_back(Op::ECR,
                             std::vector<std::uint32_t>{0, 1});
    gates.insts.emplace_back(
        Op::Can, std::vector<std::uint32_t>{2, 3},
        std::vector<double>{0.3, 0.2, 0.1});
    circuit.addLayer(std::move(gates));

    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{700.0});
    circuit.addLayer(std::move(idle));

    Layer absorbers{LayerKind::TwoQubit, {}};
    absorbers.insts.emplace_back(Op::RZZ,
                                 std::vector<std::uint32_t>{1, 2},
                                 std::vector<double>{0.37});
    absorbers.insts.emplace_back(
        Op::Can, std::vector<std::uint32_t>{3, 4},
        std::vector<double>{0.25, 0.15, 0.05});
    circuit.addLayer(std::move(absorbers));

    Layer idle2{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        idle2.insts.emplace_back(Op::Delay,
                                 std::vector<std::uint32_t>{q},
                                 std::vector<double>{500.0});
    circuit.addLayer(std::move(idle2));

    Layer measure{LayerKind::Dynamic, {}};
    Instruction m(Op::Measure, {1});
    m.cbit = 0;
    measure.insts.push_back(m);
    circuit.addLayer(std::move(measure));

    Layer feedforward{LayerKind::Dynamic, {}};
    Instruction fx(Op::X, {3});
    fx.condBit = 0;
    fx.condValue = 1;
    feedforward.insts.push_back(fx);
    circuit.addLayer(std::move(feedforward));

    Layer tail{LayerKind::TwoQubit, {}};
    tail.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(tail));

    return circuit;
}

} // namespace casq

#endif // CASQ_TESTS_WORKLOADS_HH
