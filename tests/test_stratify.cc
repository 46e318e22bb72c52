#include <gtest/gtest.h>

#include "circuit/stratify.hh"
#include "circuit/unitary.hh"

namespace casq {
namespace {

TEST(Stratify, AlternatingLayers)
{
    Circuit qc(4, 0);
    qc.h(0).h(1).ecr(0, 1).ecr(2, 3).x(0).x(2);
    const LayeredCircuit layered = stratify(qc);
    ASSERT_EQ(layered.layers().size(), 3u);
    EXPECT_EQ(layered.layers()[0].kind, LayerKind::OneQubit);
    EXPECT_EQ(layered.layers()[1].kind, LayerKind::TwoQubit);
    EXPECT_EQ(layered.layers()[1].insts.size(), 2u);
    EXPECT_EQ(layered.layers()[2].kind, LayerKind::OneQubit);
}

TEST(Stratify, OverlapForcesNewLayer)
{
    Circuit qc(2, 0);
    qc.x(0).x(0);
    const LayeredCircuit layered = stratify(qc);
    EXPECT_EQ(layered.layers().size(), 2u);
}

TEST(Stratify, BarrierForcesBoundary)
{
    Circuit qc(2, 0);
    qc.x(0).barrier().x(1);
    const LayeredCircuit layered = stratify(qc);
    EXPECT_EQ(layered.layers().size(), 2u);
}

TEST(Stratify, DynamicLayerClassification)
{
    Circuit qc(2, 1);
    qc.h(0).measure(0, 0);
    qc.x(1).conditionedOn(0, 1);
    const LayeredCircuit layered = stratify(qc);
    ASSERT_EQ(layered.layers().size(), 2u);
    EXPECT_EQ(layered.layers()[1].kind, LayerKind::Dynamic);
    EXPECT_EQ(layered.layers()[1].insts.size(), 2u);
}

TEST(Stratify, GateOnAndActsOn)
{
    Circuit qc(4, 0);
    qc.ecr(1, 2);
    const LayeredCircuit layered = stratify(qc);
    const Layer &layer = layered.layers()[0];
    EXPECT_TRUE(layer.actsOn(1));
    EXPECT_TRUE(layer.actsOn(2));
    EXPECT_FALSE(layer.actsOn(0));
    ASSERT_NE(layer.gateOn(2), nullptr);
    EXPECT_EQ(layer.gateOn(2)->op, Op::ECR);
    EXPECT_EQ(layer.gateOn(3), nullptr);
}

TEST(Stratify, FlattenRoundTripsUnitary)
{
    Circuit qc(3, 0);
    qc.h(0).h(2).ecr(0, 1).x(2).cx(1, 2).rz(0, 0.4);
    const LayeredCircuit layered = stratify(qc);
    const Circuit flat = layered.flatten();
    EXPECT_TRUE(circuitUnitary(flat).equalUpToGlobalPhase(
        circuitUnitary(qc), 1e-9));
    EXPECT_GT(flat.countOps(Op::Barrier), 0u);
}

TEST(Stratify, CountTwoQubitGates)
{
    Circuit qc(4, 0);
    qc.ecr(0, 1).ecr(2, 3).x(1).cx(0, 1);
    EXPECT_EQ(stratify(qc).countTwoQubitGates(), 3u);
}

TEST(StratifyDeath, AddLayerRejectsOverlap)
{
    LayeredCircuit circuit(2, 0);
    Layer layer{LayerKind::OneQubit, {}};
    layer.insts.emplace_back(Op::X, std::vector<std::uint32_t>{0});
    layer.insts.emplace_back(Op::Y, std::vector<std::uint32_t>{0});
    EXPECT_DEATH(circuit.addLayer(std::move(layer)), "overlap");
}

TEST(StratifyDeath, AddLayerRejectsAllQubitBarrier)
{
    // flatten() reserves all-qubit barriers as layer separators;
    // a partial barrier inside a layer is fine.
    LayeredCircuit circuit(3, 0);
    Layer partial{LayerKind::OneQubit, {}};
    partial.insts.emplace_back(Op::Barrier,
                               std::vector<std::uint32_t>{0, 1});
    circuit.addLayer(std::move(partial));
    EXPECT_EQ(circuit.layers().size(), 1u);

    Layer full{LayerKind::OneQubit, {}};
    full.insts.emplace_back(Op::Barrier,
                            std::vector<std::uint32_t>{0, 1, 2});
    EXPECT_DEATH(circuit.addLayer(std::move(full)),
                 "all-qubit barrier");
}

} // namespace
} // namespace casq
