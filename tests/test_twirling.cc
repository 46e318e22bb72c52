#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "passes/twirling.hh"

namespace casq {
namespace {

LayeredCircuit
sampleLayered()
{
    Circuit qc(4, 0);
    qc.h(0).h(2).barrier();
    qc.ecr(0, 1).ecr(2, 3).barrier();
    qc.x(1).sx(3).barrier();
    qc.cx(1, 2);
    return stratify(qc);
}

/** One late-twirled instance of the layered circuit's flat stream. */
Circuit
twirl(const LayeredCircuit &base, Rng &rng)
{
    ConjugationTable tables;
    return insertTwirlFrames(base.flatten(), makeTwirlPlan(base), rng,
                             tables);
}

TEST(Twirling, PreservesLogicalUnitary)
{
    const LayeredCircuit base = sampleLayered();
    const CMat expect = circuitUnitary(base.flatten());
    Rng rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        const CMat got = circuitUnitary(twirl(base, rng));
        EXPECT_TRUE(got.equalUpToGlobalPhase(expect, 1e-8))
            << "trial " << trial;
    }
}

TEST(Twirling, InsertsTaggedPauliLayers)
{
    const LayeredCircuit base = sampleLayered();
    Rng rng(7);
    bool found_twirl_gate = false;
    for (int trial = 0; trial < 20 && !found_twirl_gate; ++trial) {
        const Circuit twirled = twirl(base, rng);
        EXPECT_GE(barrierSegments(twirled).size(),
                  base.layers().size());
        for (const auto &inst : twirled.instructions())
            if (inst.tag == InstTag::Twirl) {
                found_twirl_gate = true;
                EXPECT_TRUE(opIsPauli(inst.op));
            }
    }
    EXPECT_TRUE(found_twirl_gate);
}

TEST(Twirling, TwoQubitGateCountUnchanged)
{
    const LayeredCircuit base = sampleLayered();
    Rng rng(99);
    EXPECT_EQ(stratify(twirl(base, rng)).countTwoQubitGates(),
              base.countTwoQubitGates());
}

TEST(Twirling, HeisenbergBlockUsesCommutantTwirls)
{
    // Non-Clifford can gates may only be twirled by {II, XX, YY,
    // ZZ}: both inserted Paulis must match on the two qubits.
    Circuit qc(2, 0);
    qc.can(0, 1, 0.3, 0.25, 0.2);
    const LayeredCircuit base = stratify(qc);
    const CMat expect = circuitUnitary(base.flatten());
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const Circuit twirled = twirl(base, rng);
        for (const auto &segment : barrierSegments(twirled)) {
            if (segment.size() == 1 && segment[0].op == Op::Can)
                continue;
            // A frame layer holds two gates of identical Pauli
            // type (identity frames insert no layer at all).
            ASSERT_EQ(segment.size(), 2u);
            EXPECT_EQ(segment[0].op, segment[1].op);
        }
        EXPECT_TRUE(circuitUnitary(twirled).equalUpToGlobalPhase(
            expect, 1e-8));
    }
}

TEST(Twirling, DifferentSeedsGiveDifferentTwirls)
{
    const LayeredCircuit base = sampleLayered();
    Rng rng1(1), rng2(2);
    EXPECT_NE(twirl(base, rng1).toString(),
              twirl(base, rng2).toString());
}

TEST(Twirling, CacheReusesTables)
{
    ConjugationTable tables;
    const Instruction ecr(Op::ECR, {0, 1});
    const Conjugation2Q &a = tables.of2q(instructionUnitary(ecr));
    const Conjugation2Q &b = tables.of2q(instructionUnitary(ecr));
    EXPECT_EQ(&a, &b);
}

TEST(Twirling, NonGateLayersUntouched)
{
    Circuit qc(2, 1);
    qc.h(0).measure(0, 0);
    const LayeredCircuit base = stratify(qc);
    Rng rng(3);
    EXPECT_EQ(twirl(base, rng).toString(),
              base.flatten().toString());
}

} // namespace
} // namespace casq
