#include <gtest/gtest.h>

#include "common/logging.hh"
#include "pauli/pauli.hh"

namespace casq {
namespace {

TEST(Pauli, SingleQubitProducts)
{
    // X * Y = i Z and Y * X = -i Z.
    const PauliProduct xy = multiply(PauliOp::X, PauliOp::Y);
    EXPECT_EQ(xy.op, PauliOp::Z);
    EXPECT_EQ(xy.phasePower, 1);
    const PauliProduct yx = multiply(PauliOp::Y, PauliOp::X);
    EXPECT_EQ(yx.op, PauliOp::Z);
    EXPECT_EQ(yx.phasePower, 3);
}

TEST(Pauli, ProductsMatchMatrices)
{
    const PauliOp all[] = {PauliOp::I, PauliOp::X, PauliOp::Y,
                           PauliOp::Z};
    const Complex phases[] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    for (auto a : all) {
        for (auto b : all) {
            const PauliProduct p = multiply(a, b);
            const CMat expect =
                pauliMatrix(p.op) * phases[p.phasePower];
            const CMat direct = pauliMatrix(a) * pauliMatrix(b);
            EXPECT_TRUE(direct.approxEqual(expect))
                << pauliChar(a) << " * " << pauliChar(b);
        }
    }
}

TEST(Pauli, CommutationTable)
{
    EXPECT_TRUE(commutes(PauliOp::I, PauliOp::X));
    EXPECT_TRUE(commutes(PauliOp::Z, PauliOp::Z));
    EXPECT_FALSE(commutes(PauliOp::X, PauliOp::Z));
    EXPECT_FALSE(commutes(PauliOp::Y, PauliOp::Z));
}

TEST(PauliString, LabelRoundTrip)
{
    const PauliString p = PauliString::fromLabel("-XZI");
    EXPECT_EQ(p.numQubits(), 3u);
    EXPECT_EQ(p.op(0), PauliOp::I);
    EXPECT_EQ(p.op(1), PauliOp::Z);
    EXPECT_EQ(p.op(2), PauliOp::X);
    EXPECT_EQ(p.toString(), "-XZI");
}

TEST(PauliString, PhaseParsing)
{
    EXPECT_EQ(PauliString::fromLabel("iXY").phasePower(), 1);
    EXPECT_EQ(PauliString::fromLabel("-iZ").phasePower(), 3);
    EXPECT_EQ(PauliString::fromLabel("+XX").phasePower(), 0);
}

TEST(PauliString, InvalidLetterThrowsUserError)
{
    EXPECT_THROW(PauliString::fromLabel("XQZ"), UserError);
    EXPECT_THROW(pauliFromChar('w'), UserError);
}

TEST(PauliString, WeightAndIdentity)
{
    EXPECT_EQ(PauliString::fromLabel("IXIZ").weight(), 2u);
    EXPECT_TRUE(PauliString(4).isIdentity());
    EXPECT_FALSE(PauliString::fromLabel("IZ").isIdentity());
}

TEST(PauliString, ProductMatchesMatrices)
{
    const PauliString a = PauliString::fromLabel("XY");
    const PauliString b = PauliString::fromLabel("ZZ");
    const PauliString c = a * b;
    EXPECT_TRUE(
        (a.matrix() * b.matrix()).approxEqual(c.matrix(), 1e-12));
}

TEST(PauliString, CommutesWithMatchesMatrices)
{
    const char *labels[] = {"XX", "YZ", "IZ", "ZY", "XI"};
    for (const char *la : labels) {
        for (const char *lb : labels) {
            const PauliString a = PauliString::fromLabel(la);
            const PauliString b = PauliString::fromLabel(lb);
            const CMat ab = a.matrix() * b.matrix();
            const CMat ba = b.matrix() * a.matrix();
            EXPECT_EQ(a.commutesWith(b), ab.approxEqual(ba, 1e-12))
                << la << " vs " << lb;
        }
    }
}

TEST(PauliString, MatrixOrderingConvention)
{
    // Label "XZ": X on qubit 1, Z on qubit 0; the matrix should be
    // X (x) Z with qubit 0 least significant.
    const PauliString p = PauliString::fromLabel("XZ");
    const CMat expect =
        kron(pauliMatrix(PauliOp::X), pauliMatrix(PauliOp::Z));
    EXPECT_TRUE(p.matrix().approxEqual(expect, 1e-12));
}

TEST(PauliString, SingleAndTwoFactories)
{
    const PauliString s = PauliString::single(4, 2, PauliOp::Y);
    EXPECT_EQ(s.op(2), PauliOp::Y);
    EXPECT_EQ(s.weight(), 1u);
    const PauliString t =
        PauliString::two(4, 0, PauliOp::X, 3, PauliOp::Z);
    EXPECT_EQ(t.op(0), PauliOp::X);
    EXPECT_EQ(t.op(3), PauliOp::Z);
}

TEST(PauliString, AllStringsEnumeration)
{
    const auto all = allPauliStrings(2);
    EXPECT_EQ(all.size(), 16u);
    // All distinct.
    for (std::size_t i = 0; i < all.size(); ++i)
        for (std::size_t j = i + 1; j < all.size(); ++j)
            EXPECT_FALSE(all[i] == all[j]);
}

TEST(PauliString, PhaseMultiplication)
{
    PauliString p(1);
    p.mulPhase(3);
    p.mulPhase(2);
    EXPECT_EQ(p.phasePower(), 1);
    EXPECT_EQ(p.phase(), Complex(0, 1));
}

} // namespace
} // namespace casq
