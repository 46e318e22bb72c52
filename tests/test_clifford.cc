#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/unitary.hh"
#include "common/logging.hh"
#include "pauli/clifford.hh"

namespace casq {
namespace {

TEST(Clifford, CxIsClifford)
{
    const Conjugation2Q table(gateUnitary(Op::CX));
    EXPECT_TRUE(table.isClifford());
    EXPECT_EQ(table.twirlSet().size(), 16u);
}

TEST(Clifford, EcrIsClifford)
{
    const Conjugation2Q table(gateUnitary(Op::ECR));
    EXPECT_TRUE(table.isClifford());
}

TEST(Clifford, CzAndSwapAreClifford)
{
    EXPECT_TRUE(Conjugation2Q(gateUnitary(Op::CZ)).isClifford());
    EXPECT_TRUE(Conjugation2Q(gateUnitary(Op::Swap)).isClifford());
}

TEST(Clifford, CxConjugationRules)
{
    // CX with control = qubit 0: Z_c -> Z_c, X_c -> X_c X_t,
    // X_t -> X_t, Z_t -> Z_c Z_t.
    const Conjugation2Q table(gateUnitary(Op::CX));

    auto conj = [&](PauliOp op0, PauliOp op1) {
        const auto image = table.conjugate(Pauli2{op0, op1});
        EXPECT_TRUE(image.has_value());
        return *image;
    };

    // Z on control stays put.
    SignedPauli2 r = conj(PauliOp::Z, PauliOp::I);
    EXPECT_EQ(r.pauli, (Pauli2{PauliOp::Z, PauliOp::I}));
    EXPECT_EQ(r.sign, 1);

    // X on control spreads to the target.
    r = conj(PauliOp::X, PauliOp::I);
    EXPECT_EQ(r.pauli, (Pauli2{PauliOp::X, PauliOp::X}));

    // Z on target spreads to the control.
    r = conj(PauliOp::I, PauliOp::Z);
    EXPECT_EQ(r.pauli, (Pauli2{PauliOp::Z, PauliOp::Z}));

    // ZZ collapses to Z on the target.
    r = conj(PauliOp::Z, PauliOp::Z);
    EXPECT_EQ(r.pauli, (Pauli2{PauliOp::I, PauliOp::Z}));
}

TEST(Clifford, ConjugationMatchesMatrices)
{
    for (Op op : {Op::CX, Op::ECR, Op::CZ}) {
        const CMat u = gateUnitary(op);
        const Conjugation2Q table(u);
        for (const Pauli2 &p : allPauli2()) {
            const auto image = table.conjugate(p);
            ASSERT_TRUE(image.has_value());
            const CMat lhs = u * pauli2Matrix(p) * u.dagger();
            const CMat rhs = pauli2Matrix(image->pauli) *
                             Complex(double(image->sign), 0.0);
            EXPECT_TRUE(lhs.approxEqual(rhs, 1e-9))
                << opName(op) << " on " << int(p.op0) << ","
                << int(p.op1);
        }
    }
}

TEST(Clifford, NonCliffordCanHasRestrictedTwirlSet)
{
    // A generic Heisenberg canonical block is not Clifford; its
    // twirl set is the commutant {II, XX, YY, ZZ}.
    const Conjugation2Q table(
        gateUnitary(Op::Can, {0.3, 0.25, 0.2}));
    EXPECT_FALSE(table.isClifford());
    const auto &set = table.twirlSet();
    EXPECT_EQ(set.size(), 4u);
    for (const auto &p : set)
        EXPECT_EQ(p.op0, p.op1);
}

TEST(Clifford, RzzTwirlSetContainsZTypePaulis)
{
    const Conjugation2Q table(gateUnitary(Op::RZZ, {0.37}));
    // rzz commutes with II, ZI, IZ, ZZ and anticommutes-compatibly
    // with XX, YY, XY, YX: the twirl set has at least 8 entries.
    EXPECT_GE(table.twirlSet().size(), 8u);
    const auto image =
        table.conjugate(Pauli2{PauliOp::Z, PauliOp::I});
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->pauli, (Pauli2{PauliOp::Z, PauliOp::I}));
}

TEST(Clifford, IdentityAlwaysInTwirlSet)
{
    const Conjugation2Q table(
        gateUnitary(Op::Can, {0.1, 0.9, 0.4}));
    const auto image =
        table.conjugate(Pauli2{PauliOp::I, PauliOp::I});
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->sign, 1);
    EXPECT_EQ(image->pauli, (Pauli2{PauliOp::I, PauliOp::I}));
}

// ------------------------------------------------ ConjugationTable

constexpr double kPi = 3.14159265358979323846;

TEST(ConjugationTable, ConcurrentLookupsShareOneEntry)
{
    // All threads start together and race for the same two misses;
    // the first inserter wins, so every thread sees one address.
    ConjugationTable tables;
    const CMat ecr = gateUnitary(Op::ECR);
    const CMat h = gateUnitary(Op::H);
    constexpr int kThreads = 8;
    std::vector<const Conjugation2Q *> seen2(kThreads);
    std::vector<const Conjugation1Q *> seen1(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            seen2[t] = &tables.of2q(ecr);
            seen1[t] = &tables.of1q(h);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(seen2[t], seen2[0]) << "thread " << t;
        EXPECT_EQ(seen1[t], seen1[0]) << "thread " << t;
    }
    EXPECT_EQ(&tables.of2q(ecr), seen2[0]);
    EXPECT_EQ(&tables.of1q(h), seen1[0]);
}

TEST(ConjugationTable, OneUlpApartGetSeparateEntries)
{
    // Keys are the bit-exact matrix bytes: no rounding merges two
    // unitaries, however close.
    ConjugationTable tables;
    const CMat h = gateUnitary(Op::H);
    CMat h_ulp = h;
    h_ulp(0, 0) = Complex(std::nextafter(h(0, 0).real(), 1.0),
                          h(0, 0).imag());
    ASSERT_NE(h_ulp(0, 0), h(0, 0));
    const Conjugation1Q &a = tables.of1q(h);
    const Conjugation1Q &b = tables.of1q(h_ulp);
    EXPECT_NE(&a, &b);
    EXPECT_EQ(&tables.of1q(h), &a);
    EXPECT_EQ(&tables.of1q(h_ulp), &b);

    const CMat ecr = gateUnitary(Op::ECR);
    CMat ecr_ulp = ecr;
    ecr_ulp(0, 1) = Complex(std::nextafter(ecr(0, 1).real(), 0.0),
                            ecr(0, 1).imag());
    ASSERT_NE(ecr_ulp(0, 1), ecr(0, 1));
    EXPECT_NE(&tables.of2q(ecr), &tables.of2q(ecr_ulp));
}

void
expectSame(const std::optional<SignedPauli1> &a,
           const std::optional<SignedPauli1> &b, const std::string &what)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (a) {
        EXPECT_EQ(a->op, b->op) << what;
        EXPECT_EQ(a->sign, b->sign) << what;
    }
}

void
expectSame(const std::optional<SignedPauli2> &a,
           const std::optional<SignedPauli2> &b, const std::string &what)
{
    ASSERT_EQ(a.has_value(), b.has_value()) << what;
    if (a) {
        EXPECT_EQ(a->pauli, b->pauli) << what;
        EXPECT_EQ(a->sign, b->sign) << what;
    }
}

TEST(ConjugationTable, MatchesDirectlyBuiltTables)
{
    // Every op gateUnitary accepts, with a quarter-turn (Clifford)
    // and a generic parameter set where the op takes parameters.
    ConjugationTable tables;
    int checked = 0;
    for (int k = 0; k <= int(Op::Reset); ++k) {
        const Op op = Op(k);
        if (!opIsUnitary(op))
            continue;
        for (double angle : {kPi / 2, 0.37}) {
            if (opNumParams(op) == 0 && angle != kPi / 2)
                continue;
            const std::vector<double> params(opNumParams(op), angle);
            const CMat u = gateUnitary(op, params);
            const std::string what = detail::format(
                opName(op), " angle ", angle);
            ++checked;
            if (opNumQubits(op) == 1) {
                const Conjugation1Q direct(u);
                const Conjugation1Q &memo = tables.of1q(u);
                EXPECT_EQ(memo.isClifford(), direct.isClifford())
                    << what;
                for (int p = 0; p < 4; ++p)
                    expectSame(memo.conjugate(PauliOp(p)),
                               direct.conjugate(PauliOp(p)), what);
                if (direct.isClifford()) {
                    const CliffordImages1Q img = memo.images();
                    expectSame(img.x, direct.conjugate(PauliOp::X),
                               what);
                    expectSame(img.z, direct.conjugate(PauliOp::Z),
                               what);
                }
                continue;
            }
            const Conjugation2Q direct(u);
            const Conjugation2Q &memo = tables.of2q(u);
            EXPECT_EQ(memo.isClifford(), direct.isClifford()) << what;
            EXPECT_EQ(memo.twirlSet(), direct.twirlSet()) << what;
            for (const Pauli2 &p : allPauli2())
                expectSame(memo.conjugate(p), direct.conjugate(p),
                           what);
            if (direct.isClifford()) {
                const CliffordImages2Q img = memo.images();
                expectSame(img.x0,
                           direct.conjugate({PauliOp::X, PauliOp::I}),
                           what);
                expectSame(img.z0,
                           direct.conjugate({PauliOp::Z, PauliOp::I}),
                           what);
                expectSame(img.x1,
                           direct.conjugate({PauliOp::I, PauliOp::X}),
                           what);
                expectSame(img.z1,
                           direct.conjugate({PauliOp::I, PauliOp::Z}),
                           what);
            }
        }
    }
    // 15 one-qubit and 6 two-qubit ops, six of them parameterized.
    EXPECT_EQ(checked, 21 + 6);
}

} // namespace
} // namespace casq
