/**
 * @file
 * CHP-style stabilizer tableau backend (Aaronson & Gottesman,
 * "Improved simulation of stabilizer circuits").
 *
 * The state is tracked as n stabilizer and n destabilizer rows over
 * packed X/Z bit vectors with a mod-4 phase column, so a Clifford
 * gate costs O(n^2 / 64) bit operations instead of the dense
 * backend's O(2^n) amplitude sweep -- the twirled, Pauli-noise
 * workloads of the paper (frame layers, DD sequences,
 * layer-fidelity/Ramsey circuits) are Clifford end-to-end and run at
 * 50-100+ qubits through this path.
 *
 * Row convention: a row with bits (x, z) and phase p represents the
 * operator i^p * prod_q X_q^{x_q} Z_q^{z_q} (literal product, qubit
 * factors commute across qubits).  Hermitian rows keep
 * p == |{q : x_q & z_q}| (mod 2) since Y = i X Z.
 *
 * Gates are applied by conjugating the generator images (U X U^dag,
 * U Z U^dag per acted qubit), derived numerically via
 * Conjugation1Q/Conjugation2Q -- no hand-written per-gate tables to
 * get wrong.  The engine resolves them once per compiled variant and
 * hands them in with each gate; a call with null images derives
 * them on the spot.  Non-Clifford input is a hard error: routing
 * Clifford-only variants here is the engine's eligibility analysis
 * (sim/engine.cc, docs/backends.md).
 */

#ifndef CASQ_SIM_STABILIZER_HH
#define CASQ_SIM_STABILIZER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "pauli/clifford.hh"
#include "sim/backend.hh"

namespace casq {

/** Pauli-tableau simulation of Clifford-only trajectories. */
class StabilizerBackend final : public StateBackend
{
  public:
    explicit StabilizerBackend(std::size_t num_qubits);

    SimBackendKind
    kind() const override
    {
        return SimBackendKind::Stabilizer;
    }

    std::size_t
    numQubits() const override
    {
        return _n;
    }

    void reset() override;
    void assign(const StateBackend &src) override;
    void applyGate1q(const CMat &u, std::uint32_t q,
                     const CliffordImages1Q *images) override;
    void applyGate2q(const CMat &u, std::uint32_t q0, std::uint32_t q1,
                     const CliffordImages2Q *images) override;
    void applyPhases(const std::vector<QubitAngle> &z_angles,
                     const std::vector<PairAngle> &zz_angles) override;
    void applyPauliOp(PauliOp op, std::uint32_t q) override;
    double probabilityOne(std::uint32_t q) const override;
    void collapse(std::uint32_t q, int outcome) override;
    void amplitudeDamp(std::uint32_t q, double tau, double t1,
                       Rng &rng) override;
    void expectations(std::span<const PauliString> observables,
                      std::span<double> out) const override;

    /** True when <Z_q> is +-1 (q is not in superposition). */
    bool isDeterministicZ(std::uint32_t q) const;

    /**
     * theta as a multiple of pi/2 in {0..3}, or nullopt when it is
     * not one (within 1e-9 of a quarter turn).  This is the shared
     * quantization rule: the engine's Clifford-eligibility analysis
     * accepts exactly the angles applyPhases accepts.
     */
    static std::optional<int> quarterTurns(double theta);

  private:
    /** One tableau row: packed bit vectors + i^phase, phase 0..3. */
    struct Row
    {
        std::vector<std::uint64_t> x;
        std::vector<std::uint64_t> z;
        std::uint8_t phase = 0;
    };

    std::size_t _n;
    std::size_t _words;

    /** Rows 0..n-1 are destabilizers, n..2n-1 stabilizers. */
    std::vector<Row> _rows;
    mutable Row _scratch;

    bool bit(const std::vector<std::uint64_t> &w,
             std::uint32_t q) const
    {
        return (w[q >> 6] >> (q & 63)) & 1;
    }
    static void setBit(std::vector<std::uint64_t> &w, std::uint32_t q,
                       bool v);

    void clearRow(Row &row) const;

    /** dst := dst * src (operator product, phases mod 4). */
    void rowMultiply(Row &dst, const Row &src) const;

    /** Parity of the symplectic product (anticommutation test). */
    bool anticommutes(const Row &a, const Row &b) const;

    void apply1q(const CliffordImages1Q &images, std::uint32_t q);
    void apply2q(const CliffordImages2Q &images, std::uint32_t q0,
                 std::uint32_t q1);
    void applyQuarterZ(std::uint32_t q, int k);
    void applyQuarterZz(std::uint32_t q0, std::uint32_t q1, int k);

    /**
     * For a deterministic Z_q, write the +-Z_q stabilizer-group
     * element into _scratch and return its phase (0 or 2).
     */
    std::uint8_t deterministicZPhase(std::uint32_t q) const;

    /** <P> of one string: 0 or +-1. */
    double expectationOf(const PauliString &p) const;
};

} // namespace casq

#endif // CASQ_SIM_STABILIZER_HH
