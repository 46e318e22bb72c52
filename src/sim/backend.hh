/**
 * @file
 * The pluggable simulation-backend seam: every trajectory of the
 * SimulationEngine drives its quantum state through the abstract
 * StateBackend kernel surface (generic 1q/2q gates, the fused
 * diagonal-phase kernel, Pauli injection, measurement, amplitude
 * damping, Pauli expectation values).  DenseBackend wraps the exact
 * Statevector behind a lazy Pauli + diagonal frame;
 * StabilizerBackend (sim/stabilizer.hh) is the CHP-style tableau
 * fast path for Clifford-only trajectories.
 *
 * The engine resolves SimBackendKind::Auto per compiled variant: a
 * variant whose every instruction, noise phase and sampled error is
 * Clifford routes to the tableau, everything else falls back to the
 * dense path bit-identically.  docs/backends.md documents the
 * contract, the eligibility rules and the determinism statement.
 */

#ifndef CASQ_SIM_BACKEND_HH
#define CASQ_SIM_BACKEND_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.hh"
#include "common/rng.hh"
#include "pauli/clifford.hh"
#include "pauli/pauli.hh"
#include "sim/statevector.hh"

namespace casq {

/** Which simulation substrate executes a trajectory. */
enum class SimBackendKind : std::uint8_t
{
    Auto = 0,       //!< per-variant: tableau when Clifford, else dense
    Dense = 1,      //!< exact statevector (O(2^n) per trajectory)
    Stabilizer = 2, //!< CHP Pauli tableau (O(n^2) per Clifford gate)
};

/** Lower-case name of a backend kind ("auto", "dense", ...). */
const char *simBackendKindName(SimBackendKind kind);

/** Parse a backend-kind name; nullopt when unrecognized. */
std::optional<SimBackendKind>
simBackendKindFromName(const std::string &name);

/**
 * Abstract per-trajectory quantum state.
 *
 * The interface is exactly the kernel surface TrajectoryRunner
 * (sim/engine.cc) needs; angles handed to applyPhases follow the
 * Statevector convention Rz(theta) = exp(-i theta Z / 2).  An
 * implementation that cannot represent an operation (e.g. a
 * non-Clifford gate on the tableau) must fail loudly rather than
 * approximate -- routing is the engine's job, not the backend's.
 *
 * measure() is deliberately non-virtual: every backend consumes the
 * trajectory RNG stream through the identical
 * probabilityOne -> uniform -> collapse sequence, which is what
 * keeps dense and stabilizer trajectories of the same seed on the
 * same random branch (see docs/backends.md, "Determinism").
 * expectation() is the one-string wrapper of the batched read
 * expectations().
 */
class StateBackend
{
  public:
    virtual ~StateBackend() = default;

    virtual SimBackendKind kind() const = 0;
    virtual std::size_t numQubits() const = 0;

    /** Reset to |0...0>. */
    virtual void reset() = 0;

    /**
     * Copy the quantum state of `src`, which must be the same kind
     * and width (no reallocation on the dense path).  This is the
     * trajectory fork primitive behind the prefix-state checkpoint
     * (docs/simulator.md, "Trajectory prefix checkpoint").
     */
    virtual void assign(const StateBackend &src) = 0;

    /**
     * Apply a 2x2 unitary to qubit q.  `images`, when given, are
     * u's Clifford generator images (the engine resolves them once
     * per compiled variant): the tableau applies them as they are,
     * or derives them from u when they are null; the dense state
     * ignores them.
     */
    virtual void applyGate1q(const CMat &u, std::uint32_t q,
                             const CliffordImages1Q *images) = 0;

    /** Apply a 4x4 unitary to (q0 = less significant, q1). */
    virtual void applyGate2q(const CMat &u, std::uint32_t q0,
                             std::uint32_t q1,
                             const CliffordImages2Q *images) = 0;

    /**
     * Fused diagonal kernel: all Rz and Rzz angles of one segment,
     * or the single Rz of a virtual gate.
     */
    virtual void
    applyPhases(const std::vector<QubitAngle> &z_angles,
                const std::vector<PairAngle> &zz_angles) = 0;

    /** Apply a single-qubit Pauli by enum. */
    virtual void applyPauliOp(PauliOp op, std::uint32_t q) = 0;

    /** Probability that qubit q reads 1. */
    virtual double probabilityOne(std::uint32_t q) const = 0;

    /** Project qubit q onto `outcome` and renormalize. */
    virtual void collapse(std::uint32_t q, int outcome) = 0;

    /** Amplitude-damping jump channel (tau idling, T1 relaxation). */
    virtual void amplitudeDamp(std::uint32_t q, double tau,
                               double t1, Rng &rng) = 0;

    /**
     * Expectations <psi| P |psi> (real parts) of every string of
     * `observables`, into out (one slot each): the read at the end of
     * every trajectory, batched so a backend can answer the strings
     * together.
     */
    virtual void expectations(std::span<const PauliString> observables,
                              std::span<double> out) const = 0;

    /** One observable's expectation: a batch of one. */
    double expectation(const PauliString &p) const;

    /**
     * Projective measurement with collapse; returns the outcome.
     * Shared across backends so all of them draw the RNG stream
     * identically (one uniform per measurement).
     */
    int measure(std::uint32_t q, Rng &rng);
};

/**
 * The exact dense statevector behind the StateBackend interface,
 * with a lazy operator frame (docs/simulator.md, "Lazy frame").
 *
 * The true state is D P W |phi> / |W phi|: |phi> is the stored
 * statevector, W a real diagonal of pending no-jump weights (one
 * pair per qubit, on the stored levels), P a Pauli frame (an X and
 * a Z bit per qubit) and D a diagonal frame of pending Rz angles per
 * qubit and Rzz angles per pair, all up to a global phase.
 * Diagonal operators (applyPhases and diagonal gates) only add
 * angles to D; Pauli operators (applyPauliOp and Pauli gates) only
 * flip frame bits and the signs of the pending terms they
 * anticommute with; a damping draw that cannot jump only scales a
 * weight.  Any other gate folds the frame's part on its own qubits
 * into its matrix and multiplies the pending Rzz terms that couple
 * its qubits to the rest in within the same pass.  Reads see
 * through the frame: the first read after a weight changed applies
 * W in one pass that also yields the norm, the X bit swaps which
 * stored half a qubit's |1> is in, and a batch of Z-type
 * expectations is one pass that only picks up the frame's signs.
 * Gates are classified by exact matrix pattern, so a
 * gate that is not recognised takes the folding path, which is
 * always exact.
 */
class DenseBackend final : public StateBackend
{
  public:
    explicit DenseBackend(std::size_t num_qubits);

    SimBackendKind
    kind() const override
    {
        return SimBackendKind::Dense;
    }

    std::size_t
    numQubits() const override
    {
        return _state.numQubits();
    }

    void reset() override;

    /** Copies the stored state and the frame. */
    void assign(const StateBackend &src) override;

    void applyGate1q(const CMat &u, std::uint32_t q,
                     const CliffordImages1Q *) override;
    void applyGate2q(const CMat &u, std::uint32_t q0, std::uint32_t q1,
                     const CliffordImages2Q *) override;
    void applyPhases(const std::vector<QubitAngle> &z_angles,
                     const std::vector<PairAngle> &zz_angles) override;
    void applyPauliOp(PauliOp op, std::uint32_t q) override;
    double probabilityOne(std::uint32_t q) const override;
    void collapse(std::uint32_t q, int outcome) override;
    void amplitudeDamp(std::uint32_t q, double tau, double t1,
                       Rng &rng) override;

    /**
     * Each run of consecutive Z-type strings is read through the
     * frame in one pass; an X/Y string flushes, then reads alone.
     */
    void expectations(std::span<const PauliString> observables,
                      std::span<double> out) const override;

    /** Full passes over the amplitude array (Statevector::sweeps). */
    std::uint64_t sweeps() const { return _state.sweeps(); }

    /**
     * The true state (tests and benches peek at it): the frame is
     * flushed into the stored statevector first.
     */
    Statevector &state();
    const Statevector &state() const;

  private:
    /** D, P and W of the class comment, and the norm of W |phi>. */
    struct Frame
    {
        std::vector<double> z;  //!< pending Rz angle per qubit
        std::vector<double> zz; //!< pending Rzz angle, n x n, q0 < q1
        std::uint64_t x = 0;    //!< Pauli frame X bits
        std::uint64_t zBits = 0; //!< Pauli frame Z bits
        std::vector<double> w;  //!< weight of stored level s of q at 2q+s
        bool weighted = false;  //!< a weight moved since W was applied
        double norm2 = 1.0;     //!< |phi|^2, valid when !weighted
        double floor2 = 1.0;    //!< lower bound on |W phi|^2

        /** Clear D and P. */
        void clearOperators();
    };

    // Flushing is logically const: the true state does not change.
    mutable Statevector _state;
    mutable Frame _frame;
    std::vector<PairAngle> _coupling; //!< takeCoupling's terms
    mutable std::vector<std::uint64_t> _zMasks; //!< a Z read batch

    /** The pending Rzz angle of the pair (a, b), either order. */
    double &pair(std::uint32_t a, std::uint32_t b) const;
    bool xBit(std::uint32_t q) const { return (_frame.x >> q) & 1; }

    /** Conjugate D by X_q: negate every pending term on q. */
    void flipSigns(std::uint32_t q);

    /**
     * Take the pending Rzz terms between qubits in `mask` and qubits
     * outside it out of D, pulled through P: the terms a fold on
     * `mask` multiplies in within its own pass.
     */
    const std::vector<PairAngle> &takeCoupling(std::uint64_t mask);

    /** Drop the frame's part (D, P and W) on the qubits in `mask`. */
    void clearQubits(std::uint64_t mask);

    /**
     * Qubit q of the true state is in computational state `value`:
     * its Rz term becomes a global phase and each Rzz term on it a
     * signed Rz on the partner.
     */
    void settle(std::uint32_t q, int value);

    /**
     * Apply W to the stored state in one pass and return the squared
     * norms of qubit q's stored halves; Frame::norm2 is their sum.
     */
    std::array<double, 2> flushWeights(std::uint32_t q) const;

    /** Scale the stored state to unit norm (one pass). */
    void normalize() const;

    /**
     * Probability that qubit q's stored level is `s`: applies W first
     * when a weight moved since it was last applied.
     */
    double storedProbability(std::uint32_t q, int s) const;

    /** The no-jump branch of a damping draw: scale q's weight. */
    void noJump(std::uint32_t q, double decay);

    /** Apply W, P and D to the stored state and clear the frame. */
    void flush() const;
};

/**
 * Construct a concrete backend (kind must be Dense or Stabilizer --
 * Auto is a routing policy, not a substrate).
 */
std::unique_ptr<StateBackend>
makeStateBackend(SimBackendKind kind, std::size_t num_qubits);

} // namespace casq

#endif // CASQ_SIM_BACKEND_HH
