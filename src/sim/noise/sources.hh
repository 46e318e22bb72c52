/**
 * @file
 * The concrete NoiseSource implementations.
 *
 * The first nine port the historical hardwired mechanisms of the
 * trajectory engine one-for-one (same physics, same RNG draw order,
 * bit-identical standard-model output -- the porting rules live in
 * docs/noise.md).  CorrelatedDephasingSource and PhaseDriftSource
 * are new mechanisms the monolithic model could not express:
 * spatially correlated quasi-static dephasing over the coupling map
 * (Premakumar & Joynt-style shared fluctuators) and slow
 * intra-circuit random-walk detuning that echo sequences only
 * partially refocus.
 *
 * NoiseModel::buildSources() (sim/noise_model.hh) is the factory
 * that composes these in the canonical order; tests instantiate
 * them directly for per-source physics checks.
 */

#ifndef CASQ_SIM_NOISE_SOURCES_HH
#define CASQ_SIM_NOISE_SOURCES_HH

#include <vector>

#include "sim/noise/source.hh"

namespace casq {

class Backend;

/** Always-on ZZ crosstalk in the toggling frame (paper Eq. 1/2). */
class CoherentZzSource final : public NoiseSource
{
  public:
    CoherentZzSource(const Backend &backend, double scale)
        : _backend(backend), _scale(scale)
    {
    }

    const char *name() const override { return "coherent-zz"; }
    void planSegment(const Segment &seg,
                     std::vector<QubitAngle> &det_z,
                     std::vector<PairAngle> &det_zz) const override;

  private:
    const Backend &_backend;
    double _scale;
};

/** AC Stark shift on spectators of driven qubits (paper Fig. 4a). */
class StarkShiftSource final : public NoiseSource
{
  public:
    StarkShiftSource(const Backend &backend, double scale)
        : _backend(backend), _scale(scale)
    {
    }

    const char *name() const override { return "stark-shift"; }
    void planSegment(const Segment &seg,
                     std::vector<QubitAngle> &det_z,
                     std::vector<PairAngle> &det_zz) const override;

  private:
    const Backend &_backend;
    double _scale;
};

/** Readout-induced Stark shift on measurement spectators. */
class MeasurementStarkSource final : public NoiseSource
{
  public:
    MeasurementStarkSource(const Backend &backend, double scale)
        : _backend(backend), _scale(scale)
    {
    }

    const char *name() const override { return "measurement-stark"; }
    void planSegment(const Segment &seg,
                     std::vector<QubitAngle> &det_z,
                     std::vector<PairAngle> &det_zz) const override;

  private:
    const Backend &_backend;
    double _scale;
};

/** Charge-parity +-delta Z with a per-shot sign (paper Fig. 4b). */
class ChargeParitySource final : public NoiseSource
{
  public:
    explicit ChargeParitySource(const Backend &backend)
        : _backend(backend)
    {
    }

    const char *name() const override { return "charge-parity"; }
    std::unique_ptr<Shot> makeShot() const override;
    bool wantsShotQubitSampling() const override { return true; }
    void sampleShotQubit(Shot *shot, std::uint32_t q,
                         Rng &rng) const override;
    bool wantsSegmentHook() const override { return true; }
    /** Plans the qubit's charge-parity splitting in MHz. */
    double planSegmentQubit(std::uint32_t q,
                            double tau) const override;
    double segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                        double tau, double planned,
                        Rng &rng) const override;
    std::string cliffordBlocker() const override;

  private:
    const Backend &_backend;
};

/** Quasi-static per-shot Gaussian detuning (slow 1/f component). */
class QuasiStaticSource final : public NoiseSource
{
  public:
    explicit QuasiStaticSource(const Backend &backend)
        : _backend(backend)
    {
    }

    const char *name() const override { return "quasi-static"; }
    std::unique_ptr<Shot> makeShot() const override;
    bool wantsShotQubitSampling() const override { return true; }
    void sampleShotQubit(Shot *shot, std::uint32_t q,
                         Rng &rng) const override;
    bool wantsSegmentHook() const override { return true; }
    double segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                        double tau, double planned,
                        Rng &rng) const override;
    std::string cliffordBlocker() const override;

  private:
    const Backend &_backend;
};

/** Markovian T2 dephasing as sampled Rz(pi) = Z jumps. */
class WhiteDephasingSource final : public NoiseSource
{
  public:
    /**
     * `subtract_t1` mirrors the composition rule of the monolithic
     * model: when amplitude damping is also active, the jump rate is
     * the pure-dephasing remainder 1/Tphi = 1/T2 - 1/(2 T1).
     */
    WhiteDephasingSource(const Backend &backend, bool subtract_t1)
        : _backend(backend), _subtractT1(subtract_t1)
    {
    }

    const char *name() const override { return "white-dephasing"; }
    bool wantsSegmentHook() const override { return true; }
    /** Plans jumpProbability(q, tau). */
    double
    planSegmentQubit(std::uint32_t q, double tau) const override
    {
        return jumpProbability(q, tau);
    }
    double segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                        double tau, double planned,
                        Rng &rng) const override;

    /** Z-jump probability over `tau` idle nanoseconds. */
    double jumpProbability(std::uint32_t q, double tau) const;

  private:
    const Backend &_backend;
    bool _subtractT1;
};

/** T1 relaxation, batched per qubit and flushed at gate boundaries. */
class AmplitudeDampingSource final : public NoiseSource
{
  public:
    explicit AmplitudeDampingSource(const Backend &backend)
        : _backend(backend)
    {
    }

    const char *name() const override { return "amplitude-damping"; }
    bool wantsIdleFlush() const override { return true; }
    void flushIdle(StateBackend &state, std::uint32_t q, double tau,
                   Rng &rng) const override;
    std::string cliffordBlocker() const override;
    std::string prefixBlocker() const override;

  private:
    const Backend &_backend;
};

/** Depolarizing error after every physical gate. */
class GateDepolarizingSource final : public NoiseSource
{
  public:
    explicit GateDepolarizingSource(const Backend &backend)
        : _backend(backend)
    {
    }

    const char *name() const override { return "gate-depolarizing"; }
    bool wantsGateHook() const override { return true; }
    void onGate(StateBackend &state, const Instruction &inst,
                double duration, Rng &rng) const override;
    std::string prefixBlocker() const override;

  private:
    const Backend &_backend;
};

/** Classical assignment errors on measurement records. */
class ReadoutErrorSource final : public NoiseSource
{
  public:
    explicit ReadoutErrorSource(const Backend &backend)
        : _backend(backend)
    {
    }

    const char *name() const override { return "readout-error"; }
    bool wantsMeasureHook() const override { return true; }
    int onMeasurement(std::uint32_t q, int outcome,
                      Rng &rng) const override;

  private:
    const Backend &_backend;
};

/**
 * Spatially correlated quasi-static dephasing: one Gaussian
 * fluctuator field per shot, smoothed over the coupling map with an
 * exponential kernel exp(-d/xi) in graph distance and row-normalized
 * so every qubit sees detuning ~ N(0, sigma^2) exactly.  xi -> 0
 * recovers independent quasi-static noise; large xi approaches one
 * global fluctuator, the regime where context-aware compiling gains
 * the most from echo alignment.
 */
class CorrelatedDephasingSource final : public NoiseSource
{
  public:
    CorrelatedDephasingSource(const Backend &backend,
                              double sigma_mhz,
                              double correlation_length);

    const char *name() const override
    {
        return "correlated-dephasing";
    }

    std::unique_ptr<Shot> makeShot() const override;
    bool wantsShotSampling() const override { return true; }
    void sampleShot(Shot *shot, Rng &rng) const override;
    bool wantsSegmentHook() const override { return _sigma != 0.0; }
    double segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                        double tau, double planned,
                        Rng &rng) const override;
    std::string cliffordBlocker() const override;

    /** Normalized kernel weight of fluctuator p on qubit q. */
    double weight(std::uint32_t q, std::uint32_t p) const;

  private:
    const Backend &_backend;
    double _sigma;
    double _xi;
    std::size_t _n;
    std::vector<double> _weights; //!< row-normalized, n x n
};

/**
 * Slow intra-circuit phase drift: per-qubit detuning performing a
 * random walk across segments (one Wiener increment of standard
 * deviation rate * sqrt(tau) per segment).  Unlike per-shot-constant
 * quasi-static noise -- which an echo refocuses exactly -- a drift
 * accumulated between the echo halves survives, so this source
 * separates strategies that merely refocus static detunings from
 * ones robust to detunings moving within one circuit.
 */
class PhaseDriftSource final : public NoiseSource
{
  public:
    /** `rate` in MHz per sqrt(ns) of elapsed segment time. */
    PhaseDriftSource(const Backend &backend, double rate)
        : _backend(backend), _rate(rate)
    {
    }

    const char *name() const override { return "phase-drift"; }
    std::unique_ptr<Shot> makeShot() const override;
    bool wantsShotSampling() const override { return true; }
    void sampleShot(Shot *shot, Rng &rng) const override;
    bool wantsSegmentHook() const override { return _rate != 0.0; }
    /** Plans the walk's step scale rate * sqrt(tau). */
    double planSegmentQubit(std::uint32_t q,
                            double tau) const override;
    double segmentPhase(Shot *shot, std::uint32_t q, int frame_sign,
                        double tau, double planned,
                        Rng &rng) const override;
    std::string cliffordBlocker() const override;

  private:
    const Backend &_backend;
    double _rate;
};

} // namespace casq

#endif // CASQ_SIM_NOISE_SOURCES_HH
