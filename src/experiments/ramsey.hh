/**
 * @file
 * Ramsey characterization protocols (paper Figs. 3 and 4).
 *
 * Probe qubits are prepared in |+>, evolve under d repetitions of a
 * context block (idle periods or spectator gates), and the overlap
 * with |+...+> is computed from X-string expectations.  Oscillations
 * of the fidelity signal coherent errors; their suppression under a
 * given compile strategy is the paper's per-context validation.
 */

#ifndef CASQ_EXPERIMENTS_RAMSEY_HH
#define CASQ_EXPERIMENTS_RAMSEY_HH

#include <functional>
#include <vector>

#include "passes/pipeline.hh"
#include "sim/engine.hh"

namespace casq {

/** Builder of the d-step layered context circuit. */
using ContextBuilder = std::function<LayeredCircuit(int depth)>;

/** One fidelity sample of a Ramsey sweep. */
struct RamseyPoint
{
    int depth = 0;
    double fidelity = 0.0;
    double stderror = 0.0;
};

/**
 * Run the Ramsey protocol: compile builder(d) under the options,
 * execute, and convert the X-string expectations on the probe
 * qubits into the |+...+> overlap.  Each depth runs through
 * SimulationEngine's fused compile->simulate ensemble path with
 * every field of `exec` (its pool has exec.threads workers, 0 = one
 * per core).  Results are bit-identical for every thread count.
 */
std::vector<RamseyPoint> runRamsey(
    const ContextBuilder &builder,
    const std::vector<std::uint32_t> &probes, const Backend &backend,
    const NoiseModel &noise, const CompileOptions &compile,
    const std::vector<int> &depths, const ExecutionOptions &exec,
    int twirl_instances = 8);

/** |+...+> overlap from the 2^k X-subset expectations. */
double plusStateFidelity(const std::vector<double> &x_subsets);

/** All-X-subset observables over the probe qubits (2^k strings). */
std::vector<PauliString> plusStateObservables(
    std::size_t num_qubits,
    const std::vector<std::uint32_t> &probes);

// --- Fig. 3 context builders (4-qubit chain devices) -------------

/** Case I: two adjacent idle qubits (probes), d idle periods. */
LayeredCircuit buildCaseIdleIdle(std::size_t num_qubits,
                                 std::uint32_t q0, std::uint32_t q1,
                                 int depth, double tau_ns);

/**
 * Cases II/III: repeated ECR(control -> target) with idle
 * spectators next to the control and the target.  Probes choose
 * which case is read out.
 */
LayeredCircuit buildCaseSpectator(std::size_t num_qubits,
                                  std::uint32_t control,
                                  std::uint32_t target, int depth,
                                  const std::vector<std::uint32_t>
                                      &prepared);

/**
 * Case IV: two parallel ECR gates with adjacent controls; each
 * step applies the gate pair twice (ECR is an involution) so the
 * logical circuit is the identity on every qubit.
 */
LayeredCircuit buildCaseControlControl(std::size_t num_qubits,
                                       std::uint32_t ctrl0,
                                       std::uint32_t tgt0,
                                       std::uint32_t ctrl1,
                                       std::uint32_t tgt1, int depth);

// --- Fig. 4 characterizations -------------------------------------

/**
 * Detuning-scan spectroscopy (Fig. 4a): Ramsey with an assumed
 * frame frequency; returns the fidelity per scanned frequency.
 * The context builder supplies the evolution; probes must contain
 * exactly one qubit.
 */
struct SpectroscopyResult
{
    std::vector<double> frequenciesMhz;
    std::vector<double> fidelities;

    /** Frequency of the maximum-fidelity point. */
    double peakMhz() const;
};

SpectroscopyResult runDetuningScan(
    const ContextBuilder &builder, std::uint32_t probe,
    double total_idle_ns, const Backend &backend,
    const NoiseModel &noise, const CompileOptions &compile,
    int depth, const std::vector<double> &frequencies_mhz,
    const ExecutionOptions &exec);

} // namespace casq

#endif // CASQ_EXPERIMENTS_RAMSEY_HH
