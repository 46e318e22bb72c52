/**
 * @file
 * Layer-fidelity benchmarking (paper Sec. V C / Fig. 8, following
 * McKay et al.).
 *
 * The qubits of a layer are partitioned into disjoint units (gate
 * pairs, adjacent idle pairs, single idle qubits); random Pauli
 * eigenstates are prepared per unit, d twirled copies of the layer
 * are applied, and the decay of the unit Pauli expectations over d
 * yields a per-unit process fidelity.  The layer fidelity is the
 * product over units, and the PEC sampling-overhead factor is
 * gamma = LF^-2.
 */

#ifndef CASQ_EXPERIMENTS_LAYER_FIDELITY_HH
#define CASQ_EXPERIMENTS_LAYER_FIDELITY_HH

#include "passes/pipeline.hh"
#include "sim/engine.hh"

namespace casq {

/** Definition of the benchmarked layer. */
struct LayerSpec
{
    /** Simultaneous two-qubit gates (control, target). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> gates;

    /** Idle qubits included in the benchmark. */
    std::vector<std::uint32_t> idles;
};

/** A disjoint benchmarking unit of the layer. */
struct LayerUnit
{
    std::vector<std::uint32_t> qubits;
    bool isGate = false;
};

/**
 * Partition into gate pairs, coupled idle pairs (greedy matching)
 * and leftover single idles (the paper's disjoint groups).
 */
std::vector<LayerUnit> partitionUnits(const LayerSpec &spec,
                                      const Backend &backend);

/** Result of the layer-fidelity protocol. */
struct LayerFidelityResult
{
    double layerFidelity = 0.0;
    double gamma = 0.0; //!< PEC overhead factor, LF^-2
    std::vector<LayerUnit> units;
    std::vector<double> unitLambdas;    //!< per-layer decay
    std::vector<double> unitFidelities; //!< process fidelities
};

/** Protocol tunables. */
struct LayerFidelityOptions
{
    std::vector<int> depths{1, 2, 4, 8, 16};
    int pauliSamples = 6; //!< random Pauli settings per unit
    int twirlInstances = 8;
};

/**
 * Run the protocol for the layer under one compile strategy and
 * return the layer fidelity with per-unit detail.  Every ensemble
 * runs with the fields of `exec` (exec.threads sizes the fused
 * compile+simulate pool); results never depend on the thread count.
 */
LayerFidelityResult measureLayerFidelity(
    const LayerSpec &spec, const Backend &backend,
    const NoiseModel &noise, const CompileOptions &compile,
    const LayerFidelityOptions &options,
    const ExecutionOptions &exec);

/** The sparse 10-qubit layer of paper Fig. 8 on fake_nazca labels. */
LayerSpec fig8LayerSpec();

/** The 10 physical qubits of the Fig. 8 layer, in subsystem order. */
std::vector<std::uint32_t> fig8Qubits();

} // namespace casq

#endif // CASQ_EXPERIMENTS_LAYER_FIDELITY_HH
