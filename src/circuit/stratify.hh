/**
 * @file
 * Stratification of circuits into layers of single-qubit and
 * two-qubit gates (paper Sec. III A, Fig. 2).
 *
 * Error-mitigation protocols such as PEC/PEA arrange circuits into
 * alternating layers; the twirling and CA-EC passes operate on this
 * layered form, and flatten() re-inserts barriers so the scheduler
 * preserves layer alignment (which makes the compiler's per-layer
 * duration model match the simulator timeline exactly).
 */

#ifndef CASQ_CIRCUIT_STRATIFY_HH
#define CASQ_CIRCUIT_STRATIFY_HH

#include <vector>

#include "circuit/circuit.hh"

namespace casq {

/** Classification of a circuit layer. */
enum class LayerKind
{
    OneQubit, //!< only single-qubit unitaries
    TwoQubit, //!< only two-qubit unitaries (disjoint qubits)
    Dynamic,  //!< measurement / reset / conditional instructions
};

/** One stratum of the layered circuit. */
struct Layer
{
    LayerKind kind = LayerKind::OneQubit;
    std::vector<Instruction> insts;

    /** True if any instruction acts on the qubit. */
    bool actsOn(std::uint32_t qubit) const;

    /**
     * The two-qubit instruction acting on the qubit, or nullptr.
     * Valid for TwoQubit layers.
     */
    const Instruction *gateOn(std::uint32_t qubit) const;
};

/**
 * True for an all-qubit barrier: the separator flatten() emits
 * between layers, which therefore may not appear inside one.
 */
bool isLayerSeparator(const Instruction &inst, std::size_t num_qubits);

/** A circuit organized as an ordered list of disjoint layers. */
class LayeredCircuit
{
  public:
    LayeredCircuit(std::size_t num_qubits, std::size_t num_clbits)
        : _numQubits(num_qubits), _numClbits(num_clbits)
    {
    }

    std::size_t numQubits() const { return _numQubits; }
    std::size_t numClbits() const { return _numClbits; }

    std::vector<Layer> &layers() { return _layers; }
    const std::vector<Layer> &layers() const { return _layers; }

    /**
     * Append a layer.  Instruction qubits must be disjoint, and the
     * layer may not hold an all-qubit barrier: flatten() reserves
     * those as layer separators, and the late-twirl and CA-EC passes
     * recover layers by splitting on them.  Partial barriers are
     * fine.
     */
    void addLayer(Layer layer);

    /**
     * Lower back to a flat circuit with barriers between layers so
     * scheduling preserves the layer alignment.
     */
    Circuit flatten() const;

    /** Sum of two-qubit gates over all layers. */
    std::size_t countTwoQubitGates() const;

  private:
    std::size_t _numQubits;
    std::size_t _numClbits;
    std::vector<Layer> _layers;
};

/**
 * Greedily batch a flat circuit into layers: consecutive compatible
 * instructions of the same kind with disjoint qubits share a layer;
 * barriers force a layer boundary.  Delays are treated as
 * single-qubit placeholders.
 */
LayeredCircuit stratify(const Circuit &circuit);

} // namespace casq

#endif // CASQ_CIRCUIT_STRATIFY_HH
