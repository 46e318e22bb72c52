/**
 * @file
 * Walsh-Hadamard decoupling sequences (paper Sec. III C and Fig. 5b).
 *
 * Row k of the natural-ordered Hadamard matrix over S = 2^m slots is
 * the sign pattern w_k(j) = (-1)^popcount(k & j).  Every row k >= 1
 * is balanced (suppresses single-qubit Z) and any two distinct rows
 * are orthogonal (suppresses the mutual ZZ), so assigning distinct
 * rows to crosstalk-coupled qubits decouples arbitrary all-to-all ZZ
 * networks.  X pulses are placed at the sign flips of the row.
 *
 * In 4-slot form the hardware pulses of an echoed two-qubit gate are
 * themselves Walsh rows: the control echo is row 2 (+ + - -) and the
 * target rotary is row 1 (+ - + -), which is how the colouring pass
 * pins the colours of active qubits.
 */

#ifndef CASQ_PASSES_WALSH_HH
#define CASQ_PASSES_WALSH_HH

#include <cstdint>
#include <vector>

namespace casq {

/**
 * Highest Walsh row the memoised sequence and colour-order tables
 * hold (walshSequence(), colorPreferenceOrder()).
 */
inline constexpr int kMaxWalshRow = 63;

/** Number of slots needed to realize Walsh row k (min 4). */
std::size_t walshSlots(int k);

/**
 * True when row k can be realized over `slots`: a power of two that
 * is at least 4 and greater than k.
 */
bool isWalshShape(int k, std::size_t slots);

/**
 * Sign pattern of row k over the given number of slots (+-1).
 * Asserts isWalshShape(k, slots).
 */
std::vector<int> walshSigns(int k, std::size_t slots);

/**
 * Pulse positions of row k as fractions of the interval in (0, 1]:
 * a pulse sits at every sign change, plus one at the end when the
 * row finishes at -1 so the frame returns to +1.  The count is
 * always even.
 */
std::vector<double> walshPulseFractions(int k, std::size_t slots);

/** Number of pulses row k needs at its native slot count. */
std::size_t walshPulseCount(int k);

/**
 * Inner product of rows j and k over max(native slots); zero for
 * j != k, which is the ZZ-suppression condition.
 */
int walshInnerProduct(int j, int k);

} // namespace casq

#endif // CASQ_PASSES_WALSH_HH
