#include "sim/statevector.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/logging.hh"

namespace casq {

namespace {

/**
 * Two doubles in one vector register: an amplitude (re, im) in the
 * gate kernels, two strings' sums in zExpectations.
 */
typedef double Lanes __attribute__((vector_size(16)));

Lanes
loadPair(const double *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

Lanes
load(const Complex &z)
{
    return loadPair(reinterpret_cast<const double *>(&z));
}

void
store(Complex &z, Lanes v)
{
    std::memcpy(reinterpret_cast<double *>(&z), &v, sizeof v);
}

/** (im, re) of v. */
Lanes
swapped(Lanes v)
{
    return __builtin_shufflevector(v, v, 1, 0);
}

/**
 * A factor m laid out for products m * v = (re m, re m) v +
 * (-im m, im m) swapped(v).  Lane by lane that is re m re v -
 * im m im v and re m im v + im m re v, rounded as std::complex's
 * product rounds them (the negation is exact), so a kernel in this
 * form is bit-identical to one in std::complex, with half the
 * arithmetic instructions and none of std::complex's recovery of
 * infinite parts from NaN results (the amplitudes are finite).
 */
struct Factor
{
    Lanes re = {};
    Lanes im = {};

    Factor() = default;

    explicit Factor(const Complex &m)
        : re{m.real(), m.real()}, im{-m.imag(), m.imag()}
    {
    }

    /** m * v, given v and swapped(v). */
    Lanes
    times(Lanes v, Lanes vs) const
    {
        return re * v + im * vs;
    }
};

/** v * f, as std::complex rounds it. */
Lanes
times(Lanes v, const Complex &f)
{
    return Factor(f).times(v, swapped(v));
}

} // namespace

Statevector::Statevector(std::size_t num_qubits)
    : _numQubits(num_qubits),
      _amps(std::size_t(1) << num_qubits)
{
    casq_assert(num_qubits <= kMaxDenseQubits,
                "statevector too large");
    _amps[0] = 1.0;
}

void
Statevector::reset()
{
    ++_sweeps;
    std::fill(_amps.begin(), _amps.end(), Complex{});
    _amps[0] = 1.0;
}

void
Statevector::copyFrom(const Statevector &other)
{
    casq_assert(other._numQubits == _numQubits,
                "copyFrom width mismatch");
    ++_sweeps;
    _amps.assign(other._amps.begin(), other._amps.end());
}

const Complex *
Statevector::phaseTable(const std::vector<QubitAngle> &z_angles,
                        const std::vector<PairAngle> &zz_angles,
                        std::uint64_t touched)
{
    // Build the factor table by doubling over the touched qubits, so
    // trig calls scale with the term count instead of the table
    // size.  The factor for index j is the product over terms of
    // e^{+-i theta/2}, resolved at the term's highest qubit (for ZZ
    // terms the sign depends on the lower bit of the already-built
    // table index).
    const std::size_t len = std::size_t(1) << std::popcount(touched);
    if (_phaseScratch.size() < len)
        _phaseScratch.resize(len);
    Complex *table = _phaseScratch.data();
    table[0] = 1.0;
    std::size_t halfLen = 1;
    for (std::uint32_t k = 0; k < _numQubits; ++k) {
        if (!((touched >> k) & 1))
            continue;
        // Constant (bit-k-only) factors from Z terms at k, plus
        // degenerate ZZ pairs (q0 == q1 always has even parity).
        Complex g(1.0); // factor when bit k = 0
        Complex hc(1.0); // factor when bit k = 1
        bool any = false;
        for (const auto &za : z_angles) {
            if (za.qubit != k)
                continue;
            const Complex f1(std::cos(za.theta * 0.5),
                             std::sin(za.theta * 0.5));
            g *= std::conj(f1);
            hc *= f1;
            any = true;
        }
        _pairTerms.clear();
        for (const auto &pa : zz_angles) {
            const std::uint32_t qhi = pa.q0 > pa.q1 ? pa.q0
                                                    : pa.q1;
            if (qhi != k)
                continue;
            const Complex f1(std::cos(pa.theta * 0.5),
                             std::sin(pa.theta * 0.5));
            const Complex f0 = std::conj(f1);
            if (pa.q0 == pa.q1) {
                g *= f0;
                hc *= f0;
            } else {
                const std::uint32_t qlo = pa.q0 < pa.q1 ? pa.q0 : pa.q1;
                const std::uint64_t below = (std::uint64_t(1) << qlo) - 1;
                _pairTerms.push_back(PairTerm{
                    std::uint32_t(std::popcount(touched & below)), f0,
                    f1});
            }
            any = true;
        }
        if (!any) {
            for (std::size_t j = 0; j < halfLen; ++j)
                table[j + halfLen] = table[j];
        } else if (_pairTerms.empty()) {
            for (std::size_t j = 0; j < halfLen; ++j) {
                table[j + halfLen] = table[j] * hc;
                table[j] *= g;
            }
        } else {
            for (std::size_t j = 0; j < halfLen; ++j) {
                Complex g2 = g, h2 = hc;
                for (const PairTerm &t : _pairTerms) {
                    const bool b = (j >> t.lo) & 1;
                    g2 *= b ? t.e1 : t.e0;
                    h2 *= b ? t.e0 : t.e1;
                }
                table[j + halfLen] = table[j] * h2;
                table[j] *= g2;
            }
        }
        halfLen *= 2;
    }
    return table;
}

Statevector::CouplingTable
Statevector::couplingTable(const std::vector<PairAngle> &coupling,
                           std::span<const std::uint32_t> gate)
{
    CouplingTable table;
    if (coupling.empty())
        return table;
    std::uint64_t touched = 0;
    for (std::uint32_t q : gate)
        touched |= std::uint64_t(1) << q;
    for (const PairAngle &pa : coupling) {
        casq_assert(pa.q0 != pa.q1, "a coupling term needs two qubits");
        touched |= (std::uint64_t(1) << pa.q0) |
                   (std::uint64_t(1) << pa.q1);
    }
    const auto rank = [&](std::uint32_t q) {
        return std::uint32_t(
            std::popcount(touched & ((std::uint64_t(1) << q) - 1)));
    };
    for (std::uint32_t q = 0; q < _numQubits; ++q) {
        if (((touched >> q) & 1) && q != gate.front() &&
            q != gate.back()) {
            table.partner[table.partners] = q;
            table.rank[table.partners++] = rank(q);
        }
    }
    for (std::size_t g = 0; g < gate.size(); ++g)
        table.gateBit[g] = std::size_t(1) << rank(gate[g]);
    table.factor = phaseTable({}, coupling, touched);
    return table;
}

void
Statevector::applyGate1q(const CMat &u, std::uint32_t q,
                         const std::vector<PairAngle> &coupling)
{
    ++_sweeps;
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    const std::uint32_t gate[1] = {q};
    const CouplingTable table = couplingTable(coupling, gate);
    const Factor u00(u(0, 0)), u01(u(0, 1));
    const Factor u10(u(1, 0)), u11(u(1, 1));
    const auto pass = [&](auto coupled) {
        for (std::size_t base = 0; base < n; base += 2 * half) {
            Complex *lo = amps + base;
            Complex *hi = lo + half;
            for (std::size_t off = 0; off < half; ++off) {
                Lanes a = load(lo[off]);
                Lanes b = load(hi[off]);
                if constexpr (decltype(coupled)::value) {
                    const Complex *f =
                        table.factor + table.key(base + off);
                    a = times(a, f[0]);
                    b = times(b, f[table.gateBit[0]]);
                }
                const Lanes as = swapped(a), bs = swapped(b);
                store(lo[off], u00.times(a, as) + u01.times(b, bs));
                store(hi[off], u10.times(a, as) + u11.times(b, bs));
            }
        }
    };
    if (table.factor)
        pass(std::true_type{});
    else
        pass(std::false_type{});
}

void
Statevector::applyGate2q(const CMat &u, std::uint32_t q0,
                         std::uint32_t q1,
                         const std::vector<PairAngle> &coupling)
{
    ++_sweeps;
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    Factor m[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[r][c] = Factor(u(r, c));
    const std::size_t mlo = m0 < m1 ? m0 : m1;
    const std::size_t mhi = m0 < m1 ? m1 : m0;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    const std::uint32_t gate[2] = {q0, q1};
    const CouplingTable table = couplingTable(coupling, gate);
    const std::size_t f1 = table.gateBit[0], f2 = table.gateBit[1];
    const auto pass = [&](auto coupled) {
        for (std::size_t h = 0; h < n; h += 2 * mhi) {
            for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
                const std::size_t block = h + l;
                for (std::size_t i = block; i < block + mlo; ++i) {
                    // Bits q0 and q1 of i are both clear here.
                    const std::size_t i1 = i | m0;
                    const std::size_t i2 = i | m1;
                    const std::size_t i3 = i | m0 | m1;
                    const std::size_t at[4] = {i, i1, i2, i3};
                    Lanes v[4], vs[4];
                    for (int c = 0; c < 4; ++c)
                        v[c] = load(amps[at[c]]);
                    if constexpr (decltype(coupled)::value) {
                        const Complex *f = table.factor + table.key(i);
                        v[0] = times(v[0], f[0]);
                        v[1] = times(v[1], f[f1]);
                        v[2] = times(v[2], f[f2]);
                        v[3] = times(v[3], f[f1 | f2]);
                    }
                    for (int c = 0; c < 4; ++c)
                        vs[c] = swapped(v[c]);
                    for (int r = 0; r < 4; ++r)
                        store(amps[at[r]], m[r][0].times(v[0], vs[0]) +
                                               m[r][1].times(v[1], vs[1]) +
                                               m[r][2].times(v[2], vs[2]) +
                                               m[r][3].times(v[3], vs[3]));
                }
            }
        }
    };
    if (table.factor)
        pass(std::true_type{});
    else
        pass(std::false_type{});
}

void
Statevector::applyRz(std::uint32_t q, double theta)
{
    ++_sweeps;
    const std::size_t half = std::size_t(1) << q;
    const Complex p0 = std::exp(Complex(0, -theta * 0.5));
    const Complex p1 = std::exp(Complex(0, theta * 0.5));
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off)
            lo[off] *= p0;
        for (std::size_t off = 0; off < half; ++off)
            hi[off] *= p1;
    }
}

void
Statevector::applyRzz(std::uint32_t q0, std::uint32_t q1,
                      double theta)
{
    casq_assert(q0 != q1, "applyRzz needs distinct qubits");
    ++_sweeps;
    const std::size_t mlo = std::size_t(1)
                            << (q0 < q1 ? q0 : q1);
    const std::size_t mhi = std::size_t(1)
                            << (q0 < q1 ? q1 : q0);
    // Rzz eigenphase: -theta/2 on even parity, +theta/2 on odd.
    const Complex odd(std::cos(theta * 0.5),
                      std::sin(theta * 0.5));
    const Complex even = std::conj(odd);
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            Complex *b00 = amps + h + l;
            Complex *b01 = b00 + mlo;
            Complex *b10 = b00 + mhi;
            Complex *b11 = b10 + mlo;
            for (std::size_t i = 0; i < mlo; ++i) {
                b00[i] *= even;
                b01[i] *= odd;
                b10[i] *= odd;
                b11[i] *= even;
            }
        }
    }
}

void
Statevector::applyPhases(const std::vector<QubitAngle> &z_angles,
                         const std::vector<PairAngle> &zz_angles)
{
    if (z_angles.empty() && zz_angles.empty())
        return;
    if (zz_angles.empty() && z_angles.size() == 1) {
        applyRz(z_angles[0].qubit, z_angles[0].theta);
        return;
    }
    if (z_angles.empty() && zz_angles.size() == 1 &&
        zz_angles[0].q0 != zz_angles[0].q1) {
        applyRzz(zz_angles[0].q0, zz_angles[0].q1,
                 zz_angles[0].theta);
        return;
    }

    const Complex *table = phaseTable(
        z_angles, zz_angles, (std::uint64_t(1) << _numQubits) - 1);
    ++_sweeps;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t i = 0; i < n; ++i)
        amps[i] *= table[i];
}

void
Statevector::applyPauli(const PauliString &p)
{
    casq_assert(p.numQubits() == _numQubits,
                "Pauli width mismatch");
    std::size_t xmask = 0;
    std::size_t zmask = 0;
    std::size_t ymask = 0;
    for (std::size_t q = 0; q < _numQubits; ++q) {
        switch (p.op(q)) {
          case PauliOp::X:
            xmask |= std::size_t(1) << q;
            break;
          case PauliOp::Y:
            xmask |= std::size_t(1) << q;
            ymask |= std::size_t(1) << q;
            break;
          case PauliOp::Z:
            zmask |= std::size_t(1) << q;
            break;
          case PauliOp::I:
            break;
        }
    }
    // P |i> = c(i) |i ^ xmask> with
    //   c(i) = phase * i^{|Y|} * (-1)^{popcount(i & (zmask|ymask))}
    // (each Y contributes +i on |0> and -i = (+i)*(-1) on |1>, so
    // the imaginary units factor out and only a parity remains;
    // multiplying a Complex by i or -1 is exact).
    Complex base = p.phase();
    for (int k = __builtin_popcountll(ymask); k > 0; --k)
        base *= Complex(0, 1);
    const std::size_t smask = zmask | ymask;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    ++_sweeps;
    if (xmask == 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const Complex c =
                __builtin_parityll(i & smask) ? -base : base;
            amps[i] *= c;
        }
        return;
    }
    // Swap-style in-place update over pairs {i, i ^ xmask}; the
    // lowest X bit picks a unique representative per pair.
    const std::size_t half = xmask & (~xmask + 1);
    for (std::size_t blockBase = 0; blockBase < n;
         blockBase += 2 * half) {
        for (std::size_t off = 0; off < half; ++off) {
            const std::size_t i = blockBase + off;
            const std::size_t j = i ^ xmask;
            const Complex ci =
                __builtin_parityll(i & smask) ? -base : base;
            const Complex cj =
                __builtin_parityll(j & smask) ? -base : base;
            const Complex a = amps[i];
            const Complex b = amps[j];
            amps[j] = ci * a;
            amps[i] = cj * b;
        }
    }
}

double
Statevector::probability(std::uint32_t q, int outcome) const
{
    ++_sweeps;
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    const Complex *amps = _amps.data() + (outcome ? half : 0);
    double p = 0.0;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        const Complex *branch = amps + base;
        for (std::size_t off = 0; off < half; ++off)
            p += std::norm(branch[off]);
    }
    return p;
}

void
Statevector::collapse(std::uint32_t q, int outcome)
{
    // Fused: zero the dropped branch while accumulating both norms
    // (the dropped one only feeds the guard), then rescale.
    _sweeps += 2;
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    double kept = 0.0, dropped = 0.0;
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        Complex *keep = outcome ? hi : lo;
        Complex *drop = outcome ? lo : hi;
        for (std::size_t off = 0; off < half; ++off)
            kept += std::norm(keep[off]);
        for (std::size_t off = 0; off < half; ++off) {
            dropped += std::norm(drop[off]);
            drop[off] = 0.0;
        }
    }
    casq_assert(kept > 1e-24 * (kept + dropped),
                "state collapsed to zero norm");
    const double inv = 1.0 / std::sqrt(kept);
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *keep = amps + base + (outcome ? half : 0);
        for (std::size_t off = 0; off < half; ++off)
            keep[off] *= inv;
    }
}

std::array<double, 2>
Statevector::applyWeights(const std::vector<QubitWeight> &weights,
                          std::uint32_t q)
{
    ++_sweeps;
    const std::size_t half = std::size_t(1) << q;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    std::array<double, 2> pop{0.0, 0.0};
    if (weights.empty()) {
        for (std::size_t base = 0; base < n; base += 2 * half) {
            for (std::size_t off = 0; off < half; ++off)
                pop[0] += std::norm(amps[base + off]);
            for (std::size_t off = 0; off < half; ++off)
                pop[1] += std::norm(amps[base + half + off]);
        }
        return pop;
    }
    // Per-index factor table by doubling over qubits, as in
    // applyPhases.  The real factors live in the phase table's
    // storage: an array of std::complex<double> may be accessed as
    // twice as many doubles.
    _phaseScratch.resize(n);
    double *table = reinterpret_cast<double *>(_phaseScratch.data());
    table[0] = 1.0;
    for (std::uint32_t k = 0; k < _numQubits; ++k) {
        double w0 = 1.0, w1 = 1.0;
        for (const QubitWeight &w : weights) {
            if (w.qubit == k) {
                w0 = w.w0;
                w1 = w.w1;
            }
        }
        const std::size_t len = std::size_t(1) << k;
        for (std::size_t j = 0; j < len; ++j) {
            table[j + len] = table[j] * w1;
            table[j] *= w0;
        }
    }
    for (std::size_t base = 0; base < n; base += 2 * half) {
        for (std::size_t i = base; i < base + half; ++i) {
            amps[i] *= table[i];
            pop[0] += std::norm(amps[i]);
        }
        for (std::size_t i = base + half; i < base + 2 * half; ++i) {
            amps[i] *= table[i];
            pop[1] += std::norm(amps[i]);
        }
    }
    return pop;
}

double
Statevector::expectation(const PauliString &p) const
{
    casq_assert(p.numQubits() == _numQubits,
                "Pauli width mismatch");
    std::size_t xmask = 0, zmask = 0, ymask = 0;
    for (std::size_t q = 0; q < _numQubits; ++q) {
        switch (p.op(q)) {
          case PauliOp::X:
            xmask |= std::size_t(1) << q;
            break;
          case PauliOp::Y:
            xmask |= std::size_t(1) << q;
            ymask |= std::size_t(1) << q;
            break;
          case PauliOp::Z:
            zmask |= std::size_t(1) << q;
            break;
          case PauliOp::I:
            break;
        }
    }
    // Same coefficient identity as applyPauli (exact).
    Complex base = p.phase();
    for (int k = __builtin_popcountll(ymask); k > 0; --k)
        base *= Complex(0, 1);
    const std::size_t smask = zmask | ymask;
    ++_sweeps;
    Complex acc{};
    const std::size_t n = _amps.size();
    const Complex *amps = _amps.data();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = i ^ xmask;
        const Complex c = __builtin_parityll(i & smask) ? -base : base;
        acc += std::conj(amps[j]) * c * amps[i];
    }
    return acc.real();
}

void
Statevector::zExpectations(std::span<const std::uint64_t> zmasks,
                           std::span<double> out) const
{
    casq_assert(out.size() == zmasks.size(),
                "one output per Z mask");
    ++_sweeps;
    // Index i = block + lo with lo its low `low` bits: the sign of
    // |a_i|^2 in sum k is the product of a sign from lo and one from
    // the block, both from tables of +-1.0 built once (a parity per
    // amplitude and string costs more than the whole sum).  Each
    // product is exact, so every sum adds the same terms in the same
    // order as expectation(): conj(a) * (+-1) * a has real part
    // +-(re^2 + im^2), rounded as std::norm rounds it.  The sums go
    // two to a vector register; an odd count pads with the mask 0.
    const std::size_t width = (zmasks.size() + 1) / 2 * 2;
    const std::uint32_t low =
        std::uint32_t(std::min<std::size_t>(_numQubits, 6));
    const std::size_t span = std::size_t(1) << low;
    _signScratch.assign((span + 2) * width, 0.0);
    double *lowSign = _signScratch.data();
    double *blockSign = lowSign + span * width;
    double *acc = blockSign + width;
    const auto sign = [&](std::size_t index, std::size_t k) {
        const std::uint64_t zmask = k < zmasks.size() ? zmasks[k] : 0;
        return __builtin_parityll(index & zmask) ? -1.0 : 1.0;
    };
    for (std::size_t lo = 0; lo < span; ++lo)
        for (std::size_t k = 0; k < width; ++k)
            lowSign[lo * width + k] = sign(lo, k);
    const std::size_t n = _amps.size();
    const Complex *amps = _amps.data();
    for (std::size_t block = 0; block < n; block += span) {
        for (std::size_t k = 0; k < width; ++k)
            blockSign[k] = sign(block, k);
        for (std::size_t lo = 0; lo < span; ++lo) {
            const double x = std::norm(amps[block + lo]);
            const Lanes xx = {x, x};
            const double *row = lowSign + lo * width;
            for (std::size_t k = 0; k < width; k += 2) {
                const Lanes sum = loadPair(acc + k) +
                                  loadPair(row + k) *
                                      loadPair(blockSign + k) * xx;
                std::memcpy(acc + k, &sum, sizeof sum);
            }
        }
    }
    std::copy(acc, acc + out.size(), out.begin());
}

} // namespace casq
