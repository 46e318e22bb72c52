#include "sim/statevector.hh"

#include <cmath>

#include "common/logging.hh"

namespace casq {

namespace {

/**
 * Per-term factor pair for the fused phase kernel: `f0` multiplies
 * amplitudes where the term's parity bit is 0, `f1` where it is 1.
 */
struct PhaseFactor
{
    Complex f0;
    Complex f1;
};

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

void
Statevector::applyGate1q(const CMat &u, std::uint32_t q)
{
    ++_sweeps;
    const std::size_t half = std::size_t(1) << q;
    const Complex u00 = u(0, 0), u01 = u(0, 1);
    const Complex u10 = u(1, 0), u11 = u(1, 1);
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t base = 0; base < n; base += 2 * half) {
        Complex *lo = amps + base;
        Complex *hi = lo + half;
        for (std::size_t off = 0; off < half; ++off) {
            const Complex a = lo[off];
            const Complex b = hi[off];
            lo[off] = u00 * a + u01 * b;
            hi[off] = u10 * a + u11 * b;
        }
    }
}

void
Statevector::applyGate2q(const CMat &u, std::uint32_t q0,
                         std::uint32_t q1)
{
    ++_sweeps;
    const std::size_t m0 = std::size_t(1) << q0;
    const std::size_t m1 = std::size_t(1) << q1;
    Complex m[4][4];
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            m[r][c] = u(r, c);
    const std::size_t mlo = m0 < m1 ? m0 : m1;
    const std::size_t mhi = m0 < m1 ? m1 : m0;
    const std::size_t n = _amps.size();
    Complex *amps = _amps.data();
    for (std::size_t h = 0; h < n; h += 2 * mhi) {
        for (std::size_t l = 0; l < mhi; l += 2 * mlo) {
            const std::size_t block = h + l;
            for (std::size_t i = block; i < block + mlo; ++i) {
                // Bits q0 and q1 of i are both clear here.
                const std::size_t i1 = i | m0;
                const std::size_t i2 = i | m1;
                const std::size_t i3 = i | m0 | m1;
                const Complex v0 = amps[i], v1 = amps[i1];
                const Complex v2 = amps[i2], v3 = amps[i3];
                amps[i] = m[0][0] * v0 + m[0][1] * v1 +
                          m[0][2] * v2 + m[0][3] * v3;
                amps[i1] = m[1][0] * v0 + m[1][1] * v1 +
                           m[1][2] * v2 + m[1][3] * v3;
                amps[i2] = m[2][0] * v0 + m[2][1] * v1 +
                           m[2][2] * v2 + m[2][3] * v3;
                amps[i3] = m[3][0] * v0 + m[3][1] * v1 +
                           m[3][2] * v2 + m[3][3] * v3;
            }
        }
    }
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

    // Build a per-index Complex factor table by doubling over
    // qubits, so trig calls scale with the term count instead of
    // the state size.  The factor for index i is the product over
    // terms of e^{+-i theta/2}, resolved at the term's highest
    // qubit (for ZZ terms the sign depends on the lower bit of the
    // already-built table index).
    const std::size_t n = _amps.size();
    _phaseScratch.resize(n);
    Complex *table = _phaseScratch.data();
    table[0] = 1.0;

    struct ZzAt
    {
        std::uint32_t qlo;
        Complex e0; //!< even parity: e^{-i theta/2}
        Complex e1; //!< odd parity: e^{+i theta/2}
    };
    std::vector<ZzAt> zzHere;
    for (std::uint32_t k = 0; k < _numQubits; ++k) {
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
        zzHere.clear();
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
                zzHere.push_back(
                    ZzAt{pa.q0 < pa.q1 ? pa.q0 : pa.q1, f0, f1});
            }
            any = true;
        }
        const std::size_t halfLen = std::size_t(1) << k;
        if (!any) {
            for (std::size_t j = 0; j < halfLen; ++j)
                table[j + halfLen] = table[j];
            continue;
        }
        if (zzHere.empty()) {
            for (std::size_t j = 0; j < halfLen; ++j) {
                table[j + halfLen] = table[j] * hc;
                table[j] *= g;
            }
            continue;
        }
        for (std::size_t j = 0; j < halfLen; ++j) {
            Complex g2 = g, h2 = hc;
            for (const auto &t : zzHere) {
                const bool b = (j >> t.qlo) & 1;
                g2 *= b ? t.e1 : t.e0;
                h2 *= b ? t.e0 : t.e1;
            }
            table[j + halfLen] = table[j] * h2;
            table[j] *= g2;
        }
    }

    ++_sweeps;
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
                (__builtin_popcountll(i & smask) & 1) ? -base
                                                      : base;
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
                (__builtin_popcountll(i & smask) & 1) ? -base
                                                      : base;
            const Complex cj =
                (__builtin_popcountll(j & smask) & 1) ? -base
                                                      : base;
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
        const Complex c =
            (__builtin_popcountll(i & smask) & 1) ? -base : base;
        acc += std::conj(amps[j]) * c * amps[i];
    }
    return acc.real();
}

} // namespace casq
