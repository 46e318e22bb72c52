#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace casqbench {

using namespace casq;

void
Outcome::check(bool ok, const std::string &what)
{
    attempted += 1;
    if (!ok) {
        failed += 1;
        failures.push_back(what);
    }
}

void
Outcome::add(const std::string &name, double value,
             const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 over (seed, stream): distinct streams of one seed
    // and equal streams of distinct seeds never collide in practice.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream +
                      0xD1B54A32D192ED03ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

LayeredCircuit
chainCircuit(std::size_t n, int depth, std::uint32_t stride,
             double idle_ns)
{
    LayeredCircuit circuit(n, 0);
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        const std::uint32_t offset = (d % 2) ? 1 : 0;
        for (std::uint32_t q = offset; q + 1 < n; q += stride)
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{q, q + 1});
        circuit.addLayer(std::move(gates));
        Layer idle{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < n; ++q)
            idle.insts.emplace_back(Op::Delay,
                                    std::vector<std::uint32_t>{q},
                                    std::vector<double>{idle_ns});
        circuit.addLayer(std::move(idle));
    }
    return circuit;
}

std::vector<PauliString>
chainObservables(std::size_t n)
{
    std::vector<PauliString> observables;
    for (std::size_t q = 0; q < n; ++q)
        observables.push_back(PauliString::single(n, q, PauliOp::Z));
    for (std::size_t q = 0; q + 1 < n; ++q)
        observables.push_back(
            PauliString::two(n, q, PauliOp::Z, q + 1, PauliOp::Z));
    return observables;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

bool
resetPeakRss()
{
    // "5" resets VmHWM to the current resident set (Linux >= 4.0).
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

double
peakRssMb()
{
    // VmHWM follows resetPeakRss(); getrusage's ru_maxrss does not.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // both are KiB
}

namespace {

std::uint64_t
sweep(std::vector<std::uint64_t> &buffer)
{
    std::uint64_t sum = 0;
    for (std::uint64_t &word : buffer)
        sum += word++;
    return sum;
}

} // namespace

double
memoryProbeSeconds()
{
    static std::vector<std::uint64_t> buffer(std::size_t(1) << 22);
    static bool touched = false;
    static volatile std::uint64_t sink = 0;
    if (!touched) {
        sink = sink + sweep(buffer); // page faults stay out of the probe
        touched = true;
    }
    const auto t0 = Clock::now();
    sink = sink + sweep(buffer);
    return secondsSince(t0);
}

namespace {

template <typename T>
void
appendBytes(std::vector<std::uint8_t> &out, const T &value)
{
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out.insert(out.end(), raw, raw + sizeof(T));
}

} // namespace

std::vector<std::uint8_t>
scheduleBytes(const ScheduledCircuit &schedule)
{
    std::vector<std::uint8_t> out;
    appendBytes(out, std::uint64_t(schedule.numQubits()));
    appendBytes(out, std::uint64_t(schedule.numClbits()));
    appendBytes(out, schedule.totalDuration());
    for (const TimedInstruction &timed : schedule.instructions()) {
        const Instruction &inst = timed.inst;
        appendBytes(out, std::uint32_t(inst.op));
        appendBytes(out, std::uint8_t(inst.tag));
        appendBytes(out, std::int32_t(inst.cbit));
        appendBytes(out, std::int32_t(inst.condBit));
        appendBytes(out, std::int32_t(inst.condValue));
        appendBytes(out, std::uint32_t(inst.qubits.size()));
        for (std::uint32_t q : inst.qubits)
            appendBytes(out, q);
        appendBytes(out, std::uint32_t(inst.params.size()));
        for (double p : inst.params)
            appendBytes(out, p);
        appendBytes(out, timed.start);
        appendBytes(out, timed.duration);
    }
    return out;
}

std::string
scheduleInvariantError(const ScheduledCircuit &schedule)
{
    // Per-qubit instruction indices in schedule (start) order;
    // delays and barriers are idle time, not occupation.
    std::vector<std::vector<std::size_t>> on(schedule.numQubits());
    const auto &insts = schedule.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Op op = insts[i].inst.op;
        if (op == Op::Delay || op == Op::Barrier)
            continue;
        for (std::uint32_t q : insts[i].inst.qubits)
            on.at(q).push_back(i);
    }
    for (std::size_t q = 0; q < on.size(); ++q) {
        std::vector<std::pair<double, double>> busy;
        for (std::size_t i : on[q])
            if (insts[i].duration > 0.0)
                busy.emplace_back(insts[i].start, insts[i].end());
        std::sort(busy.begin(), busy.end());
        for (std::size_t k = 1; k < busy.size(); ++k)
            if (busy[k].first < busy[k - 1].second - 1e-9)
                return "instructions overlap on qubit " +
                       std::to_string(q);

        std::vector<std::size_t> order = on[q];
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return insts[a].start < insts[b].start;
                         });
        // Parity of the X and Z components of the running product.
        bool x = false, z = false, open = false;
        auto close = [&]() -> std::string {
            if (open && (x || z))
                return "DD pulses of an idle window on qubit " +
                       std::to_string(q) +
                       " do not multiply to the identity";
            x = z = open = false;
            return "";
        };
        for (std::size_t i : order) {
            const Instruction &inst = insts[i].inst;
            if (inst.tag != InstTag::DD) {
                if (std::string err = close(); !err.empty())
                    return err;
                continue;
            }
            open = true;
            switch (inst.op) {
            case Op::X: x = !x; break;
            case Op::Y: x = !x; z = !z; break;
            case Op::Z: z = !z; break;
            case Op::I: break;
            default:
                return std::string("DD pulse is not a Pauli: ") +
                       opName(inst.op);
            }
        }
        if (std::string err = close(); !err.empty())
            return err;
    }
    return "";
}

ExecutionOptions
executionOptions(const EnsembleRunOptions &opts)
{
    ExecutionOptions exec;
    exec.trajectories = opts.trajectories;
    exec.seed = opts.seed;
    exec.threads = opts.threads;
    exec.cacheVariants = opts.cacheVariants;
    exec.backend = opts.backend;
    exec.prefixState = opts.prefixState;
    return exec;
}

bool
sameBits(const RunResult &a, const RunResult &b)
{
    auto same = [](const std::vector<double> &u,
                   const std::vector<double> &v) {
        return u.size() == v.size() &&
               (u.empty() ||
                std::memcmp(u.data(), v.data(),
                            u.size() * sizeof(double)) == 0);
    };
    return a.trajectories == b.trajectories && same(a.means, b.means) &&
           same(a.stderrs, b.stderrs);
}

void
flipLowBit(double &value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    bits ^= 1;
    std::memcpy(&value, &bits, sizeof(bits));
}

std::size_t
countTag(const ScheduledCircuit &schedule, InstTag tag)
{
    std::size_t n = 0;
    for (const TimedInstruction &timed : schedule.instructions())
        n += timed.inst.tag == tag;
    return n;
}

} // namespace casqbench
