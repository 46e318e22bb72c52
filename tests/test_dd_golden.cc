/**
 * @file
 * Golden schedule fingerprints of every stock strategy.
 *
 * tests/golden/dd_schedules.txt holds one exact hash per compiled
 * instance over every field of every timed instruction (op, qubits,
 * parameter bits, cbit/condition, tag, start and duration bits),
 * captured before the DD passes were reworked for speed.  Any change
 * to DD insertion, grouping, colouring or pulse placement that moves
 * a single bit of a schedule fails here.  The captures must hold for
 * every thread count and with the ensemble prefix cache on or off.
 *
 * On a mismatch the fresh capture is written to
 * dd_schedules.actual.txt in the working directory for inspection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/serialize.hh"
#include "passes/pipeline.hh"

namespace casq {
namespace {

/**
 * Alternating ECR / delay layers on an n-qubit chain: ECR gates on
 * every `stride`-th coupler from a parity-staggered offset, then a
 * 600 ns delay on every qubit.
 */
LayeredCircuit
idleChain(std::size_t n, int depth, std::uint32_t stride)
{
    LayeredCircuit circuit(n, 0);
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        for (std::uint32_t q = (d % 2) ? 1 : 0; q + 1 < n; q += stride)
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{q, q + 1});
        circuit.addLayer(std::move(gates));
        Layer idle{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < n; ++q)
            idle.insts.emplace_back(Op::Delay,
                                    std::vector<std::uint32_t>{q},
                                    std::vector<double>{600.0});
        circuit.addLayer(std::move(idle));
    }
    return circuit;
}

/** A 10-qubit chain with NNN collision edges forming triangles. */
Backend
nnnDevice()
{
    Backend backend = makeFakeLinear(10, 0x77);
    backend.addNnnPair(0, 2, 0.012);
    backend.addNnnPair(3, 5, 0.015);
    backend.addNnnPair(6, 8, 0.011);
    backend.addNnnPair(7, 9, 0.014);
    return backend;
}

template <typename T>
void
appendBits(std::vector<std::uint8_t> &out, T value)
{
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out.insert(out.end(), bytes, bytes + sizeof(T));
}

/** Exact hash over every field of every timed instruction. */
std::uint64_t
scheduleHash(const ScheduledCircuit &schedule)
{
    std::vector<std::uint8_t> bytes;
    appendBits(bytes, std::uint64_t(schedule.numQubits()));
    appendBits(bytes, std::uint64_t(schedule.numClbits()));
    appendBits(bytes, schedule.totalDuration());
    for (const TimedInstruction &timed : schedule.instructions()) {
        const Instruction &inst = timed.inst;
        appendBits(bytes, std::uint32_t(inst.op));
        appendBits(bytes, std::uint8_t(inst.tag));
        appendBits(bytes, std::int32_t(inst.cbit));
        appendBits(bytes, std::int32_t(inst.condBit));
        appendBits(bytes, std::int32_t(inst.condValue));
        appendBits(bytes, std::uint32_t(inst.qubits.size()));
        for (std::uint32_t q : inst.qubits)
            appendBits(bytes, q);
        appendBits(bytes, std::uint32_t(inst.params.size()));
        for (double p : inst.params)
            appendBits(bytes, p);
        appendBits(bytes, timed.start);
        appendBits(bytes, timed.duration);
    }
    return fingerprintBytes(bytes);
}

struct GoldenCase
{
    std::string name;
    Backend backend;
    LayeredCircuit circuit;
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    cases.push_back({"chain12-stride4", makeFakeLinear(12),
                     idleChain(12, 24, 4)});
    cases.push_back({"nnn10-stride3", nnnDevice(),
                     idleChain(10, 12, 3)});
    return cases;
}

/**
 * One line per compiled instance:
 * "<case> <strategy> native=<0|1> seed=<s> k=<k> n=<insts> <hash>",
 * identical across threads {1, 8} and prefix cache on/off (a
 * disagreement is reported as a failure, not captured).
 */
std::vector<std::string>
captureLines()
{
    constexpr int kInstances = 3;
    std::vector<std::string> lines;
    for (const GoldenCase &golden : goldenCases()) {
        for (Strategy strategy : allStrategies()) {
            for (bool native : {false, true}) {
                CompileOptions options;
                options.strategy = strategy;
                options.lowerToNative = native;
                PassManager pipeline = buildPipeline(options);
                for (std::uint64_t seed : {7ull, 2024ull}) {
                    std::vector<std::string> reference;
                    for (unsigned threads : {1u, 8u}) {
                        for (bool cache : {true, false}) {
                            EnsembleOptions run;
                            run.instances = kInstances;
                            run.seed = seed;
                            run.threads = threads;
                            run.prefixCache = cache;
                            const EnsembleResult result =
                                pipeline.runEnsemble(golden.circuit,
                                                     golden.backend,
                                                     run);
                            std::vector<std::string> got;
                            for (std::size_t k = 0;
                                 k < result.instances.size(); ++k) {
                                const ScheduledCircuit &s =
                                    result.instances[k].scheduled;
                                std::ostringstream line;
                                line << golden.name << " "
                                     << strategyName(strategy)
                                     << " native=" << native
                                     << " seed=" << seed << " k=" << k
                                     << " n=" << s.instructions().size()
                                     << " " << std::hex
                                     << std::setw(16)
                                     << std::setfill('0')
                                     << scheduleHash(s);
                                got.push_back(line.str());
                            }
                            if (reference.empty())
                                reference = got;
                            EXPECT_EQ(got, reference)
                                << golden.name << " "
                                << strategyName(strategy)
                                << " threads=" << threads
                                << " prefixCache=" << cache;
                        }
                    }
                    lines.insert(lines.end(), reference.begin(),
                                 reference.end());
                }
            }
        }
    }
    return lines;
}

TEST(DdGolden, NnnDeviceNeedsAThirdColour)
{
    // Guards the golden's coverage: the NNN case must drive CA-DD's
    // colouring past the two rows an echoed gate pins.
    const Backend backend = nnnDevice();
    const CrosstalkGraph graph = backend.crosstalkGraph();
    const ScheduledCircuit sched =
        scheduleASAP(idleChain(10, 12, 3).flatten(), backend.durations());
    int max_color = 0;
    for (const auto &group : collectJointDelays(sched, graph, 150.0)) {
        const ColoredGroup colored = colorGroup(group, sched, graph, 15);
        for (const auto &[q, c] : colored.colors)
            max_color = std::max(max_color, c);
    }
    EXPECT_GE(max_color, 3);
}

TEST(DdGolden, SchedulesMatchCommittedFingerprints)
{
    const std::vector<std::string> fresh = captureLines();

    std::ifstream in(std::string(CASQ_GOLDEN_DIR) + "/dd_schedules.txt");
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            golden.push_back(line);

    if (fresh != golden) {
        std::ofstream out("dd_schedules.actual.txt");
        for (const std::string &line : fresh)
            out << line << "\n";
    }
    ASSERT_FALSE(golden.empty())
        << "missing tests/golden/dd_schedules.txt";
    ASSERT_EQ(fresh.size(), golden.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(fresh[i], golden[i]) << "line " << i + 1;
}

} // namespace
} // namespace casq
