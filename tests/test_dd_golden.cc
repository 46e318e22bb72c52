/**
 * @file
 * Golden schedule fingerprints of the stock compile pipelines.
 *
 * tests/golden/dd_schedules.txt holds one exact hash per compiled
 * instance over every field of every timed instruction (op, qubits,
 * parameter bits, cbit/condition, tag, start and duration bits),
 * captured before the DD passes were reworked for speed.  Any change
 * to DD insertion, grouping, colouring or pulse placement that moves
 * a single bit of a schedule fails here.  The captures must hold for
 * every thread count and with the ensemble prefix cache on or off.
 *
 * tests/golden/twirl_reference_schedules.txt pins the twirl and
 * CA-EC orderings the same way: it was captured from the historical
 * compile path that twirled before lowering (Pauli frames sampled on
 * the layered circuit, Algorithm 2 walked over the layered twirled
 * circuit) before that path was retired.  Each line also records
 * the pass-published twirl-gate count and CA-EC statistics.  The
 * stock pipeline (frames sampled after lowering, the compensation
 * walk on the flat stream) must keep reproducing it.
 *
 * On a mismatch the fresh capture is written to
 * <golden>.actual.txt in the working directory for inspection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/serialize.hh"
#include "passes/builtin.hh"
#include "passes/pipeline.hh"
#include "workloads.hh"

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

/** Non-comment lines of a committed golden file. */
std::vector<std::string>
readGolden(const std::string &file)
{
    std::ifstream in(std::string(CASQ_GOLDEN_DIR) + "/" + file);
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            golden.push_back(line);
    return golden;
}

/**
 * Compare a fresh capture against a committed golden file line by
 * line, writing <stem>.actual.txt on a mismatch.
 */
void
expectMatchesGolden(const std::vector<std::string> &fresh,
                    const std::vector<std::string> &golden,
                    const std::string &file)
{
    if (fresh != golden) {
        const std::string stem = file.substr(0, file.rfind('.'));
        std::ofstream out(stem + ".actual.txt");
        for (const std::string &line : fresh)
            out << line << "\n";
    }
    ASSERT_FALSE(golden.empty()) << "missing tests/golden/" << file;
    ASSERT_EQ(fresh.size(), golden.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(fresh[i], golden[i]) << file << " line " << i + 1;
}

TEST(DdGolden, SchedulesMatchCommittedFingerprints)
{
    expectMatchesGolden(captureLines(), readGolden("dd_schedules.txt"),
                        "dd_schedules.txt");
}

// ------------------------------------------------------------------
// Twirl and CA-EC reference (workloads from workloads.hh).
// ------------------------------------------------------------------

/**
 * Partial barriers inside layers: the two-qubit layer holds
 * ECR(0,1) next to a barrier on (2,3), and a later one-qubit layer
 * holds a barrier on (0,1) next to sx gates.  Only all-qubit
 * barriers separate layers, so neither shifts the layer recovery.
 */
LayeredCircuit
partialBarrierWorkload()
{
    LayeredCircuit circuit(4, 0);

    Layer gates{LayerKind::TwoQubit, {}};
    gates.insts.emplace_back(Op::ECR,
                             std::vector<std::uint32_t>{0, 1});
    gates.insts.emplace_back(Op::Barrier,
                             std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(gates));

    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 4; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{600.0});
    circuit.addLayer(std::move(idle));

    Layer ones{LayerKind::OneQubit, {}};
    ones.insts.emplace_back(Op::Barrier,
                            std::vector<std::uint32_t>{0, 1});
    ones.insts.emplace_back(Op::SX, std::vector<std::uint32_t>{2});
    ones.insts.emplace_back(Op::SX, std::vector<std::uint32_t>{3});
    circuit.addLayer(std::move(ones));

    Layer tail{LayerKind::TwoQubit, {}};
    tail.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{2, 3});
    tail.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{1, 0});
    circuit.addLayer(std::move(tail));

    return circuit;
}

/**
 * One golden compile configuration.  instances == 0 compiles once
 * through PassManager::compile() with Rng(seed) (the single-shot
 * compileCircuit() path); instances > 0 runs an ensemble.
 */
struct ReferenceRun
{
    std::string name;
    const LayeredCircuit *circuit;
    const Backend *backend;
    Strategy strategy;
    bool native;
    bool twirl;
    std::uint64_t seed;
    int instances;
};

/** "<pre-lowering twirl gates> <CaecStats fields>" of a result. */
std::string
publishedCounts(const CompilationResult &result)
{
    std::ostringstream os;
    if (const auto &gates = result.artifacts.twirlGates)
        os << "twirl_gates=" << *gates;
    else
        os << "twirl_gates=-";
    if (const auto &stats = result.artifacts.caecStats)
        os << " caec=" << stats->absorbedIntoGates << "/"
           << stats->insertedRz << "/" << stats->insertedRzz << "/"
           << stats->conditionalRz << "/" << stats->flushedEarly;
    else
        os << " caec=-";
    return os.str();
}

/**
 * One line per compiled instance:
 * "<case> <strategy> native=<0|1> twirl=<0|1> (rng=<s> | seed=<s>
 * k=<k>) n=<insts> twirl_gates=<g> caec=<absorbed/rz/rzz/cond/
 * flushed> <hash>".  Ensembles must agree across threads {1, 8}
 * and prefix cache on/off (a disagreement is reported as a
 * failure, not captured).
 */
std::vector<std::string>
captureRun(const ReferenceRun &run)
{
    CompileOptions options;
    options.strategy = run.strategy;
    options.lowerToNative = run.native;
    options.twirl = run.twirl;
    PassManager pipeline = buildPipeline(options);

    const auto line = [&](const std::string &which,
                          const CompilationResult &result) {
        std::ostringstream os;
        os << run.name << " " << strategyName(run.strategy)
           << " native=" << run.native << " twirl=" << run.twirl
           << " " << which
           << " n=" << result.scheduled.instructions().size() << " "
           << publishedCounts(result) << " " << std::hex
           << std::setw(16) << std::setfill('0')
           << scheduleHash(result.scheduled);
        return os.str();
    };

    if (run.instances == 0) {
        Rng rng(run.seed);
        return {line("rng=" + std::to_string(run.seed),
                     pipeline.compile(*run.circuit, *run.backend,
                                      rng))};
    }

    std::vector<std::string> reference;
    for (unsigned threads : {1u, 8u}) {
        for (bool cache : {true, false}) {
            EnsembleOptions ensemble;
            ensemble.instances = run.instances;
            ensemble.seed = run.seed;
            ensemble.threads = threads;
            ensemble.prefixCache = cache;
            const EnsembleResult result = pipeline.runEnsemble(
                *run.circuit, *run.backend, ensemble);
            std::vector<std::string> got;
            for (std::size_t k = 0; k < result.instances.size(); ++k)
                got.push_back(line("seed=" + std::to_string(run.seed) +
                                       " k=" + std::to_string(k),
                                   result.instances[k]));
            if (reference.empty())
                reference = got;
            EXPECT_EQ(got, reference)
                << run.name << " " << strategyName(run.strategy)
                << " threads=" << threads << " prefixCache=" << cache;
        }
    }
    return reference;
}

std::vector<std::string>
captureTwirlReference()
{
    const Backend chain4 = makeFakeLinear(4, 1);
    const Backend chain5 = makeFakeLinear(5, 7);
    const LayeredCircuit equivalence = equivalenceWorkload();
    const LayeredCircuit late = twirlWorkload();
    const LayeredCircuit walk = caecWalkWorkload();
    const LayeredCircuit barriers = partialBarrierWorkload();

    std::vector<ReferenceRun> runs;
    // Single-shot compiles of every strategy, untwirled and twirled.
    for (Strategy strategy : allStrategies())
        for (bool twirl : {false, true})
            runs.push_back({"equivalence", &equivalence, &chain4,
                            strategy, false, twirl, 42, 0});
    for (Strategy strategy : {Strategy::Ec, Strategy::CaDd})
        runs.push_back({"equivalence", &equivalence, &chain4,
                        strategy, true, true, 7, 0});
    runs.push_back({"equivalence", &equivalence, &chain4,
                    Strategy::Combined, false, true, 2024, 4});
    for (Strategy strategy : allStrategies())
        for (bool native : {false, true})
            runs.push_back({"late-twirl", &late, &chain5, strategy,
                            native, true, 2024, 6});
    for (Strategy strategy :
         {Strategy::Ec, Strategy::EcAlignedDd, Strategy::Combined})
        for (bool native : {false, true})
            runs.push_back({"caec-walk", &walk, &chain5, strategy,
                            native, true, 4242, 6});
    for (Strategy strategy : allStrategies())
        for (bool native : {false, true})
            runs.push_back({"partial-barrier", &barriers, &chain4,
                            strategy, native, true, 7, 3});

    std::vector<std::string> lines;
    for (const ReferenceRun &run : runs) {
        const std::vector<std::string> got = captureRun(run);
        lines.insert(lines.end(), got.begin(), got.end());
    }
    return lines;
}

TEST(DdGolden, TwirlReferenceMatchesCommittedFingerprints)
{
    expectMatchesGolden(captureTwirlReference(),
                        readGolden("twirl_reference_schedules.txt"),
                        "twirl_reference_schedules.txt");
}

} // namespace
} // namespace casq
