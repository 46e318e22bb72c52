/**
 * @file
 * Dense-substrate agreement with a committed capture.
 *
 * tests/golden/dense_agreement_hexfloat.txt holds hexfloat means and
 * standard errors of fused --backend dense ensemble estimates for
 * every stock strategy x {standard, coherent, standard+corr+drift,
 * pauli} noise, on four workloads: the casq_compile idle chain, the
 * same chain lowered to the native gate set, an SX-layer chain
 * (general one-qubit gates between the ECR layers) and the
 * dynamic-circuit twirl workload of workloads.hh (rzz, can, sx, a
 * mid-circuit measurement and a conditioned X).  The observables
 * are every Z_q plus one ZZ, one X and one Y string.
 *
 * The capture was taken from the eager statevector path, before the
 * dense backend deferred Pauli and diagonal operators (engine
 * numerics 1).  Any later numerics must stay within 1e-12 of it on
 * every mean and on every squared standard error.  Squared, because
 * a zero-spread estimate turns rounding of the variance into a
 * standard error of about 1e-8 through the square root.
 *
 * A missing or failing comparison writes the workload's fresh
 * capture to dense_agreement_hexfloat.<workload>.actual.txt in the
 * working directory.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "sim/noise_model.hh"
#include "workloads.hh"

namespace casq {
namespace {

constexpr const char *kGoldenFile = "dense_agreement_hexfloat.txt";
constexpr double kTolerance = 1e-12;

const char *const kNoises[] = {"standard", "coherent",
                               "standard+corr+drift", "pauli"};

/** One workload of the capture. */
struct Workload
{
    std::string name;
    LayeredCircuit circuit;
    bool native = false;
};

std::vector<PauliString>
agreementObservables(std::size_t n)
{
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < n; ++q)
        obs.push_back(PauliString::single(n, q, PauliOp::Z));
    PauliString zz = PauliString::single(n, 0, PauliOp::Z);
    zz.setOp(1, PauliOp::Z);
    obs.push_back(zz);
    obs.push_back(PauliString::single(n, 0, PauliOp::X));
    obs.push_back(PauliString::single(n, 1, PauliOp::Y));
    return obs;
}

/** Capture lines of one workload: one per (strategy, noise, obs). */
std::vector<std::string>
captureWorkload(const Workload &workload)
{
    const std::size_t n = workload.circuit.numQubits();
    const Backend backend = makeFakeLinear(n, 7);
    const std::vector<PauliString> obs = agreementObservables(n);
    std::vector<std::string> lines;
    for (Strategy strategy : allStrategies()) {
        CompileOptions options;
        options.strategy = strategy;
        options.lowerToNative = workload.native;
        PassManager pipeline = buildPipeline(options);
        for (const char *noise : kNoises) {
            SimulationEngine engine(backend,
                                    noiseModelFromRecipe(noise));
            EnsembleRunOptions run;
            run.instances = 4;
            run.compileSeed = 2024;
            run.trajectories = 24;
            run.seed = 2024;
            run.threads = 1;
            run.backend = SimBackendKind::Dense;
            const RunResult result = engine.runEnsemble(
                workload.circuit, pipeline, obs, run);
            for (std::size_t k = 0; k < obs.size(); ++k) {
                std::ostringstream line;
                line << workload.name << " " << strategyName(strategy)
                     << " " << noise << " " << obs[k].toString()
                     << std::hexfloat << " " << result.means[k] << " "
                     << result.stderrs[k];
                lines.push_back(line.str());
            }
        }
    }
    return lines;
}

/** A capture line split into its key and its two numbers. */
struct CaptureLine
{
    std::string key; //!< workload, strategy, noise and observable
    double mean = 0.0;
    double stderr_ = 0.0;
};

CaptureLine
parseLine(const std::string &line)
{
    std::istringstream fields(line);
    CaptureLine parsed;
    std::string part, mean, stderr_;
    for (int i = 0; i < 4 && fields >> part; ++i)
        parsed.key += (i ? " " : "") + part;
    fields >> mean >> stderr_;
    parsed.mean = std::strtod(mean.c_str(), nullptr);
    parsed.stderr_ = std::strtod(stderr_.c_str(), nullptr);
    return parsed;
}

/** The committed capture, keyed like CaptureLine::key. */
std::map<std::string, CaptureLine>
readCapture()
{
    std::ifstream in(std::string(CASQ_GOLDEN_DIR) + "/" + kGoldenFile);
    std::map<std::string, CaptureLine> capture;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#') {
            CaptureLine parsed = parseLine(line);
            capture[parsed.key] = parsed;
        }
    }
    return capture;
}

void
expectAgreesWithCapture(const Workload &workload)
{
    static const auto capture = readCapture();
    const std::vector<std::string> fresh = captureWorkload(workload);
    bool all_ok = !capture.empty();
    for (const std::string &line : fresh) {
        const CaptureLine now = parseLine(line);
        const auto it = capture.find(now.key);
        if (it == capture.end()) {
            all_ok = false;
            ADD_FAILURE() << "no committed capture for '" << now.key
                          << "'";
            continue;
        }
        const CaptureLine &then = it->second;
        const bool ok =
            std::abs(now.mean - then.mean) <= kTolerance &&
            std::abs(now.stderr_ * now.stderr_ -
                     then.stderr_ * then.stderr_) <= kTolerance;
        all_ok = all_ok && ok;
        EXPECT_TRUE(ok) << now.key << ": mean " << now.mean << " vs "
                        << then.mean << ", stderr " << now.stderr_
                        << " vs " << then.stderr_;
    }
    if (!all_ok) {
        std::ofstream out("dense_agreement_hexfloat." + workload.name +
                          ".actual.txt");
        for (const std::string &line : fresh)
            out << line << "\n";
    }
    ASSERT_FALSE(capture.empty()) << "missing tests/golden/"
                                  << kGoldenFile;
}

TEST(DenseAgreement, IdleChain)
{
    expectAgreesWithCapture(
        {"idle-chain", bench::syntheticChainWorkload(6, 8, true)});
}

TEST(DenseAgreement, IdleChainNative)
{
    expectAgreesWithCapture(
        {"idle-chain-native", bench::syntheticChainWorkload(6, 8, true),
         true});
}

TEST(DenseAgreement, SxChain)
{
    expectAgreesWithCapture(
        {"sx-chain", bench::syntheticChainWorkload(6, 6, false)});
}

TEST(DenseAgreement, DynamicTwirlWorkload)
{
    expectAgreesWithCapture({"dynamic", twirlWorkload()});
}

} // namespace
} // namespace casq
