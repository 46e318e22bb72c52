/**
 * @file
 * Shared helpers for the figure-reproduction benches: command-line
 * overrides for trajectory counts (so CI can run fast while full
 * runs stay accurate) and small formatting utilities.
 */

#ifndef CASQ_BENCH_BENCH_COMMON_HH
#define CASQ_BENCH_BENCH_COMMON_HH

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "passes/pipeline.hh"

namespace casq::bench {

/**
 * Quote and escape a string for JSON emission.  Every string the
 * BENCH_*.json writer outputs -- field values, field keys, and the
 * bench name -- goes through this one helper, so no caller can
 * leak an unescaped quote, backslash, or control character into
 * the artifacts CI consumes.
 */
inline std::string
jsonQuote(const std::string &text)
{
    std::string quoted = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            quoted += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            quoted += buf;
        } else {
            quoted += c;
        }
    }
    quoted += '"';
    return quoted;
}

/**
 * Ordered key/value field list of one JSON object.  Insertion order
 * is emission order, so output is deterministic and diffs clean.
 */
class JsonFields
{
  public:
    JsonFields &
    add(const std::string &key, const std::string &value)
    {
        return raw(key, jsonQuote(value));
    }

    JsonFields &
    add(const std::string &key, const char *value)
    {
        return add(key, std::string(value));
    }

    JsonFields &
    add(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Fixed-point double, explicit precision (schema stability). */
    JsonFields &
    add(const std::string &key, double value, int precision)
    {
        std::ostringstream os;
        os.setf(std::ios::fixed);
        os.precision(precision);
        os << value;
        return raw(key, os.str());
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    JsonFields &
    add(const std::string &key, T value)
    {
        return raw(key, std::to_string(value));
    }

    /** Nested object. */
    JsonFields &
    add(const std::string &key, const JsonFields &object)
    {
        std::string text = "{";
        for (std::size_t f = 0; f < object._fields.size(); ++f)
            text += (f ? ", " : "") + jsonQuote(object._fields[f].first) +
                    ": " + object._fields[f].second;
        return raw(key, text + "}");
    }

    const std::vector<std::pair<std::string, std::string>> &
    fields() const
    {
        return _fields;
    }

  private:
    std::vector<std::pair<std::string, std::string>> _fields;

    JsonFields &
    raw(const std::string &key, std::string value)
    {
        _fields.emplace_back(key, std::move(value));
        return *this;
    }
};

/**
 * The one BENCH_*.json schema every self-timed bench emits: a
 * top-level object with the bench name, the bench's meta fields
 * (workload shape), and a "samples" array with one object per
 * measured configuration.  perf_ensemble, perf_executor and
 * perf_shard all write through this helper, so CI consumers parse
 * a single format.
 */
class BenchJsonWriter
{
  public:
    explicit BenchJsonWriter(std::string bench)
        : _bench(std::move(bench))
    {
    }

    /** Top-level workload-shape fields (qubits, depth, ...). */
    JsonFields &meta() { return _meta; }

    /** Append one measured configuration. */
    JsonFields &
    newSample()
    {
        _samples.emplace_back();
        return _samples.back();
    }

    /** Emit the file, or exit(1) like a failed measurement. */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot write " << path << "\n";
            std::exit(1);
        }
        out << "{\n  \"bench\": " << jsonQuote(_bench) << ",\n";
        for (const auto &[key, value] : _meta.fields())
            out << "  " << jsonQuote(key) << ": " << value
                << ",\n";
        out << "  \"samples\": [\n";
        for (std::size_t i = 0; i < _samples.size(); ++i) {
            out << "    {";
            const auto &fields = _samples[i].fields();
            for (std::size_t f = 0; f < fields.size(); ++f)
                out << jsonQuote(fields[f].first) << ": "
                    << fields[f].second
                    << (f + 1 < fields.size() ? ", " : "");
            out << "}" << (i + 1 < _samples.size() ? "," : "")
                << "\n";
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << path << "\n";
    }

  private:
    std::string _bench;
    JsonFields _meta;
    std::vector<JsonFields> _samples;
};

// ---------------------------------------- checked flag parsing
//
// `std::atoi`-style parsing silently turned `--shards junk` into 0
// and `--instances -3` into a negative count that only failed far
// downstream.  Every numeric CLI flag of the tools and benches goes
// through these helpers instead: the whole token must parse and lie
// in the stated range, or the process prints a diagnostic naming
// the flag and exits nonzero.

/** Parse an integer flag value in [min, max] or exit(1). */
inline long long
checkedInt(const char *flag, const char *text, long long min_value,
           long long max_value)
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE ||
        v < min_value || v > max_value) {
        std::cerr << flag << ": expected an integer in ["
                  << min_value << ", " << max_value << "], got '"
                  << text << "'\n";
        std::exit(1);
    }
    return v;
}

/** Parse a full-range unsigned 64-bit flag (seeds) or exit(1). */
inline std::uint64_t
checkedUInt64(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // strtoull silently wraps negative input; reject the sign.
    if (end == text || *end != '\0' || errno == ERANGE ||
        text[0] == '-') {
        std::cerr << flag
                  << ": expected a non-negative integer, got '"
                  << text << "'\n";
        std::exit(1);
    }
    return std::uint64_t(v);
}

/** Parse a finite positive double flag (scales) or exit(1). */
inline double
checkedPositiveDouble(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !(v > 0.0) || v > 1e12) {
        std::cerr << flag
                  << ": expected a positive number, got '" << text
                  << "'\n";
        std::exit(1);
    }
    return v;
}

/** Parse a finite double flag of at least min_value or exit(1). */
inline double
checkedDoubleAtLeast(const char *flag, const char *text,
                     double min_value)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < min_value) {
        std::cerr << flag << ": expected a finite number >= "
                  << min_value << ", got '" << text << "'\n";
        std::exit(1);
    }
    return v;
}

/**
 * Split a comma-separated list flag (e.g. --threads-list 1,2,8)
 * into checked integers in [min, max]; empty items or an empty
 * list are rejected like any other malformed value.
 */
inline std::vector<long long>
checkedIntList(const char *flag, const char *text,
               long long min_value, long long max_value)
{
    std::vector<long long> values;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        values.push_back(checkedInt(flag, item.c_str(), min_value,
                                    max_value));
    // getline never yields the final empty item, so a trailing
    // comma would otherwise slip through where ",1" and "1,,2"
    // are rejected.
    const std::size_t len = std::strlen(text);
    if (values.empty() || (len > 0 && text[len - 1] == ',')) {
        std::cerr << flag << ": expected a comma-separated list, "
                  << "got '" << text << "'\n";
        std::exit(1);
    }
    return values;
}

/** Runtime knobs shared by all figure benches. */
struct BenchConfig
{
    int trajectories = 160;   //!< per data point
    int twirlInstances = 8;   //!< twirled circuit variants
    std::uint64_t seed = 2024;
    double scale = 1.0;       //!< workload scale (depth sweeps)
    unsigned threads = 1;     //!< fused compile+simulate workers
                              //!< (0 = one per core); results are
                              //!< identical for every value

    /** When set, benches skip every other strategy's curves. */
    std::optional<Strategy> onlyStrategy;

    /** True when the strategy's curve should be computed. */
    bool
    wantsStrategy(Strategy strategy) const
    {
        return !onlyStrategy || *onlyStrategy == strategy;
    }
};

/**
 * Parse --traj N, --twirls N, --seed N, --scale X, --threads N,
 * and --strategy NAME flags plus the CASQ_TRAJ environment
 * variable (lowest precedence).
 */
inline BenchConfig
parseArgs(int argc, char **argv)
{
    BenchConfig config;
    constexpr long long kMaxInt =
        std::numeric_limits<int>::max();
    if (const char *env = std::getenv("CASQ_TRAJ"))
        config.trajectories =
            int(checkedInt("CASQ_TRAJ", env, 1, kMaxInt));
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (const char *v = next("--traj"))
            config.trajectories =
                int(checkedInt("--traj", v, 1, kMaxInt));
        else if (const char *v = next("--twirls"))
            config.twirlInstances =
                int(checkedInt("--twirls", v, 1, kMaxInt));
        else if (const char *v = next("--seed"))
            config.seed = checkedUInt64("--seed", v);
        else if (const char *v = next("--scale"))
            config.scale = checkedPositiveDouble("--scale", v);
        else if (const char *v = next("--threads"))
            config.threads = unsigned(
                checkedInt("--threads", v, 0, 4096));
        else if (const char *v = next("--strategy")) {
            config.onlyStrategy = strategyFromName(v);
            if (!config.onlyStrategy) {
                std::cerr << "unknown strategy '" << v << "'; known:";
                for (Strategy s : allStrategies())
                    std::cerr << " " << strategyName(s);
                std::cerr << "\n";
                std::exit(1);
            }
        }
    }
    return config;
}

/** Print the paper's reference values for comparison. */
inline void
paperReference(const std::string &text)
{
    std::cout << "paper reference: " << text << "\n\n";
}

/**
 * True when at least one of the bench's curves passes the
 * --strategy filter; otherwise prints a notice so the bench does
 * not silently emit an empty figure.
 */
inline bool
anyStrategyMatches(const BenchConfig &config,
                   const std::vector<Strategy> &curves)
{
    for (Strategy strategy : curves)
        if (config.wantsStrategy(strategy))
            return true;
    std::cout << "(--strategy "
              << strategyName(*config.onlyStrategy)
              << " matches no curve of this bench)\n";
    return false;
}

/**
 * Alternating two-qubit / single-qubit layers on a chain of n
 * qubits: ECR gates on a parity-staggered quarter of the couplers,
 * then either an SX layer (gate-dense workloads) or a delay layer
 * (idle-context workloads) on every qubit.  Shared by perf_passes
 * and the casq_compile CLI so both exercise the same shape.
 */
inline LayeredCircuit
syntheticChainWorkload(std::size_t n, int depth, bool idle_layers,
                       double idle_ns = 600.0)
{
    LayeredCircuit circuit(n, 0);
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        const std::uint32_t offset = (d % 2) ? 1 : 0;
        for (std::uint32_t q = offset; q + 1 < n; q += 4)
            gates.insts.emplace_back(
                Op::ECR, std::vector<std::uint32_t>{q, q + 1});
        circuit.addLayer(std::move(gates));
        Layer ones{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < n; ++q) {
            if (idle_layers)
                ones.insts.emplace_back(
                    Op::Delay, std::vector<std::uint32_t>{q},
                    std::vector<double>{idle_ns});
            else
                ones.insts.emplace_back(
                    Op::SX, std::vector<std::uint32_t>{q});
        }
        circuit.addLayer(std::move(ones));
    }
    return circuit;
}

} // namespace casq::bench

#endif // CASQ_BENCH_BENCH_COMMON_HH
