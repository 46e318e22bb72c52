/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are recorded around the benchmark's calls into each layer's
 * public functions: a span has a layer, a name, a start and end on
 * the steady clock, the id of the span that caused it (0 for a root
 * span) and an optional job id shared by every span of one request.
 * Spans stay in memory and are written once, at the end, as Chrome
 * trace-event JSON (chrome://tracing, Perfetto).
 *
 * A disabled tracer records nothing: Scope construction is a branch
 * on a bool, so untraced runs pay no clock reads.
 */

#ifndef CASQBENCH_TRACE_HH
#define CASQBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace casqbench {

struct Span
{
    std::string layer;
    std::string name;
    std::string job; //!< request id shared by the request's spans
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 = root
    std::uint32_t thread = 0;

    double durationUs() const { return endUs - startUs; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled; }

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    /**
     * Open a span; returns its id (0 when disabled).  The span is
     * recorded when end() is called with the returned id.
     */
    std::uint64_t begin(const std::string &layer,
                        const std::string &name,
                        std::uint64_t parent = 0,
                        const std::string &job = "");
    void end(std::uint64_t id);

    /** Span id registered for a job (0 when unknown). */
    std::uint64_t jobSpan(const std::string &job) const;
    void setJobSpan(const std::string &job, std::uint64_t id);

    /** RAII span; a no-op on a disabled tracer. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const std::string &layer,
              const std::string &name, std::uint64_t parent = 0,
              const std::string &job = "")
            : _tracer(tracer),
              _id(tracer.enabled()
                      ? tracer.begin(layer, name, parent, job)
                      : 0)
        {
        }
        ~Scope()
        {
            if (_id)
                _tracer.end(_id);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint64_t id() const { return _id; }

      private:
        Tracer &_tracer;
        std::uint64_t _id;
    };

    /** Finished spans, in completion order. */
    std::vector<Span> spans() const;

    /** Write every finished span as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool _enabled;
    std::chrono::steady_clock::time_point _epoch =
        std::chrono::steady_clock::now();

    mutable std::mutex _mutex;
    std::uint64_t _nextId = 1;
    std::map<std::uint64_t, Span> _open;
    std::vector<Span> _done;
    std::map<std::string, std::uint64_t> _jobSpans;
    std::map<std::thread::id, std::uint32_t> _threads;

    std::uint32_t threadIndex();
};

/** Per-layer sums derived from a span set. */
struct SpanSummary
{
    /** Self time per layer (span minus the part its children cover). */
    std::map<std::string, double> selfUs;

    /** Union of the root spans' intervals inside [from, to]. */
    double rootCoveredUs = 0.0;
};

/**
 * Self time of every layer over the spans whose start lies in
 * [fromUs, toUs], and the part of that window the root spans cover.
 */
SpanSummary summarizeSpans(const std::vector<Span> &spans,
                           double fromUs, double toUs);

} // namespace casqbench

#endif // CASQBENCH_TRACE_HH
