#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

namespace casqbench {

namespace {

/** Length of the union of intervals, each clipped to [lo, hi]. */
double
unionLength(std::vector<std::pair<double, double>> intervals,
            double lo, double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            cursor = b;
        }
    }
    return covered;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

} // namespace

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _epoch)
        .count();
}

std::uint32_t
Tracer::threadIndex()
{
    const auto [it, inserted] = _threads.emplace(
        std::this_thread::get_id(), std::uint32_t(_threads.size()));
    (void)inserted;
    return it->second;
}

std::uint64_t
Tracer::begin(const std::string &layer, const std::string &name,
              std::uint64_t parent, const std::string &job)
{
    if (!_enabled)
        return 0;
    Span span;
    span.layer = layer;
    span.name = name;
    span.job = job;
    span.parent = parent;
    const double now = nowUs();
    std::lock_guard<std::mutex> lock(_mutex);
    span.id = _nextId++;
    span.thread = threadIndex();
    span.startUs = now;
    const std::uint64_t id = span.id;
    _open.emplace(id, std::move(span));
    return id;
}

void
Tracer::end(std::uint64_t id)
{
    const double now = nowUs();
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _open.find(id);
    if (it == _open.end())
        return;
    it->second.endUs = now;
    _done.push_back(std::move(it->second));
    _open.erase(it);
}

std::uint64_t
Tracer::jobSpan(const std::string &job) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _jobSpans.find(job);
    return it == _jobSpans.end() ? 0 : it->second;
}

void
Tracer::setJobSpan(const std::string &job, std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _jobSpans[job] = id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _done;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span &span : spans()) {
        char times[96];
        std::snprintf(times, sizeof(times),
                      "\"ts\":%.3f,\"dur\":%.3f", span.startUs,
                      span.durationUs());
        out << (first ? "\n" : ",\n") << "{\"name\":\""
            << jsonEscape(span.name) << "\",\"cat\":\""
            << jsonEscape(span.layer) << "\",\"ph\":\"X\","
            << times << ",\"pid\":1,\"tid\":" << span.thread
            << ",\"args\":{\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"job\":\""
            << jsonEscape(span.job) << "\"}}";
        first = false;
    }
    out << "\n]}\n";
    return bool(out);
}

SpanSummary
summarizeSpans(const std::vector<Span> &spans, double fromUs,
               double toUs)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>>
        children;
    std::vector<std::pair<double, double>> roots;
    for (const Span &span : spans) {
        if (span.startUs < fromUs || span.startUs > toUs)
            continue;
        if (span.parent)
            children[span.parent].emplace_back(span.startUs,
                                               span.endUs);
        else
            roots.emplace_back(span.startUs, span.endUs);
    }
    SpanSummary summary;
    for (const Span &span : spans) {
        if (span.startUs < fromUs || span.startUs > toUs)
            continue;
        double covered = 0.0;
        const auto it = children.find(span.id);
        if (it != children.end())
            covered = unionLength(it->second, span.startUs,
                                  span.endUs);
        summary.selfUs[span.layer] += span.durationUs() - covered;
    }
    summary.rootCoveredUs = unionLength(roots, fromUs, toUs);
    return summary;
}

} // namespace casqbench
