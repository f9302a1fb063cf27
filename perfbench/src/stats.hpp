// Summary helpers of the benchmark: percentiles, the tail-percentile rule,
// open-loop latency records and the Chrome trace-event span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile `p` in (0, 100] of an unsorted sample (0 when
/// empty): the value at sorted index ceil(p/100 * n) - 1.
double percentile(std::vector<double> values, double p);

/// Samples strictly above the nearest-rank index of percentile `p`.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of p99.9 / p99 / p90 / p75 with at least ten samples beyond
/// it; 50 (the median alone) when fewer than 40 samples support no tail.
double tail_percentile(std::size_t n);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// One open-loop operation. Latency counts from the time the operation was
/// due, so a generator stall shows up in every later operation it delays;
/// lateness is how far behind schedule the generator sent it.
struct OpenLoopRecord {
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point done;

    double latency_ms() const { return ms_between(due, done); }
    double lateness_ms() const { return ms_between(due, sent); }
};

struct OpenLoopSummary {
    std::size_t count = 0;
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double lateness_p50_ms = 0.0;
    double lateness_p99_ms = 0.0;
    double lateness_max_ms = 0.0;
};

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopRecord>& records);

/// In-memory span recorder written out as Chrome trace-event JSON, which
/// Perfetto opens. Spans wrap the benchmark's own calls into the library;
/// a null Tracer* records nothing, so untraced runs pay only a branch.
class Tracer {
public:
    struct Span {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;            ///< index of the enclosing span, or -1
        std::uint64_t request = 0;  ///< operation id shared by a request's spans
    };

    Tracer() : origin_(Clock::now()) {}

    /// Record a finished span; returns its index (a parent for later spans).
    int record(std::string name, Clock::time_point start, Clock::time_point end,
               int parent = -1, std::uint64_t request = 0);

    /// Close a span recorded with end == start (children recorded before
    /// their parent finishes name it by this index).
    void set_end(int span, Clock::time_point end) {
        spans_[static_cast<std::size_t>(span)].end = end;
    }

    std::size_t size() const { return spans_.size(); }

    /// Write {"traceEvents": [...]} with one complete ("X") event per span.
    /// Overlapping top-level spans go to separate tracks (tids); a child is
    /// drawn on its parent's track. Returns false if the file can't be written.
    bool write_chrome_json(const std::string& path) const;

private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// Time `fn()` as a span named `name` when `tracer` is set; always returns
/// the measured duration in ms.
template <typename Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn, int parent = -1,
             std::uint64_t request = 0) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->record(name, t0, t1, parent, request);
    return ms_between(t0, t1);
}

/// Runs the summary helpers against hand-computed cases; prints each
/// failure to stderr and returns false if any.
bool self_check();

}  // namespace perfbench
