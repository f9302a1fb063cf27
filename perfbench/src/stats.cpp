#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>

namespace perfbench {

namespace {

std::size_t nearest_rank_index(std::size_t n, double p) {
    // The epsilon keeps exact ranks exact (99.9% of 10000 is 9990, not 9991).
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return std::min(idx, n - 1);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    const std::size_t idx = nearest_rank_index(values.size(), p);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(idx),
                     values.end());
    return values[idx];
}

std::size_t samples_beyond(std::size_t n, double p) {
    if (n == 0) return 0;
    return n - 1 - nearest_rank_index(n, p);
}

double tail_percentile(std::size_t n) {
    if (n < 40) return 50.0;
    for (double p : {99.9, 99.0, 90.0, 75.0})
        if (samples_beyond(n, p) >= 10) return p;
    return 50.0;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopRecord>& records) {
    OpenLoopSummary s;
    s.count = records.size();
    std::vector<double> latency, lateness;
    latency.reserve(records.size());
    lateness.reserve(records.size());
    for (const OpenLoopRecord& r : records) {
        latency.push_back(r.latency_ms());
        lateness.push_back(r.lateness_ms());
    }
    s.latency_p50_ms = percentile(latency, 50.0);
    s.latency_p99_ms = percentile(latency, 99.0);
    s.lateness_p50_ms = percentile(lateness, 50.0);
    s.lateness_p99_ms = percentile(lateness, 99.0);
    s.lateness_max_ms =
        lateness.empty() ? 0.0 : *std::max_element(lateness.begin(), lateness.end());
    return s;
}

int Tracer::record(std::string name, Clock::time_point start, Clock::time_point end,
                   int parent, std::uint64_t request) {
    spans_.push_back(Span{std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    // Greedy interval colouring of the top-level spans onto tracks, so that
    // concurrent requests never overlap on one tid (Perfetto nests "X"
    // events of one thread by time).
    std::vector<int> order;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent < 0) order.push_back(static_cast<int>(i));
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return spans_[static_cast<std::size_t>(a)].start <
               spans_[static_cast<std::size_t>(b)].start;
    });
    std::vector<int> track(spans_.size(), 0);
    std::vector<Clock::time_point> track_end;
    for (int i : order) {
        const Span& s = spans_[static_cast<std::size_t>(i)];
        std::size_t t = 0;
        while (t < track_end.size() && track_end[t] > s.start) ++t;
        if (t == track_end.size()) track_end.push_back(s.end);
        else track_end[t] = s.end;
        track[static_cast<std::size_t>(i)] = static_cast<int>(t);
    }
    auto root_track = [&](std::size_t i) {
        int cur = static_cast<int>(i);
        for (int hops = 0; spans_[static_cast<std::size_t>(cur)].parent >= 0 &&
                           hops < static_cast<int>(spans_.size());
             ++hops)
            cur = spans_[static_cast<std::size_t>(cur)].parent;
        return track[static_cast<std::size_t>(cur)];
    };

    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const double ts = std::chrono::duration<double, std::micro>(s.start - origin_).count();
        const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%llu}}%s\n",
                      s.name.c_str(), root_track(i), ts, dur, i, s.parent,
                      static_cast<unsigned long long>(s.request),
                      i + 1 < spans_.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

bool self_check() {
    bool ok = true;
    auto expect = [&](bool cond, const char* what) {
        if (!cond) {
            std::cerr << "self-check failed: " << what << "\n";
            ok = false;
        }
    };

    std::vector<double> hundred(100);
    for (int i = 0; i < 100; ++i) hundred[static_cast<std::size_t>(i)] = 100.0 - i;
    expect(percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
    expect(percentile(hundred, 90.0) == 90.0, "p90 of 1..100 is 90");
    expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
    expect(percentile({7.0}, 99.0) == 7.0, "any percentile of one sample is it");
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.0, "nearest-rank median of four is the lower");

    expect(samples_beyond(1000, 99.0) == 10, "p99 of 1000 leaves 10 beyond");
    expect(samples_beyond(999, 99.0) == 9, "p99 of 999 leaves 9 beyond");
    expect(tail_percentile(39) == 50.0, "under 40 samples: median alone");
    expect(tail_percentile(40) == 75.0, "40 samples support p75");
    expect(tail_percentile(99) == 75.0, "99 samples do not support p90");
    expect(tail_percentile(100) == 90.0, "100 samples support p90");
    expect(tail_percentile(999) == 90.0, "999 samples do not support p99");
    expect(tail_percentile(1000) == 99.0, "1000 samples support p99");
    expect(tail_percentile(10000) == 99.9, "10000 samples support p99.9");

    // Open loop: due every 10 ms, 2 ms service once sent. The generator
    // stalls from 30 to 55 ms, so operations 3, 4 and 5 go out late; their
    // latency must count from the due time, not the send time.
    const Clock::time_point t0{};
    auto at = [&](double ms) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
    };
    std::vector<OpenLoopRecord> records;
    for (int i = 0; i < 10; ++i) {
        const double due = 10.0 * i;
        const double sent = (i >= 3 && i <= 5) ? 55.0 : due;
        records.push_back(OpenLoopRecord{at(due), at(sent), at(sent + 2.0)});
    }
    auto near = [](double a, double b) { return std::abs(a - b) < 1e-6; };
    expect(near(records[3].latency_ms(), 27.0), "stalled op latency counts from due");
    expect(near(records[4].latency_ms(), 17.0), "later op absorbs the stall");
    expect(near(records[3].lateness_ms(), 25.0), "lateness is sent minus due");
    const OpenLoopSummary s = summarize_open_loop(records);
    expect(s.count == 10, "open-loop count");
    expect(near(s.latency_p50_ms, 2.0), "open-loop p50");
    expect(near(s.latency_p99_ms, 27.0), "open-loop p99 is the stalled op");
    expect(near(s.lateness_p50_ms, 0.0), "on-time median lateness");
    expect(near(s.lateness_p99_ms, 25.0), "p99 lateness of ten is the worst");
    expect(near(s.lateness_max_ms, 25.0), "max lateness is the stall");
    return ok;
}

}  // namespace perfbench
