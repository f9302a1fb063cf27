// Shared run interface of the three workloads: arguments, the result every
// run reports, and helpers for the correctness checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/salo.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
};

struct ReportLine {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// End-to-end metrics by BENCHMARK.json name (always measured).
    std::map<std::string, double> end_to_end;
    /// Per-layer metrics by BENCHMARK.json name (traced runs only); a layer
    /// the workload never calls is reported as 0.
    std::map<std::string, double> per_layer;
    /// The workload's own named figures, printed as human-readable lines.
    std::vector<ReportLine> report;
    std::vector<std::string> check_failures;

    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        check_failures.push_back(what);
    }
    void note(std::string name, double value, std::string unit) {
        report.push_back(ReportLine{std::move(name), value, std::move(unit)});
    }
};

RunResult run_paper_layers(const RunArgs& args, Tracer* tracer);
RunResult run_serving_mix(const RunArgs& args, Tracer* tracer);
RunResult run_decode_online(const RunArgs& args, Tracer* tracer);

/// End-to-end quantization tolerance of the datapath against the float
/// oracle on quantized inputs (tests/test_sim.cpp, kTolerance).
constexpr double kQuantTolerance = 0.12;

/// Execution lanes every workload may use: the host's, capped at 4.
inline int host_lanes() {
    const unsigned hc = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hc), 1, 4);
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// CPU time (user + system) this process has used so far, in seconds. The
/// kernel leaves out time a virtual machine's host took back (steal), so on
/// a shared host it repeats where wall-clock time does not.
double process_cpu_s();

/// CPU time the calling thread has used so far, in seconds.
double thread_cpu_s();

/// Measures the CPU the library's own threads spend over an interval: the
/// process's CPU minus the calling (load-generator) thread's.
class LibraryCpu {
public:
    LibraryCpu() : process_(process_cpu_s()), thread_(thread_cpu_s()) {}
    double seconds() const {
        return (process_cpu_s() - process_) - (thread_cpu_s() - thread_);
    }

private:
    double process_;
    double thread_;
};

/// Set-up cost: the process CPU seconds of each timed build of a session
/// or tier, reported as their mean. One build runs tens of percent faster
/// or slower from one second to the next with the host's load, so a run
/// times many builds, spread through the run where the workload pauses.
struct SetupCost {
    double total_s = 0.0;
    int builds = 0;

    double mean_s() const { return builds == 0 ? 0.0 : total_s / builds; }

    /// Times one build by `make()` and returns what it built; destroying
    /// it is left to the caller, outside the timed part.
    template <typename Make>
    auto time(Tracer* tracer, Make&& make) {
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = process_cpu_s();
        auto built = make();
        total_s += process_cpu_s() - cpu0;
        ++builds;
        if (tracer != nullptr) tracer->record("setup", t0, Clock::now());
        return built;
    }
};

/// Builds timed before the measured window where more follow in its pauses.
constexpr int kSetupBuildsBefore = 5;

/// Derive an independent stream seed from the run seed and a salt.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    salo::Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
    return rng.next_u64();
}

/// Bitwise equality of two float tensors of the same shape.
bool same_bits(const salo::Tensor3<float>& a, const salo::Tensor3<float>& b);

/// Largest |out - golden| over every head, where golden is the float oracle
/// SaloEngine::golden on the quantize/dequantize round trip of the inputs
/// (with `scale` folded into Q as the engine does), so the figure isolates
/// datapath error from input quantization. Heads run on up to `threads`.
double golden_max_error(const salo::HybridPattern& pattern, const salo::Tensor3<float>& q,
                        const salo::Tensor3<float>& k, const salo::Tensor3<float>& v,
                        float scale, const salo::Tensor3<float>& out, int threads);

/// Wait for whichever of `pending` futures become ready within `budget`:
/// blocks on the oldest for at most `budget`, then takes every ready entry
/// out of `pending` and runs `on_ready(entry)` on each, oldest first.
/// `on_ready` may push new entries. Single-threaded: the load generator is
/// the only caller.
template <typename Pending, typename OnReady>
void collect_ready(std::vector<Pending>& pending, Clock::duration budget,
                   OnReady&& on_ready) {
    if (pending.empty()) return;
    pending.front().future.wait_for(budget);
    std::vector<Pending> ready;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            ready.push_back(std::move(pending[i]));
        } else {
            if (kept != i) pending[kept] = std::move(pending[i]);
            ++kept;
        }
    }
    pending.resize(kept);
    for (Pending& p : ready) on_ready(p);
}

}  // namespace perfbench
