// SALO benchmark: one command, three workloads, one JSON result line.
//
//   salo_perfbench --workload <paper_layers|serving_mix|decode_online>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Every run checks the summary helpers first, then sets up, measures for
// --seconds, checks its outputs, prints the host fingerprint and the
// workload's named figures as "report:" lines, and ends with one JSON line:
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run records spans around the benchmark's own calls into the
// library and writes them as Chrome trace-event JSON (--trace-file).
// Exit code: 0 ok, 1 a correctness check failed, 2 bad arguments.
#include <cpuid.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "sim/kernels.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_ms_per_op", "ms"},
    {"sim_cycles", "cycles"},
    {"latency_ratio_p50", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"scheduler.compile_ms", "ms"},
    {"scheduler.tiles", "count"},
    {"compiled_plan.derive_step_us", "us"},
    {"plan_cache.lookups", "count"},
    {"plan_cache.hits", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.compiles", "count"},
    {"plan_cache.step_derives", "count"},
    {"engine.run_ms.longformer", "ms"},
    {"engine.run_ms.vil_stage1", "ms"},
    {"engine.run_ms.vil_stage2", "ms"},
    {"engine.run_1lane_ms.longformer", "ms"},
    {"engine.run_1lane_ms.vil_stage1", "ms"},
    {"engine.run_1lane_ms.vil_stage2", "ms"},
    {"engine.lane_speedup.longformer", "x"},
    {"engine.lane_speedup.vil_stage1", "x"},
    {"engine.lane_speedup.vil_stage2", "x"},
    {"engine.sim_cycles", "cycles"},
    {"engine.mac_ops", "count"},
    {"engine.exp_ops", "count"},
    {"engine.pe_utilization", "ratio"},
    {"engine.run_step_us", "us"},
    {"numeric.quantize_ms", "ms"},
    {"sim.tile_execute_ms", "ms"},
    {"sim.wsm_merge_ms", "ms"},
    {"sim.wsm_finalize_ms", "ms"},
    {"sim.parts", "count"},
    {"sim.cycle_accurate_ms", "ms"},
    {"session.submit_us", "us"},
    {"session.queue_wait_ms_p50", "ms"},
    {"session.queue_wait_ms_tail", "ms"},
    {"session.batches", "count"},
    {"session.mean_batch", "count"},
    {"shard_router.balance", "ratio"},
    {"shard_router.retried", "count"},
    {"fair_queue.tenant_p99_ms.steady", "ms"},
    {"fair_queue.tenant_p99_ms.varied", "ms"},
    {"streaming.append_us", "us"},
    {"streaming.assemble_us", "us"},
    {"decode_session.batches", "count"},
    {"decode_session.mean_batch", "count"},
    {"decode_session.step_wait_ms_p50", "ms"},
    {"loadgen.late_ms_p99", "ms"},
    {"trace.spans", "count"},
};

void usage(std::ostream& os) {
    os << "usage: salo_perfbench --workload <paper_layers|serving_mix|decode_online> "
          "--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n";
}

/// The CPU brand string from CPUID (no file access).
std::string cpu_model() {
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
    for (unsigned int i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

/// Shortest round-trip decimal form of a finite double.
std::string number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

bool parse_u64(const char* s, std::uint64_t& out) {
    const char* end = s + std::strlen(s);
    const auto res = std::from_chars(s, end, out);
    return res.ec == std::errc() && res.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
    RunArgs args;
    std::string trace_file;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage(std::cerr);
            return 2;
        }
        const char* val = argv[++i];
        std::uint64_t n = 0;
        if (a == "--workload") {
            args.workload = val;
            have_workload = true;
        } else if (a == "--seed" && parse_u64(val, n)) {
            args.seed = n;
            have_seed = true;
        } else if (a == "--seconds" && parse_u64(val, n) && n >= 1 && n <= 600) {
            args.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (a == "--trace" && parse_u64(val, n) && n <= 1) {
            args.trace = n == 1;
            have_trace = true;
        } else if (a == "--trace-file") {
            trace_file = val;
        } else {
            usage(std::cerr);
            return 2;
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage(std::cerr);
        return 2;
    }
    RunResult (*run)(const RunArgs&, Tracer*) = nullptr;
    if (args.workload == "paper_layers") run = run_paper_layers;
    else if (args.workload == "serving_mix") run = run_serving_mix;
    else if (args.workload == "decode_online") run = run_decode_online;
    if (run == nullptr) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        usage(std::cerr);
        return 2;
    }
    if (!self_check()) return 1;

    std::cout << "host: cpu=\"" << cpu_model() << "\" nproc=" << std::thread::hardware_concurrency()
              << " lanes=" << host_lanes() << " isa=" << salo::kernels::isa_name() << "\n";
    std::cout << "workload: " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";
    std::cout.flush();

    Tracer tracer;
    RunResult result = run(args, args.trace ? &tracer : nullptr);

    if (args.trace) {
        result.per_layer["trace.spans"] = static_cast<double>(tracer.size());
        if (!trace_file.empty()) {
            if (tracer.write_chrome_json(trace_file))
                std::cout << "trace: " << trace_file << " (" << tracer.size() << " spans)\n";
            else
                result.check(false, "could not write trace file " + trace_file);
        }
    }

    auto known = [](const auto& specs, const std::string& name) {
        for (const MetricSpec& m : specs)
            if (name == m.name) return true;
        return false;
    };
    for (const auto& [name, value] : result.per_layer)
        result.check(known(kPerLayer, name), "per-layer metric " + name + " is not declared");
    for (const auto& [name, value] : result.end_to_end)
        result.check(known(kEndToEnd, name), "end-to-end metric " + name + " is not declared");

    for (const ReportLine& line : result.report)
        std::cout << "report: " << line.name << " = " << number(line.value) << " "
                  << line.unit << "\n";
    for (const MetricSpec& m : kEndToEnd)
        std::cout << "end_to_end: " << m.name << " = " << number(result.end_to_end[m.name])
                  << " " << m.unit << "\n";
    std::cout << "operations: attempted=" << result.attempted << " failed=" << result.failed
              << "\n";
    for (const std::string& f : result.check_failures)
        std::cout << "CHECK FAILED: " << f << "\n";

    std::string json = "{\"correct\": ";
    std::string metrics;
    auto emit = [&](const MetricSpec& m, double v) {
        if (!std::isfinite(v)) {
            result.check(false, std::string("non-finite metric ") + m.name);
            v = 0.0;
        }
        if (!metrics.empty()) metrics += ", ";
        metrics += std::string("\"") + m.name + "\": {\"value\": " + number(v) +
                   ", \"unit\": \"" + m.unit + "\"}";
    };
    if (args.trace) {
        for (const MetricSpec& m : kPerLayer) emit(m, result.per_layer[m.name]);
    } else {
        for (const MetricSpec& m : kEndToEnd) emit(m, result.end_to_end[m.name]);
    }
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {" + metrics + "}}";
    std::cout << json << std::endl;
    return result.correct ? 0 : 1;
}
