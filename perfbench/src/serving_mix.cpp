// serving_mix: an open loop of seeded Poisson arrivals at one fixed rate
// into a 2-shard ShardedSession (2 lanes per shard) shared by two
// equal-weight tenants. Tenant "steady" repeats three shapes, a small seeded
// share of them at cycle-accurate fidelity; tenant "varied" sends
// Longformer-style requests whose lengths come from more distinct values
// than a shard's plan cache holds, so compiles stay on the request path.
// Latency counts from each request's due time. Queueing, routing, fairness
// and plan-cache misses carry the work here.
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace {

using namespace salo;

// Offered load, fixed so that a slower program shows as latency rather than
// as a lighter load: about 35% of the ~430 requests/s the tier sustains on a
// 4-core host. Nearer saturation a host slowdown alone builds a backlog
// (README.md).
constexpr double kRatePerSecond = 150.0;
constexpr int kCycleAccurateShape = 2;        // vil_14x14x2h
constexpr double kCycleAccurateShare = 0.05;  // of that shape's requests
constexpr int kVariedLengths = 128;            // > plan_cache_capacity (64)
constexpr int kVariedMinLength = 256;
constexpr int kVariedLengthStep = 6;
constexpr int kVariants = 2;  // input sets per steady shape
constexpr double kWarmupSeconds = 1.0;
constexpr int kGoldenSample = 8;
constexpr auto kServiceEvery = std::chrono::seconds(2);  // of schedule time
constexpr int kShards = 2;
constexpr int kLanesPerShard = 2;
constexpr auto kPollBudget = std::chrono::microseconds(200);

struct Shape {
    std::string key;
    HybridPattern pattern;
    int heads = 0;
    int head_dim = 64;
};

struct Arrival {
    double due_s = 0.0;
    int tenant = 0;  ///< 0 = steady, 1 = varied
    int kind = 0;    ///< steady shape index, or varied length index
    int variant = 0;
    bool cycle_accurate = false;
};

constexpr const char* kTenant[] = {"steady", "varied"};

struct Reference {
    LayerResult result;
    double service_ms = 0.0;  ///< standalone 1-lane engine time
    bool ready = false;
};

Tensor3<float> first_rows(const Tensor3<float>& t, int n) {
    Tensor3<float> out(t.count(), n, t.cols());
    for (int h = 0; h < t.count(); ++h) {
        const auto src = t[h].data();
        std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n) * t.cols(),
                  out[h].data().begin());
    }
    return out;
}

}  // namespace

RunResult run_serving_mix(const RunArgs& args, Tracer* tracer) {
    RunResult r;
    SaloConfig cfg;
    cfg.fidelity = Fidelity::kFunctional;
    cfg.num_threads = kLanesPerShard;
    SaloConfig cfg1 = cfg;
    cfg1.num_threads = 1;
    cfg1.plan_cache_capacity = kVariedLengths + 8;

    const std::vector<Shape> steady = {
        {"longformer_1024x4h", longformer(1024, 256, 1), 4, 64},
        {"vil_28x28x2h", vil_2d(28, 28, 15, 15, 1), 2, 64},
        {"vil_14x14x2h", vil_2d(14, 14, 7, 7, 1), 2, 64},
    };
    const int varied_heads = 2, varied_d = 64, varied_window = 128;
    auto varied_length = [](int k) { return kVariedMinLength + kVariedLengthStep * k; };
    const int varied_max = varied_length(kVariedLengths - 1);

    // Inputs and the arrival schedule, all from the seed.
    Rng rng(mix_seed(args.seed, 100));
    std::vector<std::vector<QkvSet>> steady_in(steady.size());
    for (std::size_t s = 0; s < steady.size(); ++s)
        for (int v = 0; v < kVariants; ++v) {
            const Shape& sh = steady[s];
            QkvSet set;
            set.q = random_tensor3(sh.heads, sh.pattern.n(), sh.head_dim, rng, 0.5);
            set.k = random_tensor3(sh.heads, sh.pattern.n(), sh.head_dim, rng, 0.5);
            set.v = random_tensor3(sh.heads, sh.pattern.n(), sh.head_dim, rng, 0.5);
            steady_in[s].push_back(std::move(set));
        }
    QkvSet varied_in;
    varied_in.q = random_tensor3(varied_heads, varied_max, varied_d, rng, 0.5);
    varied_in.k = random_tensor3(varied_heads, varied_max, varied_d, rng, 0.5);
    varied_in.v = random_tensor3(varied_heads, varied_max, varied_d, rng, 0.5);

    std::vector<Arrival> arrivals;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / kRatePerSecond;
        if (t >= args.seconds) break;
        Arrival a;
        a.due_s = t;
        a.tenant = rng.uniform() < 0.5 ? 0 : 1;
        if (a.tenant == 0) {
            a.kind = static_cast<int>(rng.uniform_index(steady.size()));
            a.variant = static_cast<int>(rng.uniform_index(kVariants));
            // Cycle-accurate only on the smallest shape: a cycle-accurate
            // Longformer-1024 request costs ~0.7 s on one lane.
            a.cycle_accurate = a.kind == kCycleAccurateShape &&
                               rng.uniform() < kCycleAccurateShare;
        } else {
            a.kind = static_cast<int>(rng.uniform_index(kVariedLengths));
        }
        arrivals.push_back(a);
    }

    auto pattern_of = [&](const Arrival& a) {
        return a.tenant == 0 ? steady[static_cast<std::size_t>(a.kind)].pattern
                             : longformer(varied_length(a.kind), varied_window, 1);
    };
    auto make_req = [&](const Arrival& a) {
        AttentionRequest req;
        if (a.tenant == 0) {
            const Shape& sh = steady[static_cast<std::size_t>(a.kind)];
            const QkvSet& in = steady_in[static_cast<std::size_t>(a.kind)]
                                        [static_cast<std::size_t>(a.variant)];
            req = make_request(sh.pattern, in.q, in.k, in.v,
                               1.0f / std::sqrt(static_cast<float>(sh.head_dim)));
            if (a.cycle_accurate) req.fidelity = Fidelity::kCycleAccurate;
        } else {
            const int n = varied_length(a.kind);
            req = make_request(pattern_of(a), first_rows(varied_in.q, n),
                               first_rows(varied_in.k, n), first_rows(varied_in.v, n),
                               1.0f / std::sqrt(static_cast<float>(varied_d)));
        }
        req.tenant_id = kTenant[a.tenant];
        return req;
    };
    // Reference slots: steady (shape, variant, fidelity), then varied lengths.
    auto ref_index = [&](const Arrival& a) {
        if (a.tenant == 1) return static_cast<int>(steady.size()) * kVariants * 2 + a.kind;
        return (a.kind * kVariants + a.variant) * 2 + (a.cycle_accurate ? 1 : 0);
    };
    std::vector<Reference> refs(steady.size() * kVariants * 2 + kVariedLengths);

    // Set-up: build the tier and warm every shard's plan cache with the
    // steady tenant's shapes. Timed a few times here, the last build
    // serving, and twice more in every pause between blocks of the window.
    ShardedSessionOptions options;
    options.num_shards = kShards;
    for (const char* tenant : kTenant) options.fairness.tenants[tenant].weight = 1.0;
    auto build_tier = [&] {
        auto s = std::make_unique<ShardedSession>(cfg, options);
        for (int shard = 0; shard < s->num_shards(); ++shard)
            for (const Shape& sh : steady) s->shard_engine(shard).compile(sh.pattern, sh.head_dim);
        return s;
    };
    SetupCost setup;
    std::unique_ptr<ShardedSession> tier;
    for (int b = 0; b < kSetupBuildsBefore; ++b) tier = setup.time(tracer, build_tier);

    // Standalone 1-lane references for every input the schedule sends.
    const SaloEngine ref_engine(cfg1);
    for (const Arrival& a : arrivals) {
        Reference& ref = refs[static_cast<std::size_t>(ref_index(a))];
        if (ref.ready) continue;
        AttentionRequest req = make_req(a);
        const CompiledPlanPtr plan = ref_engine.compile(*req.pattern, req.q.cols());
        const Clock::time_point t0 = Clock::now();
        ref.result = ref_engine.run(*plan, req.q, req.k, req.v, req.scale,
                                    req.fidelity.value_or(Fidelity::kFunctional), 1);
        ref.service_ms = ms_between(t0, Clock::now());
        ref.ready = true;
    }
    // Warm-up, not measured: the first second of arrivals, sent on the same
    // schedule, so worker threads, allocator arenas and plan caches reach
    // their steady state before the window opens.
    {
        std::vector<std::future<LayerResult>> warm;
        const Clock::time_point w0 = Clock::now();
        for (const Arrival& a : arrivals) {
            if (a.due_s >= kWarmupSeconds) break;
            AttentionRequest req = make_req(a);
            std::this_thread::sleep_until(w0 + std::chrono::duration_cast<Clock::duration>(
                                                   std::chrono::duration<double>(a.due_s)));
            warm.push_back(tier->submit(std::move(req)));
        }
        for (auto& f : warm) f.get();
        // A future resolves before the tier counts its completion; drain so
        // the snapshot below includes every warm-up request.
        tier->drain();
    }
    const SessionStats stats_before = tier->stats();
    const std::vector<ShardHealthSnapshot> health_before = tier->shard_health();
    std::vector<PlanCacheStats> cache_before;
    for (int shard = 0; shard < tier->num_shards(); ++shard)
        cache_before.push_back(tier->shard_engine(shard).plan_cache_stats());

    // Measured window: one single-threaded generator sends on schedule and
    // collects completions between sends.
    struct Pending {
        std::size_t index = 0;
        std::future<LayerResult> future;
    };
    std::vector<Pending> pending;
    std::vector<OpenLoopRecord> records(arrivals.size());
    std::vector<bool> completed(arrivals.size(), false);
    std::vector<double> submit_us;
    std::vector<int> request_span(arrivals.size(), -1);
    // Simulated cycles of one functional request of each steady shape, as
    // the tier returned them.
    std::vector<std::int64_t> steady_cycles(steady.size(), -1);
    auto on_ready = [&](Pending& p) {
        const Clock::time_point done = Clock::now();
        const Arrival& a = arrivals[p.index];
        records[p.index].done = done;
        try {
            const LayerResult res = p.future.get();
            completed[p.index] = true;
            if (a.tenant == 0 && !a.cycle_accurate)
                steady_cycles[static_cast<std::size_t>(a.kind)] = res.stats.cycles;
            const Reference& ref = refs[static_cast<std::size_t>(ref_index(a))];
            r.check(same_bits(res.output, ref.result.output) &&
                        res.stats.cycles == ref.result.stats.cycles,
                    std::string(kTenant[a.tenant]) + " request " + std::to_string(p.index) +
                        " differs from its standalone 1-lane run");
        } catch (const std::exception& e) {
            ++r.failed;
            r.check(false, "request " + std::to_string(p.index) + " failed: " + e.what());
        }
        if (tracer != nullptr)
            request_span[p.index] = tracer->record("request", records[p.index].due, done, -1,
                                                   p.index + 1);
    };
    // The base of the latency ratio: a standalone run of each steady shape
    // on a bare engine with all host lanes, so that, like the tier, it
    // spreads over every core. The host's speed drifts by tens of percent
    // over seconds, so the window runs in blocks of kServiceEvery of
    // schedule time; between blocks the generator lets the tier go idle and
    // times these runs. The next block's due times start after them, so no
    // request waits on them.
    SaloConfig probe_cfg = cfg;
    probe_cfg.num_threads = host_lanes();
    const SaloEngine probe_engine(probe_cfg);
    std::vector<CompiledPlanPtr> steady_plans;
    for (const Shape& sh : steady)
        steady_plans.push_back(probe_engine.compile(sh.pattern, sh.head_dim));
    std::vector<std::vector<double>> shape_service_ms(steady.size());
    Clock::duration probing{};  // time spent in the probes between blocks
    double probe_cpu_s = 0.0;   // CPU of the pauses' threads, left out of cpu_s
    auto service_probe = [&] {
        while (!pending.empty()) collect_ready(pending, kPollBudget, on_ready);
        const Clock::time_point p0 = Clock::now();
        const LibraryCpu probe_cpu;
        for (std::size_t s = 0; s < steady.size(); ++s) {
            const QkvSet& in = steady_in[s][0];
            const float scale = 1.0f / std::sqrt(static_cast<float>(steady[s].head_dim));
            shape_service_ms[s].push_back(timed(tracer, "engine.run", [&] {
                (void)probe_engine.run(*steady_plans[s], in.q, in.k, in.v, scale);
            }));
        }
        for (int b = 0; b < 2; ++b) (void)setup.time(tracer, build_tier);
        probing += Clock::now() - p0;
        probe_cpu_s += probe_cpu.seconds();
    };
    std::vector<Clock::time_point> submit_end(arrivals.size());
    const LibraryCpu library_cpu;
    const Clock::time_point start = Clock::now();
    const auto block_len = std::chrono::duration<double>(kServiceEvery).count();
    Clock::time_point block_start;
    int block = -1;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        AttentionRequest req = make_req(arrivals[i]);
        const int b = static_cast<int>(arrivals[i].due_s / block_len);
        if (b != block) {
            service_probe();
            block = b;
            block_start = Clock::now() + std::chrono::milliseconds(5);
        }
        const Clock::time_point due =
            block_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrivals[i].due_s - b * block_len));
        for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
            if (pending.empty()) {
                std::this_thread::sleep_until(due);
                break;
            }
            collect_ready(pending, std::min<Clock::duration>(due - now, kPollBudget), on_ready);
        }
        ++r.attempted;
        records[i].due = due;
        records[i].sent = Clock::now();
        try {
            pending.push_back(Pending{i, tier->submit(std::move(req))});
        } catch (const std::exception& e) {
            ++r.failed;
            r.check(false, "submit " + std::to_string(i) + " threw: " + e.what());
            records[i].done = Clock::now();
        }
        submit_end[i] = Clock::now();
        submit_us.push_back(ms_between(records[i].sent, submit_end[i]) * 1000.0);
    }
    while (!pending.empty()) collect_ready(pending, kPollBudget, on_ready);
    const Clock::duration window = Clock::now() - start - probing;
    service_probe();
    const double cpu_s = library_cpu.seconds() - probe_cpu_s;
    const double rss = peak_rss_mb();
    if (tracer != nullptr)
        for (std::size_t i = 0; i < arrivals.size(); ++i)
            if (request_span[i] >= 0)
                tracer->record("session.submit", records[i].sent, submit_end[i],
                               request_span[i], i + 1);

    // Latency from due time, over completed requests; for the steady
    // tenant's functional requests also as a multiple of the shape's
    // standalone service time.
    std::vector<OpenLoopRecord> done_records;
    std::vector<double> tenant_ms[2], ratio;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (!completed[i]) continue;
        const Arrival& a = arrivals[i];
        done_records.push_back(records[i]);
        tenant_ms[a.tenant].push_back(records[i].latency_ms());
        if (a.tenant == 0 && !a.cycle_accurate)
            ratio.push_back(records[i].latency_ms() /
                            median(shape_service_ms[static_cast<std::size_t>(a.kind)]));
    }
    std::int64_t sim_cycles = 0;
    for (std::size_t s = 0; s < steady.size(); ++s) {
        r.check(steady_cycles[s] > 0, "no functional " + steady[s].key + " request completed");
        sim_cycles += steady_cycles[s];
    }
    const OpenLoopSummary sum = summarize_open_loop(done_records);

    // Conservation, globally and per tenant.
    tier->drain();
    const SessionStats st = tier->stats();
    const auto tenants = tier->tenant_stats();
    r.check(st.accounted() == st.submitted &&
                st.submitted - stats_before.submitted == r.attempted &&
                st.completed - stats_before.completed == done_records.size(),
            "SessionStats conservation law: submitted " + std::to_string(st.submitted) +
                " accounted " + std::to_string(st.accounted()) + " completed " +
                std::to_string(st.completed) + "; before the window submitted " +
                std::to_string(stats_before.submitted) + " completed " +
                std::to_string(stats_before.completed) + "; window attempted " +
                std::to_string(r.attempted) + " completed " +
                std::to_string(done_records.size()));
    std::uint64_t tenant_submitted = 0, tenant_completed = 0;
    for (const auto& [name, ts] : tenants) {
        r.check(ts.accounted() == ts.submitted, "TenantStats conservation law for " + name);
        tenant_submitted += ts.submitted;
        tenant_completed += ts.completed;
    }
    r.check(tenant_submitted == st.submitted && tenant_completed == st.completed,
            "tenant stats sum to the tier stats");

    // A seeded sample within tolerance of the float oracle (every completed
    // request is bit-identical to its reference, so the reference stands in).
    Rng pick(mix_seed(args.seed, 101));
    double golden_err = 0.0;
    for (int s = 0; s < kGoldenSample && !arrivals.empty(); ++s) {
        const Arrival& a = arrivals[pick.uniform_index(arrivals.size())];
        const AttentionRequest req = make_req(a);
        const Reference& ref = refs[static_cast<std::size_t>(ref_index(a))];
        golden_err = std::max(golden_err, golden_max_error(*req.pattern, req.q, req.k, req.v,
                                                           req.scale, ref.result.output,
                                                           host_lanes()));
    }
    r.check(golden_err < kQuantTolerance,
            "sampled max |SALO - golden| " + std::to_string(golden_err) + " exceeds tolerance");

    const double span_s = std::chrono::duration<double>(window).count();
    r.end_to_end["setup_s"] = setup.mean_s();
    r.end_to_end["peak_rss_mb"] = rss;
    r.end_to_end["cpu_ms_per_op"] =
        done_records.empty() ? 0.0 : cpu_s * 1000.0 / static_cast<double>(done_records.size());
    r.end_to_end["sim_cycles"] = static_cast<double>(sim_cycles);
    r.end_to_end["latency_ratio_p50"] = median(ratio);
    r.note("completed_per_s",
           span_s > 0.0 ? static_cast<double>(done_records.size()) / span_s : 0.0, "1/s");
    {
        double demand = 0.0;
        for (const Arrival& a : arrivals)
            demand += refs[static_cast<std::size_t>(ref_index(a))].service_ms;
        r.note("offered_lane_utilization", demand / 1000.0 / args.seconds / (kShards * kLanesPerShard), "ratio");
    }
    int ca_requests = 0;
    for (const Arrival& a : arrivals) ca_requests += a.cycle_accurate ? 1 : 0;
    r.note("req_latency_ms_p50", sum.latency_p50_ms, "ms");
    r.note("req_latency_ms_p99", sum.latency_p99_ms, "ms");
    r.note("latency_samples", static_cast<double>(sum.count), "count");
    r.note("latency_tail_supported_percentile", tail_percentile(sum.count), "pct");
    r.note("offered_rate", kRatePerSecond, "1/s");
    r.note("cycle_accurate_requests", ca_requests, "count");
    r.note("generator_lateness_ms_p50", sum.lateness_p50_ms, "ms");
    r.note("generator_lateness_ms_max", sum.lateness_max_ms, "ms");
    r.note("golden_max_error.sample", golden_err, "abs");
    for (int t = 0; t < 2; ++t) {
        r.note(std::string("tenant_latency_ms_p50.") + kTenant[t], median(tenant_ms[t]), "ms");
        r.note(std::string("tenant_latency_ms_p99.") + kTenant[t],
               percentile(tenant_ms[t], 99.0), "ms");
    }
    if (tracer == nullptr) return r;

    // Traced run: per-layer figures from the spans and the public stats.
    std::vector<double> wait_ms, ca_ms;
    SimStats total;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (!completed[i]) continue;
        const Reference& ref = refs[static_cast<std::size_t>(ref_index(arrivals[i]))];
        wait_ms.push_back(records[i].latency_ms() - ref.service_ms);
        total += ref.result.stats;
    }
    for (const Arrival& a : arrivals)
        if (a.cycle_accurate)
            ca_ms.push_back(refs[static_cast<std::size_t>(ref_index(a))].service_ms);
    const double n_done = static_cast<double>(std::max<std::size_t>(1, done_records.size()));
    r.per_layer["session.submit_us"] = median(submit_us);
    r.per_layer["session.queue_wait_ms_p50"] = median(wait_ms);
    r.per_layer["session.queue_wait_ms_tail"] = percentile(wait_ms, tail_percentile(wait_ms.size()));
    r.per_layer["sim.cycle_accurate_ms"] = mean(ca_ms);
    r.per_layer["engine.sim_cycles"] = static_cast<double>(total.cycles) / n_done;
    r.per_layer["engine.mac_ops"] = static_cast<double>(total.activity.mac_ops) / n_done;
    r.per_layer["engine.exp_ops"] = static_cast<double>(total.activity.exp_ops) / n_done;
    r.per_layer["engine.pe_utilization"] = total.activity.occupancy();
    r.per_layer["loadgen.late_ms_p99"] = sum.lateness_p99_ms;
    r.per_layer["fair_queue.tenant_p99_ms.steady"] = percentile(tenant_ms[0], 99.0);
    r.per_layer["fair_queue.tenant_p99_ms.varied"] = percentile(tenant_ms[1], 99.0);
    r.per_layer["shard_router.retried"] = static_cast<double>(st.retried - stats_before.retried);
    const auto health = tier->shard_health();
    double lo = 0.0, hi = 0.0;
    for (std::size_t s = 0; s < health.size(); ++s) {
        const double ok = static_cast<double>(health[s].successes - health_before[s].successes);
        lo = s == 0 ? ok : std::min(lo, ok);
        hi = s == 0 ? ok : std::max(hi, ok);
    }
    r.per_layer["shard_router.balance"] = hi > 0.0 ? lo / hi : 0.0;

    PlanCacheStats cache;
    for (int shard = 0; shard < tier->num_shards(); ++shard) {
        const PlanCacheStats now = tier->shard_engine(shard).plan_cache_stats();
        const PlanCacheStats& before = cache_before[static_cast<std::size_t>(shard)];
        cache.hits += now.hits - before.hits;
        cache.misses += now.misses - before.misses;
        cache.compiles += now.compiles - before.compiles;
        cache.step_derives += now.step_derives - before.step_derives;
    }
    r.per_layer["plan_cache.lookups"] = static_cast<double>(cache.hits + cache.misses);
    r.per_layer["plan_cache.hits"] = static_cast<double>(cache.hits);
    r.per_layer["plan_cache.hit_ratio"] = cache.hit_rate();
    r.per_layer["plan_cache.compiles"] = static_cast<double>(cache.compiles);
    r.per_layer["plan_cache.step_derives"] = static_cast<double>(cache.step_derives);

    // Scheduler cost of the shapes the tenants send: every steady shape and
    // a seeded sample of the varied lengths.
    std::vector<double> compile_ms;
    double tiles = 0.0;
    auto probe_compile = [&](const HybridPattern& p, int d) {
        std::size_t t = 0;
        compile_ms.push_back(timed(tracer, "scheduler.compile", [&] {
            t = compile(p, d, cfg).plan().tiles.size();
        }));
        tiles += static_cast<double>(t);
    };
    for (const Shape& sh : steady) probe_compile(sh.pattern, sh.head_dim);
    for (int s = 0; s < 8; ++s)
        probe_compile(longformer(varied_length(static_cast<int>(pick.uniform_index(kVariedLengths))),
                                 varied_window, 1),
                      varied_d);
    r.per_layer["scheduler.compile_ms"] = mean(compile_ms);
    r.per_layer["scheduler.tiles"] = tiles / static_cast<double>(compile_ms.size());
    return r;
}

}  // namespace perfbench
