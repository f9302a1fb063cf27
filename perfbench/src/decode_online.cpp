// decode_online: a fixed number of users in a closed loop, each decoding
// streams back to back through a 1-shard DecodeSession with one step
// outstanding per stream. Stream lengths come from a seeded range, so
// positions desynchronise as in real traffic; the shape is the
// bench_decode family (64-wide causal band plus 2 global tokens). Decode
// state, micro-plan derivation and run_step carry the work.
#include <memory>
#include <optional>

#include "bench.hpp"
#include "numeric/quantize.hpp"
#include "workload/workloads.hpp"

namespace perfbench {

namespace {

using namespace salo;

constexpr int kUsers = 16;
constexpr int kMinLength = 128;
constexpr int kMaxLength = 1024;
constexpr int kClasses = 8;  // input classes streams draw from
constexpr int kHeads = 2;
constexpr int kHeadDim = 32;
constexpr float kScale = 0.176777f;  // ~ 1/sqrt(32)
constexpr int kBitSample = 24;
constexpr int kServiceStride = 16;  // probe every 16th position
constexpr double kWarmupSeconds = 1.0;
constexpr double kSetupCpuS = 1.0;
constexpr auto kPollBudget = std::chrono::microseconds(100);

HybridPattern decode_pattern(int n) {
    std::vector<int> globals;
    for (int g : {0, 1})
        if (g < n) globals.push_back(g);
    return HybridPattern(n, {Band{-63, 64, 1, 0}}, globals);
}

Matrix<float> row_of(const Tensor3<float>& all, int t) {
    Matrix<float> row(all.count(), all.cols(), 0.0f);
    for (int h = 0; h < all.count(); ++h)
        for (int x = 0; x < all.cols(); ++x) row(h, x) = all[h](t, x);
    return row;
}

/// Float masked-attention row t over the prefix 0..t, on the quantize/
/// dequantize round trip of the inputs (so only datapath error remains),
/// written here apart from the library's engine and oracle.
std::vector<float> reference_row(const QkvSet& cls, int t) {
    const HybridPattern p = decode_pattern(t + 1);
    std::vector<float> out(static_cast<std::size_t>(kHeads * kHeadDim), 0.0f);
    for (int h = 0; h < kHeads; ++h) {
        std::vector<double> q(kHeadDim);
        for (int x = 0; x < kHeadDim; ++x)
            q[static_cast<std::size_t>(x)] =
                InputFx::from_float(cls.q[h](t, x) * kScale).to_float();
        std::vector<int> keys;
        std::vector<double> w;
        double mx = -1e300;
        for (int j = 0; j <= t; ++j) {
            if (!p.attends(t, j)) continue;
            double dot = 0.0;
            for (int x = 0; x < kHeadDim; ++x)
                dot += q[static_cast<std::size_t>(x)] *
                       InputFx::from_float(cls.k[h](j, x)).to_float();
            keys.push_back(j);
            w.push_back(dot);
            mx = std::max(mx, dot);
        }
        double sum = 0.0;
        for (double& v : w) sum += (v = std::exp(v - mx));
        for (std::size_t i = 0; i < keys.size(); ++i)
            for (int x = 0; x < kHeadDim; ++x)
                out[static_cast<std::size_t>(h * kHeadDim + x)] += static_cast<float>(
                    w[i] / sum * InputFx::from_float(cls.v[h](keys[i], x)).to_float());
    }
    return out;
}

struct User {
    Rng rng{0};
    StreamId stream = 0;
    int cls = 0;
    int length = 0;
    int next = 0;  ///< position of the next step to submit
    int stream_span = -1;
};

}  // namespace

RunResult run_decode_online(const RunArgs& args, Tracer* tracer) {
    RunResult r;
    SaloConfig cfg;
    cfg.fidelity = Fidelity::kFunctional;
    cfg.num_threads = host_lanes();
    SaloConfig cfg1 = cfg;
    cfg1.num_threads = 1;
    DecodeSessionOptions options;
    options.num_shards = 1;

    std::vector<QkvSet> classes;
    {
        Rng rng(mix_seed(args.seed, 200));
        for (int c = 0; c < kClasses; ++c) {
            QkvSet set;
            set.q = random_tensor3(kHeads, kMaxLength, kHeadDim, rng, 0.5);
            set.k = random_tensor3(kHeads, kMaxLength, kHeadDim, rng, 0.5);
            set.v = random_tensor3(kHeads, kMaxLength, kHeadDim, rng, 0.5);
            classes.push_back(std::move(set));
        }
    }

    // Set-up: build the session and compile the full-horizon plan through
    // its shard's cache. The closed loop has no pauses to time builds in (a
    // build beside the running users costs three times as much CPU), so
    // set-up is timed for kSetupCpuS of CPU here, the last build serving,
    // and as much again after the window.
    auto build_session = [&] {
        auto s = std::make_unique<DecodeSession>(cfg, options);
        s->shard_engine(0).compile(decode_pattern(kMaxLength), kHeadDim);
        return s;
    };
    SetupCost setup;
    std::unique_ptr<DecodeSession> session;
    while (setup.total_s < kSetupCpuS) session = setup.time(tracer, build_session);

    // Closed loop: every user keeps one step in flight; a finished stream
    // is closed and the user opens the next one. Steps submitted during the
    // first kWarmupSeconds are served but not counted.
    std::vector<User> users(kUsers);
    struct Pending {
        int user = 0;
        int position = 0;
        Clock::time_point submitted;
        std::future<StepResult> future;
    };
    struct Token {
        int cls = 0;
        int position = 0;
    };
    // Float reference rows for every (class, position), computed before the
    // loop; each token is checked as it completes. A seeded reservoir keeps
    // a uniform sample of tokens for the bit-identity check afterwards.
    std::vector<std::vector<float>> ref_rows;
    for (int c = 0; c < kClasses; ++c)
        for (int t = 0; t < kMaxLength; ++t)
            ref_rows.push_back(reference_row(classes[static_cast<std::size_t>(c)], t));
    struct Sampled {
        Token token;
        Tensor3<float> output;  // [heads][1][head_dim]
    };
    std::vector<Sampled> sample;
    Rng pick(mix_seed(args.seed, 201));
    std::uint64_t counted_tokens = 0;
    double worst = 0.0;

    std::vector<Pending> pending;
    std::vector<double> latency_ms, submit_us;
    SimStats step_stats;
    // Simulated cycles of a step by position, from every served step: the
    // micro-plan of step t depends only on t, so each position has one value.
    std::vector<std::int64_t> position_cycles(kMaxLength, -1);
    bool stopping = false;
    const Clock::time_point loop_start = Clock::now();
    const Clock::time_point window_start =
        loop_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kWarmupSeconds));
    const Clock::time_point window_end =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));

    auto open_next = [&](User& u) {
        u.cls = static_cast<int>(u.rng.uniform_index(kClasses));
        u.length = kMinLength +
                   static_cast<int>(u.rng.uniform_index(kMaxLength - kMinLength + 1));
        u.next = 0;
        u.stream = session->open_stream(decode_pattern(u.length), kHeads, kHeadDim, kScale);
        if (tracer != nullptr)
            u.stream_span = tracer->record("stream", Clock::now(), Clock::now());
    };
    auto submit_next = [&](int ui) {
        User& u = users[static_cast<std::size_t>(ui)];
        const QkvSet& c = classes[static_cast<std::size_t>(u.cls)];
        StepRequest step;
        step.q_row = row_of(c.q, u.next);
        step.k_row = row_of(c.k, u.next);
        step.v_row = row_of(c.v, u.next);
        const Clock::time_point t0 = Clock::now();
        std::future<StepResult> f = session->step(u.stream, std::move(step));
        const Clock::time_point t1 = Clock::now();
        if (t0 >= window_start) {
            ++r.attempted;
            submit_us.push_back(ms_between(t0, t1) * 1000.0);
        }
        pending.push_back(Pending{ui, u.next, t0, std::move(f)});
        ++u.next;
    };
    auto end_stream = [&](User& u) {
        session->close_stream(u.stream);
        if (tracer != nullptr) tracer->set_end(u.stream_span, Clock::now());
    };
    std::uint64_t request = 0;
    auto on_ready = [&](Pending& p) {
        const Clock::time_point done = Clock::now();
        User& u = users[static_cast<std::size_t>(p.user)];
        const bool counted = p.submitted >= window_start;
        bool ok = true;
        try {
            const StepResult res = p.future.get();
            std::int64_t& cycles = position_cycles[static_cast<std::size_t>(p.position)];
            r.check(cycles < 0 || cycles == res.stats.cycles,
                    "step cycles at position " + std::to_string(p.position) +
                        " differ between streams");
            cycles = res.stats.cycles;
            if (counted) {
                latency_ms.push_back(ms_between(p.submitted, done));
                step_stats += res.stats;
                r.check(res.position == p.position, "step result names the wrong position");
                const std::vector<float>& ref =
                    ref_rows[static_cast<std::size_t>(u.cls * kMaxLength + p.position)];
                for (int h = 0; h < kHeads; ++h)
                    for (int x = 0; x < kHeadDim; ++x)
                        worst = std::max(worst, std::abs(static_cast<double>(res.output[h](0, x)) -
                                                         ref[static_cast<std::size_t>(h * kHeadDim + x)]));
                const Token tk{u.cls, p.position};
                ++counted_tokens;
                if (sample.size() < kBitSample) {
                    sample.push_back(Sampled{tk, res.output});
                } else if (const std::uint64_t slot = pick.uniform_index(counted_tokens);
                           slot < kBitSample) {
                    sample[slot] = Sampled{tk, res.output};
                }
            }
        } catch (const std::exception& e) {
            ok = false;
            if (counted) ++r.failed;
            r.check(false, std::string("decode step failed: ") + e.what());
        }
        if (tracer != nullptr)
            tracer->record("token", p.submitted, done, u.stream_span, ++request);
        if (stopping) return;
        if (!ok || u.next >= u.length) {
            end_stream(u);
            open_next(u);
        }
        submit_next(p.user);
    };

    for (int ui = 0; ui < kUsers; ++ui) {
        users[static_cast<std::size_t>(ui)].rng =
            Rng(mix_seed(args.seed, 300 + static_cast<std::uint64_t>(ui)));
        open_next(users[static_cast<std::size_t>(ui)]);
        submit_next(ui);
    }
    PlanCacheStats cache_at;
    SessionStats stats_at;
    std::optional<LibraryCpu> library_cpu;
    bool window_open = false;
    while (Clock::now() < window_end) {
        if (!window_open && Clock::now() >= window_start) {
            window_open = true;
            cache_at = session->shard_engine(0).plan_cache_stats();
            stats_at = session->stats();
            library_cpu.emplace();
        }
        collect_ready(pending, kPollBudget, on_ready);
    }
    stopping = true;
    while (!pending.empty()) collect_ready(pending, kPollBudget, on_ready);
    const Clock::time_point drained = Clock::now();
    const double cpu_s = library_cpu ? library_cpu->seconds() : 0.0;
    const double rss = peak_rss_mb();
    for (User& u : users) end_stream(u);
    session->drain();
    const SessionStats window_stats = session->stats();
    const PlanCacheStats window_cache = session->shard_engine(0).plan_cache_stats();

    // The base of the latency ratio. With 16 users a token's latency turns
    // on how the users fall into the dispatcher's batches, which settles
    // differently from run to run (README), so the ratio is taken on one
    // stream alone in a freshly built session after the window (its plan
    // cache cold, like the bare engine's): every kServiceStride-th step is
    // paired with the same step run standalone right after it
    // (compile_step, assemble, run_step on a bare engine with the session's
    // lanes), so the host's speed cancels pair by pair.
    std::vector<double> ratio, service_ms, derive_us, run_us, append_us, assemble_us;
    {
        const int probe =
            tracer != nullptr ? tracer->record("probe.lone_stream", Clock::now(), Clock::now())
                              : -1;
        const SaloEngine probe_engine(cfg);
        const QkvSet& in = classes[0];
        const HybridPattern horizon = decode_pattern(kMaxLength);
        const std::unique_ptr<DecodeSession> alone_session = build_session();
        const StreamId lone = alone_session->open_stream(horizon, kHeads, kHeadDim, kScale);
        DecodeState state(kHeads, kHeadDim, decode_window_span(horizon.bands()),
                          horizon.global_tokens());
        for (int t = 0; t < kMaxLength; ++t) {
            StepRequest step;
            step.q_row = row_of(in.q, t);
            step.k_row = row_of(in.k, t);
            step.v_row = row_of(in.v, t);
            StepResult res;
            const double latency = timed(tracer, "session.step", [&] {
                res = alone_session->step(lone, std::move(step)).get();
            }, probe);
            const Matrix<float> krow = row_of(in.k, t), vrow = row_of(in.v, t);
            append_us.push_back(timed(nullptr, "", [&] { state.append(krow, vrow); }) * 1000.0);
            if (t % kServiceStride != kServiceStride - 1) continue;
            CompiledPlanPtr micro;
            const double derive = timed(tracer, "compiled_plan.compile_step", [&] {
                micro = probe_engine.compile_step(decode_pattern(t + 1), kHeadDim);
            }, probe);
            std::pair<Tensor3<float>, Tensor3<float>> kv;
            const double assemble =
                timed(tracer, "streaming.assemble", [&] { kv = state.assemble(); }, probe);
            const Matrix<float> qrow = row_of(in.q, t);
            StepResult alone;
            const double run = timed(tracer, "engine.run_step", [&] {
                alone = probe_engine.run_step(*micro, qrow, kv.first, kv.second, kScale);
            }, probe);
            r.check(same_bits(alone.output, res.output),
                    "lone-stream step " + std::to_string(t) +
                        " differs from the same step run standalone");
            derive_us.push_back(derive * 1000.0);
            assemble_us.push_back(assemble * 1000.0);
            run_us.push_back(run * 1000.0);
            service_ms.push_back(derive + assemble + run);
            ratio.push_back(latency / service_ms.back());
        }
        alone_session->close_stream(lone);
        if (tracer != nullptr) tracer->set_end(probe, Clock::now());
    }

    // Checks: conservation, the float reference row of every token, and
    // bit-identity of a seeded sample with the full-prefix encode.
    const SessionStats st = session->stats();
    r.check(st.steps == st.submitted && st.completed == st.submitted &&
                st.accounted() == st.submitted,
            "decode stats: steps == submitted == completed");
    r.check(worst < kQuantTolerance, "decode token max |SALO - reference| " +
                                         std::to_string(worst) + " exceeds tolerance");
    const SaloEngine ref_engine(cfg1);
    for (const Sampled& smp : sample) {
        const Token& tk = smp.token;
        const QkvSet& c = classes[static_cast<std::size_t>(tk.cls)];
        const int n = tk.position + 1;
        Tensor3<float> q(kHeads, n, kHeadDim), k(kHeads, n, kHeadDim), v(kHeads, n, kHeadDim);
        for (int h = 0; h < kHeads; ++h)
            for (int row = 0; row < n; ++row)
                for (int x = 0; x < kHeadDim; ++x) {
                    q[h](row, x) = c.q[h](row, x);
                    k[h](row, x) = c.k[h](row, x);
                    v[h](row, x) = c.v[h](row, x);
                }
        const LayerResult full =
            ref_engine.run(*ref_engine.compile(decode_pattern(n), kHeadDim), q, k, v, kScale);
        bool same = true;
        for (int h = 0; h < kHeads; ++h)
            for (int x = 0; x < kHeadDim; ++x)
                same = same && full.output[h](tk.position, x) == smp.output[h](0, x);
        r.check(same, "decode token at position " + std::to_string(tk.position) +
                          " differs from row t of the full-prefix SaloEngine::run");
    }

    const double step_service_ms = median(service_ms);
    std::int64_t sim_cycles = 0;
    for (int t = 0; t < kMinLength; ++t) {
        const std::int64_t cycles = position_cycles[static_cast<std::size_t>(t)];
        r.check(cycles > 0, "no step served at position " + std::to_string(t));
        sim_cycles += cycles;
    }

    const double span_s = ms_between(window_start, drained) / 1000.0;
    while (setup.total_s < 2 * kSetupCpuS) (void)setup.time(tracer, build_session);
    r.end_to_end["setup_s"] = setup.mean_s();
    r.end_to_end["peak_rss_mb"] = rss;
    r.end_to_end["cpu_ms_per_op"] =
        counted_tokens == 0 ? 0.0 : cpu_s * 1000.0 / static_cast<double>(counted_tokens);
    r.end_to_end["sim_cycles"] = static_cast<double>(sim_cycles);
    r.end_to_end["latency_ratio_p50"] = median(ratio);
    r.note("tokens_per_s", span_s > 0.0 ? static_cast<double>(counted_tokens) / span_s : 0.0,
           "1/s");
    r.note("token_latency_ms_p50", median(latency_ms), "ms");
    r.note("token_latency_ms_p99", percentile(latency_ms, 99.0), "ms");
    r.note("latency_samples", static_cast<double>(latency_ms.size()), "count");
    r.note("latency_tail_supported_percentile", tail_percentile(latency_ms.size()), "pct");
    r.note("concurrent_users", kUsers, "count");
    r.note("reference_max_error", worst, "abs");
    r.note("step_service_ms", step_service_ms, "ms");
    if (tracer == nullptr) return r;

    // Traced run: the window's counters and the step path's public calls
    // from the lone-stream probe.
    const PlanCacheStats& cache = window_cache;
    const PlanCacheStats& before = cache_at;
    r.per_layer["plan_cache.lookups"] =
        static_cast<double>(cache.hits + cache.misses - before.hits - before.misses);
    r.per_layer["plan_cache.hits"] = static_cast<double>(cache.hits - before.hits);
    r.per_layer["plan_cache.hit_ratio"] =
        r.per_layer["plan_cache.lookups"] > 0.0
            ? r.per_layer["plan_cache.hits"] / r.per_layer["plan_cache.lookups"]
            : 0.0;
    r.per_layer["plan_cache.compiles"] = static_cast<double>(cache.compiles - before.compiles);
    r.per_layer["plan_cache.step_derives"] =
        static_cast<double>(cache.step_derives - before.step_derives);
    const std::uint64_t batches = window_stats.batches - stats_at.batches;
    r.per_layer["decode_session.batches"] = static_cast<double>(batches);
    r.per_layer["decode_session.mean_batch"] =
        batches == 0 ? 0.0
                     : static_cast<double>(window_stats.steps - stats_at.steps) /
                           static_cast<double>(batches);
    r.per_layer["session.submit_us"] = median(submit_us);
    const double n_tokens = static_cast<double>(std::max<std::uint64_t>(1, counted_tokens));
    r.per_layer["engine.sim_cycles"] = static_cast<double>(step_stats.cycles) / n_tokens;
    r.per_layer["engine.mac_ops"] = static_cast<double>(step_stats.activity.mac_ops) / n_tokens;
    r.per_layer["engine.exp_ops"] = static_cast<double>(step_stats.activity.exp_ops) / n_tokens;
    r.per_layer["engine.pe_utilization"] = step_stats.activity.occupancy();

    std::vector<double> compile_ms;
    double tiles = 0.0;
    for (int t = kServiceStride - 1; t < kMaxLength; t += kServiceStride) {
        std::size_t plan_tiles = 0;
        compile_ms.push_back(timed(tracer, "scheduler.compile", [&] {
            plan_tiles = compile(decode_pattern(t + 1), kHeadDim, cfg1).plan().tiles.size();
        }));
        tiles += static_cast<double>(plan_tiles);
    }
    r.per_layer["compiled_plan.derive_step_us"] = mean(derive_us);
    r.per_layer["engine.run_step_us"] = mean(run_us);
    r.per_layer["streaming.append_us"] = mean(append_us);
    r.per_layer["streaming.assemble_us"] = mean(assemble_us);
    r.per_layer["scheduler.compile_ms"] = mean(compile_ms);
    r.per_layer["scheduler.tiles"] = tiles / static_cast<double>(compile_ms.size());
    r.per_layer["decode_session.step_wait_ms_p50"] = median(latency_ms) - step_service_ms;
    return r;
}

}  // namespace perfbench
