#include "core/engine.hpp"

#include <algorithm>
#include <limits>

#include "attention/golden.hpp"
#include "numeric/quantize.hpp"
#include "sim/cycle_accurate.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"

namespace salo {

namespace {

/// Min/max query id over a tile's emitted parts, as a [lo, hi) range for
/// the merge phase's shard-skip test ({0, 0} when the tile emitted none).
QueryShard part_query_bounds(const PartArena& arena, const PartSpan& span) {
    if (span.count == 0) return QueryShard{0, 0};
    QueryShard bounds{std::numeric_limits<int>::max(), std::numeric_limits<int>::min()};
    for (std::uint32_t i = 0; i < span.count; ++i) {
        const int query = arena.at(span.first + i).query;
        bounds.lo = std::min(bounds.lo, query);
        bounds.hi = std::max(bounds.hi, query + 1);
    }
    return bounds;
}

/// The golden mask over the plan's key rows. A decode micro-plan's single
/// query is row `position` of the pattern, and its keys are the compact
/// layout [pinned globals][window_lo .. position]: a pinned global that also
/// lies in the window counts once, at its window copy. Ascending compact
/// order is then ascending absolute order, so masked_attention sums in the
/// same order as golden() over the full prefix — bit-identical rows.
AttendFn golden_mask(const CompiledPlan& plan) {
    const HybridPattern& pattern = plan.pattern();
    if (!plan.is_step()) return pattern.attend_fn();
    const StepGeometry sg = plan.step();
    return [&pattern, sg](int, int cj) {
        if (cj < sg.num_globals) {
            const int j = pattern.global_tokens()[static_cast<std::size_t>(cj)];
            return j < sg.window_lo && pattern.attends(sg.position, j);
        }
        return pattern.attends(sg.position, sg.window_lo + (cj - sg.num_globals));
    };
}

/// Run heads [0, heads) through `run_head` — across `pool` when non-null,
/// else in order — move their outputs into `out` and return the summed
/// stats.
template <typename RunHead>
SimStats run_heads(int heads, ThreadPool* pool, Tensor3<float>& out,
                   const RunHead& run_head) {
    std::vector<HeadResult> results(static_cast<std::size_t>(heads));
    if (pool != nullptr)
        pool->parallel_for(heads, [&](int h, int) {
            results[static_cast<std::size_t>(h)] = run_head(h);
        });
    else
        for (int h = 0; h < heads; ++h) results[static_cast<std::size_t>(h)] = run_head(h);
    SimStats stats;
    for (int h = 0; h < heads; ++h) {
        out[h] = std::move(results[static_cast<std::size_t>(h)].output);
        stats += results[static_cast<std::size_t>(h)].stats;
    }
    return stats;
}

}  // namespace

SaloEngine::SaloEngine() : SaloEngine(SaloConfig{}) {}

SaloEngine::SaloEngine(const SaloConfig& config)
    : config_(config), exp_unit_(config.exp_config), recip_unit_(config.recip_config),
      plan_cache_(static_cast<std::size_t>(std::max(1, config.plan_cache_capacity))) {
    config_.validate();
    if (config_.shared_plan_store)
        plan_cache_.attach_shared_store(config_.shared_plan_store);
}

ThreadPool& SaloEngine::pool() const {
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(config_.effective_threads());
    });
    return *pool_;
}

CompiledPlanPtr SaloEngine::compile(const HybridPattern& pattern, int head_dim) const {
    return plan_cache_.get_or_compile(pattern, head_dim, config_);
}

PlanCacheStats SaloEngine::plan_cache_stats() const { return plan_cache_.stats(); }

SchedulePlan SaloEngine::plan(const HybridPattern& pattern, int head_dim) const {
    return schedule(pattern, config_.geometry, head_dim, config_.schedule_options);
}

void SaloEngine::check_compatible(const CompiledPlan& plan) const {
    SALO_EXPECTS(plan.geometry() == config_.geometry);
    SALO_EXPECTS(plan.options() == config_.schedule_options);
}

Matrix<float> SaloEngine::golden(const HybridPattern& pattern, const Matrix<float>& q,
                                 const Matrix<float>& k, const Matrix<float>& v,
                                 float scale) {
    return masked_attention(q, k, v, scale, pattern.attend_fn());
}

SaloEngine::RunControl SaloEngine::control(const RunOptions& options) const {
    RunControl ctl;
    ctl.cancel = options.cancel.cancellable() ? &options.cancel : nullptr;
    ctl.has_deadline = options.deadline.has_value();
    if (options.deadline) ctl.deadline = *options.deadline;
    ctl.fault = options.fault_injector != nullptr ? options.fault_injector
                                                  : config_.fault_injector.get();
    return ctl;
}

HeadResult SaloEngine::run_head_impl(const CompiledPlan& plan, const Matrix<float>& q,
                                     const Matrix<float>& k, const Matrix<float>& v,
                                     float scale, Fidelity fidelity, int threads,
                                     ParallelWorkspace* ws, const RunControl* ctl) const {
    const int d = plan.head_dim();
    SALO_EXPECTS(q.rows() == (plan.is_step() ? 1 : plan.n()));
    SALO_EXPECTS(k.rows() == plan.n() && v.rows() == plan.n());
    SALO_EXPECTS(q.cols() == d && k.cols() == d && v.cols() == d);

    if (fidelity == Fidelity::kGolden) {
        // No tile loop here: the head boundary (-1) is the only checkpoint.
        if (ctl != nullptr) ctl->check(-1);
        HeadResult result;
        result.output = masked_attention(q, k, v, scale, golden_mask(plan));
        return result;
    }

    // Quantize at the accelerator boundary; the 1/sqrt(d) scaling is folded
    // into Q (driver-side preprocessing, see DESIGN.md). Quantization is
    // elementwise, so a decode step's query row and compact K/V rows get
    // exactly the bits the full-prefix run gives the same rows.
    Matrix<float> q_scaled = q;
    for (auto& x : q_scaled.data()) x *= scale;
    const Matrix<std::int8_t> qq = quantize<InputFx>(q_scaled);
    const Matrix<std::int8_t> kq = quantize<InputFx>(k);
    const Matrix<std::int8_t> vq = quantize<InputFx>(v);

    const SchedulePlan& p = plan.plan();
    const int lanes = threads > 1 && p.tiles.size() > 1 ? pool().lanes() : 1;
    ParallelWorkspace scratch_ws;
    ParallelWorkspace& w = ws != nullptr ? *ws : scratch_ws;
    if (fidelity == Fidelity::kFunctional) {
        const TileExecutor exec(exp_unit_, recip_unit_, qq, kq, vq);
        return run_tiles(
            p, qq.rows(), d, lanes, false,
            [&](const TileTask& tile, PartArena& arena, ActivityStats& activity,
                PartScratch& scratch) { exec.run(tile, arena, activity, scratch); },
            w, ctl);
    }
    const CycleAccurateArray array(config_.geometry, config_.cycle_config(), exp_unit_,
                                   recip_unit_, qq, kq, vq);
    return run_tiles(
        p, qq.rows(), d, lanes, true,
        [&](const TileTask& tile, PartArena& arena, ActivityStats& activity, PartScratch&) {
            std::vector<TilePart> parts;
            array.run(tile, parts, activity);
            for (TilePart& part : parts) arena.alloc(0) = std::move(part);
        },
        w, ctl);
}

// ---------------------------------------------------------------------------
// The tile loop. With one lane it executes a tile, merges its parts and
// resets the arena before the next, so a head never holds more than one
// tile's parts. With N lanes:
//
// Phase A  workers claim tiles from the pool's ticket counter and execute
//          them into per-lane part arenas, recording an (arena, range) span
//          per tile. No shared mutable state beyond the counter.
// Phase B  query rows are partitioned into balanced shards; each lane
//          replays the *full* part stream in schedule order and merges only
//          the parts of its shard. Per-query merge order is therefore
//          exactly the one-lane order — bit-identical output for any
//          thread count and any tile->lane assignment.
// Phase C  (both cases) cycle accounting in schedule order on the calling
//          thread: the load-overlap model is inherently sequential, but it
//          is O(tiles), not O(work).
// ---------------------------------------------------------------------------
template <typename RunTile>
HeadResult SaloEngine::run_tiles(const SchedulePlan& plan, int n, int d, int lanes,
                                 bool measures_pe_cycles, const RunTile& run_tile,
                                 ParallelWorkspace& ws, const RunControl* ctl) const {
    const int num_tiles = static_cast<int>(plan.tiles.size());
    const auto lane_count = static_cast<std::size_t>(lanes);
    WeightedSumModule wsm(n, d, recip_unit_);
    ws.arenas.resize(lane_count);
    ws.scratch.resize(lane_count);
    ws.lane_activity.assign(lane_count, ActivityStats{});

    if (lanes == 1) {
        PartArena& arena = ws.arenas[0];
        for (int t = 0; t < num_tiles; ++t) {
            if (ctl != nullptr) ctl->check(t);
            arena.reset();
            run_tile(plan.tiles[static_cast<std::size_t>(t)], arena, ws.lane_activity[0],
                     ws.scratch[0]);
            for (std::size_t i = 0; i < arena.used(); ++i) wsm.merge(arena.at(i));
        }
    } else {
        ThreadPool& workers = pool();
        for (PartArena& a : ws.arenas) a.reset();
        ws.spans.resize(static_cast<std::size_t>(num_tiles));
        ws.tile_bounds.resize(static_cast<std::size_t>(num_tiles));

        // Larger claim chunks cut ticket-counter contention; tiles are small.
        const int chunk = std::max(1, num_tiles / (lanes * 8));
        workers.parallel_for(
            num_tiles,
            [&](int t, int lane) {
                // Tile boundary: cancellation/deadline/fault checks. A
                // throw fails only this run — sibling tiles of the same
                // region still execute (pool fault isolation), and the
                // first error is rethrown to this run's caller after the
                // region completes.
                if (ctl != nullptr) ctl->check(t);
                const auto l = static_cast<std::size_t>(lane);
                PartArena& arena = ws.arenas[l];
                const auto first = static_cast<std::uint32_t>(arena.used());
                run_tile(plan.tiles[static_cast<std::size_t>(t)], arena,
                         ws.lane_activity[l], ws.scratch[l]);
                const PartSpan span{lane, first,
                                    static_cast<std::uint32_t>(arena.used() - first)};
                ws.spans[static_cast<std::size_t>(t)] = span;
                ws.tile_bounds[static_cast<std::size_t>(t)] =
                    part_query_bounds(arena, span);
            },
            chunk);

        // Merge shards partition the plan's query rows. Only full plans take
        // N lanes (a decode step runs one lane per head), so they are the
        // WSM's rows.
        SALO_ASSERT(n == plan.n);
        if (ws.shards.empty()) ws.shards = partition_query_rows(plan, lanes);
        workers.parallel_for(static_cast<int>(ws.shards.size()), [&](int s, int) {
            const QueryShard shard = ws.shards[static_cast<std::size_t>(s)];
            for (int t = 0; t < num_tiles; ++t) {
                const QueryShard bounds = ws.tile_bounds[static_cast<std::size_t>(t)];
                if (bounds.hi <= shard.lo || bounds.lo >= shard.hi) continue;
                const PartSpan& span = ws.spans[static_cast<std::size_t>(t)];
                const PartArena& arena = ws.arenas[static_cast<std::size_t>(span.lane)];
                for (std::uint32_t i = 0; i < span.count; ++i)
                    wsm.merge_shard(arena.at(span.first + i), shard.lo, shard.hi);
            }
        });
    }

    HeadResult result;
    SimStats& stats = result.stats;
    TileCostAccountant accountant(config_.tile_cost_params(d));
    for (const TileTask& tile : plan.tiles) {
        const TileCostAccountant::Step step = accountant.account(tile);
        stats.cycles += step.cycles;
        ++stats.tiles;
        for (int s = 0; s < 5; ++s)
            stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
        if (!measures_pe_cycles)
            stats.activity.pe_cycles += static_cast<std::int64_t>(tile.rows()) *
                                        tile.cols() * step.cost.breakdown.total();
    }
    for (const ActivityStats& a : ws.lane_activity) stats.activity += a;
    result.output = wsm.finalize();
    return result;
}

// ---------------------------------------------------------------------------
// Compiled-plan entry points.
// ---------------------------------------------------------------------------

CompiledPlanPtr SaloEngine::compile_step(const HybridPattern& pattern,
                                         int head_dim) const {
    return plan_cache_.get_or_derive_step(pattern, head_dim, config_);
}

StepResult SaloEngine::run_step(const CompiledPlan& micro, const Matrix<float>& q_row,
                                const Tensor3<float>& k, const Tensor3<float>& v,
                                float scale, const RunOptions& options) const {
    check_compatible(micro);
    SALO_EXPECTS(micro.is_step());
    const int heads = q_row.rows();
    const int d = micro.head_dim();
    SALO_EXPECTS(heads >= 1);
    SALO_EXPECTS(q_row.cols() == d);
    SALO_EXPECTS(k.count() == heads && v.count() == heads);

    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    const RunControl ctl_storage = control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;
    const int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;

    StepResult result;
    result.position = micro.step().position;
    result.output = Tensor3<float>(heads, 1, d);
    // Heads are independent; a step's per-head tile loop is tiny, so a head
    // is the only sensible work quantum.
    result.stats = run_heads(heads, threads > 1 && heads > 1 ? &pool() : nullptr,
                             result.output, [&](int h) {
                                 Matrix<float> q(1, d, 0.0f);
                                 for (int x = 0; x < d; ++x) q(0, x) = q_row(h, x);
                                 return run_head_impl(micro, q, k[h], v[h], scale, fidelity,
                                                      1, nullptr, ctl);
                             });
    return result;
}

HeadResult SaloEngine::run_head(const CompiledPlan& plan, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    check_compatible(plan);
    return run_head_impl(plan, q, k, v, scale, config_.fidelity,
                         config_.effective_threads());
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    return run(plan, q, k, v, scale, config_.fidelity, 0);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            Fidelity fidelity, int thread_budget) const {
    RunOptions options;
    options.fidelity = fidelity;
    options.thread_budget = thread_budget;
    return run(plan, q, k, v, scale, options);
}

LayerResult SaloEngine::run(const CompiledPlan& plan, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v, float scale,
                            const RunOptions& options) const {
    check_compatible(plan);
    SALO_EXPECTS(q.count() == k.count() && k.count() == v.count());
    SALO_EXPECTS(q.count() >= 1);
    const Fidelity fidelity = options.fidelity.value_or(config_.fidelity);
    // Resolve the robustness hooks once; a null control keeps the tile
    // loop free of clock reads and atomic loads (the common case).
    const RunControl ctl_storage = control(options);
    const RunControl* ctl = ctl_storage.active() ? &ctl_storage : nullptr;
    const int heads = q.count();
    const int threads =
        options.thread_budget <= 0 ? config_.effective_threads() : options.thread_budget;

    // Large plans: tile-level parallelism inside each head dominates
    // (near-perfect balance even when heads % threads != 0). Small plans —
    // and golden fidelity, which has no tiles — parallelize across heads: a
    // head is the work quantum, and each task runs one lane so the two
    // levels never nest. Heads are independent, so results are identical
    // either way.
    const bool tile_parallel =
        threads > 1 && fidelity != Fidelity::kGolden &&
        (static_cast<int>(plan.plan().tiles.size()) >= 2 * threads || heads == 1);
    const bool head_parallel = threads > 1 && !tile_parallel;
    // Heads that run one after another share one workspace, so arenas keep
    // their capacity.
    ParallelWorkspace ws;

    LayerResult result;
    result.output = Tensor3<float>(heads, q.rows(), q.cols());
    result.schedule = plan.schedule_stats();
    result.stats = run_heads(heads, head_parallel ? &pool() : nullptr, result.output,
                             [&](int h) {
                                 return run_head_impl(plan, q[h], k[h], v[h], scale,
                                                      fidelity, tile_parallel ? threads : 1,
                                                      head_parallel ? nullptr : &ws, ctl);
                             });
    return result;
}

// ---------------------------------------------------------------------------
// Legacy one-shot API: thin shims over compile + run. The engine's
// PlanCache makes repeated calls with the same pattern/geometry free of
// scheduler work.
// ---------------------------------------------------------------------------

HeadResult SaloEngine::run_head(const HybridPattern& pattern, const Matrix<float>& q,
                                const Matrix<float>& k, const Matrix<float>& v,
                                float scale) const {
    return run_head(*compile(pattern, q.cols()), q, k, v, scale);
}

LayerResult SaloEngine::run(const HybridPattern& pattern, const Tensor3<float>& q,
                            const Tensor3<float>& k, const Tensor3<float>& v,
                            float scale) const {
    SALO_EXPECTS(q.count() >= 1);
    return run(*compile(pattern, q.cols()), q, k, v, scale);
}

}  // namespace salo
