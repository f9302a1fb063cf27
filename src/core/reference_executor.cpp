#include "core/reference_executor.hpp"

#include <vector>

#include "numeric/quantize.hpp"
#include "sim/tile_costs.hpp"
#include "sim/tile_executor.hpp"
#include "sim/wsm.hpp"

namespace salo {

namespace {

/// One head: `q` has one row per query the plan's tiles name (all rows of
/// a full plan, one row for a micro-plan); `k`/`v` have plan.n rows.
HeadResult reference_head(const SaloConfig& config, const PwlExp& exp_unit,
                          const Reciprocal& recip_unit, const SchedulePlan& plan,
                          const Matrix<float>& q, const Matrix<float>& k,
                          const Matrix<float>& v, float scale) {
    SALO_EXPECTS(k.rows() == plan.n && v.rows() == plan.n);
    SALO_EXPECTS(q.cols() == plan.head_dim && k.cols() == plan.head_dim &&
                 v.cols() == plan.head_dim);
    Matrix<float> q_scaled = q;
    for (auto& x : q_scaled.data()) x *= scale;
    const Matrix<std::int8_t> qq = quantize<InputFx>(q_scaled);
    const Matrix<std::int8_t> kq = quantize<InputFx>(k);
    const Matrix<std::int8_t> vq = quantize<InputFx>(v);

    const TileExecutor exec(exp_unit, recip_unit, qq, kq, vq);
    WeightedSumModule wsm(qq.rows(), qq.cols(), recip_unit);
    TileCostAccountant accountant(config.tile_cost_params(plan.head_dim));
    HeadResult result;
    SimStats& stats = result.stats;
    std::vector<TilePart> parts;
    for (const TileTask& tile : plan.tiles) {
        parts.clear();
        exec.run(tile, parts, stats.activity);
        for (const TilePart& p : parts) wsm.merge(p);
        const TileCostAccountant::Step step = accountant.account(tile);
        stats.cycles += step.cycles;
        ++stats.tiles;
        for (int s = 0; s < 5; ++s)
            stats.stage_totals.stage[s] += step.cost.breakdown.stage[s];
        stats.activity.pe_cycles += static_cast<std::int64_t>(tile.rows()) * tile.cols() *
                                    step.cost.breakdown.total();
    }
    result.output = wsm.finalize();
    return result;
}

}  // namespace

LayerResult reference_run(const SaloConfig& config, const CompiledPlan& plan,
                          const Tensor3<float>& q, const Tensor3<float>& k,
                          const Tensor3<float>& v, float scale) {
    SALO_EXPECTS(!plan.is_step());
    SALO_EXPECTS(q.count() == k.count() && k.count() == v.count());
    SALO_EXPECTS(q.rows() == plan.n());
    LayerResult result;
    result.output = Tensor3<float>(q.count(), q.rows(), q.cols());
    result.schedule = plan.schedule_stats();
    const PwlExp exp_unit(config.exp_config);
    const Reciprocal recip_unit(config.recip_config);
    for (int h = 0; h < q.count(); ++h) {
        HeadResult head = reference_head(config, exp_unit, recip_unit, plan.plan(), q[h],
                                         k[h], v[h], scale);
        result.output[h] = std::move(head.output);
        result.stats += head.stats;
    }
    return result;
}

StepResult reference_run_step(const SaloConfig& config, const CompiledPlan& micro,
                              const Matrix<float>& q_row, const Tensor3<float>& k,
                              const Tensor3<float>& v, float scale) {
    SALO_EXPECTS(micro.is_step());
    const int heads = q_row.rows();
    const int d = q_row.cols();
    SALO_EXPECTS(k.count() == heads && v.count() == heads);
    StepResult result;
    result.position = micro.step().position;
    result.output = Tensor3<float>(heads, 1, d);
    const PwlExp exp_unit(config.exp_config);
    const Reciprocal recip_unit(config.recip_config);
    for (int h = 0; h < heads; ++h) {
        Matrix<float> q(1, d, 0.0f);
        for (int x = 0; x < d; ++x) q(0, x) = q_row(h, x);
        HeadResult head =
            reference_head(config, exp_unit, recip_unit, micro.plan(), q, k[h], v[h], scale);
        result.output[h] = std::move(head.output);
        result.stats += head.stats;
    }
    return result;
}

}  // namespace salo
