// The seed's sequential datapath, kept as the reference SaloEngine is
// checked against: one head at a time, one tile at a time, through the
// scalar TileExecutor::run(tile, vector&, ...), every part merged into the
// weighted-sum module in schedule order, cycles accounted tile by tile with
// TileCostAccountant. Functional fidelity only. The engine must reproduce
// it bit for bit, outputs and SimStats, at every thread count; the tests
// and bench_throughput's seed baseline run it.
#pragma once

#include "core/compiled_plan.hpp"
#include "core/config.hpp"
#include "core/engine.hpp"
#include "tensor/tensor3.hpp"

namespace salo {

/// A layer on a full compiled plan: SaloEngine::run at functional fidelity.
LayerResult reference_run(const SaloConfig& config, const CompiledPlan& plan,
                          const Tensor3<float>& q, const Tensor3<float>& k,
                          const Tensor3<float>& v, float scale);

/// A decode step on a micro-plan against the compact K/V layout:
/// SaloEngine::run_step at functional fidelity.
StepResult reference_run_step(const SaloConfig& config, const CompiledPlan& micro,
                              const Matrix<float>& q_row, const Tensor3<float>& k,
                              const Tensor3<float>& v, float scale);

}  // namespace salo
