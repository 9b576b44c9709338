/**
 * @file
 * Golden plan-equivalence tests for the scheduler fast path: the
 * PlanScratch arena implementation (default) and the seed data path
 * (TetriOptions::reference_plan) must emit bit-identical RoundPlans —
 * per call on randomized contexts, and assignment-for-assignment over
 * full end-to-end serving runs on mixed FLUX.1-dev and SD3-Medium
 * traces. Any divergence in the memo caches, the flat DP, the
 * incremental GPU counter, or buffer reuse across rounds shows up here
 * as a concrete mismatched assignment.
 */
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "serving/system.h"

namespace tetri::core {
namespace {

using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using serving::Request;
using serving::RequestTracker;
using serving::ScheduleContext;

void
ExpectPlansIdentical(const serving::RoundPlan& fast,
                     const serving::RoundPlan& ref)
{
  ASSERT_EQ(fast.assignments.size(), ref.assignments.size());
  for (std::size_t i = 0; i < fast.assignments.size(); ++i) {
    const auto& a = fast.assignments[i];
    const auto& b = ref.assignments[i];
    EXPECT_EQ(a.requests, b.requests) << "assignment " << i;
    EXPECT_EQ(a.mask, b.mask) << "assignment " << i;
    EXPECT_EQ(a.max_steps, b.max_steps) << "assignment " << i;
  }
}

/** Random-context sweep: each Plan() call must match the reference
 * bit for bit, including repeated calls against the same scheduler so
 * arena reuse across rounds is exercised. */
class PlanEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(PlanEquivalenceSweep, FastPathMatchesReference)
{
  auto [seed, model_idx] = GetParam();
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  auto table = LatencyTable::Profile(cost, 4, 20, 5);

  TetriOptions fast_opts;
  TetriOptions ref_opts;
  ref_opts.reference_plan = true;
  TetriScheduler fast(&table, fast_opts);
  TetriScheduler ref(&table, ref_opts);
  ASSERT_EQ(fast.RoundDurationUs(), ref.RoundDurationUs());

  Rng rng(seed);
  RequestTracker tracker;
  const int num_requests = 1 + static_cast<int>(rng.NextBelow(24));
  const TimeUs base_now = 1000000;
  for (RequestId id = 0; id < num_requests; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us =
        base_now - static_cast<TimeUs>(rng.NextBelow(3000000));
    meta.deadline_us =
        meta.arrival_us +
        static_cast<TimeUs>(
            workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
            rng.NextRange(0.7, 1.7));
    meta.num_steps = 50;
    Request& req = tracker.Admit(meta);
    req.steps_done = static_cast<int>(rng.NextBelow(49));
    if (rng.NextDouble() < 0.5) {
      req.last_degree = 1 << rng.NextBelow(4);
      req.last_mask = cluster::FullMask(req.last_degree)
                      << rng.NextBelow(4);
    }
  }

  // Several rounds against the same scheduler pair: round 2+ runs on
  // warm scratch buffers, which must not change any output.
  for (int round = 0; round < 3; ++round) {
    const TimeUs now =
        base_now + round * fast.RoundDurationUs();
    auto schedulable = tracker.Schedulable(now);
    if (schedulable.empty()) break;
    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + fast.RoundDurationUs();
    ctx.free_gpus =
        cluster::FullMask(1 + static_cast<int>(rng.NextBelow(8)));
    ctx.schedulable = &schedulable;
    ctx.topology = &topo;
    ctx.table = &table;

    auto fast_plan = fast.Plan(ctx);
    auto ref_plan = ref.Plan(ctx);
    ExpectPlansIdentical(fast_plan, ref_plan);

    // Advance request state a little so later rounds see different
    // queues (mimic partial execution without running the engine).
    for (Request* req : schedulable) {
      if (rng.NextDouble() < 0.4 && req->RemainingSteps() > 1) {
        req->steps_done += 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanEquivalenceSweep,
                         ::testing::Combine(::testing::Range(1, 40),
                                            ::testing::Values(0, 1)));

/** End-to-end golden run: serve a mixed-resolution trace to completion
 * under both paths and require identical execution, assignment for
 * assignment. */
class EndToEndEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(EndToEndEquivalence, RunsAreAssignmentIdentical)
{
  auto [model_idx, slo_scale] = GetParam();
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  serving::ServingConfig config;
  config.record_timeline = true;
  serving::ServingSystem system(&topo, &model, config);

  workload::TraceSpec spec;
  spec.num_requests = 100;
  spec.slo_scale = slo_scale;
  if (model_idx == 1) spec.mix = workload::ResolutionMix::Skewed();
  auto trace = workload::BuildTrace(spec);

  TetriOptions ref_opts;
  ref_opts.reference_plan = true;
  TetriScheduler fast(&system.table());
  TetriScheduler ref(&system.table(), ref_opts);

  auto fast_result = system.Run(&fast, trace);
  auto ref_result = system.Run(&ref, trace);

  // Aggregate accounting must match exactly (same plans -> same
  // jittered executions -> identical double accumulation order).
  EXPECT_EQ(fast_result.makespan_us, ref_result.makespan_us);
  EXPECT_EQ(fast_result.num_assignments, ref_result.num_assignments);
  EXPECT_EQ(fast_result.num_dropped, ref_result.num_dropped);
  EXPECT_EQ(fast_result.busy_gpu_us, ref_result.busy_gpu_us);

  // Per-request outcomes.
  ASSERT_EQ(fast_result.records.size(), ref_result.records.size());
  for (std::size_t i = 0; i < fast_result.records.size(); ++i) {
    const auto& a = fast_result.records[i];
    const auto& b = ref_result.records[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.completion_us, b.completion_us) << "request " << a.id;
    EXPECT_EQ(a.gpu_time_us, b.gpu_time_us) << "request " << a.id;
    EXPECT_EQ(a.steps_executed, b.steps_executed) << "request " << a.id;
    EXPECT_EQ(a.degree_step_sum, b.degree_step_sum)
        << "request " << a.id;
  }

  // The full execution log, assignment for assignment.
  const auto& fast_tl = fast_result.timeline.entries();
  const auto& ref_tl = ref_result.timeline.entries();
  ASSERT_EQ(fast_tl.size(), ref_tl.size());
  for (std::size_t i = 0; i < fast_tl.size(); ++i) {
    EXPECT_EQ(fast_tl[i].start_us, ref_tl[i].start_us) << "entry " << i;
    EXPECT_EQ(fast_tl[i].end_us, ref_tl[i].end_us) << "entry " << i;
    EXPECT_EQ(fast_tl[i].mask, ref_tl[i].mask) << "entry " << i;
    EXPECT_EQ(fast_tl[i].batch, ref_tl[i].batch) << "entry " << i;
    EXPECT_EQ(fast_tl[i].steps, ref_tl[i].steps) << "entry " << i;
    EXPECT_EQ(fast_tl[i].requests, ref_tl[i].requests)
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MixedTraces, EndToEndEquivalence,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(0.8, 1.0, 1.4)));

/**
 * Packer matrix over full serving runs: "dp" and "staircase" are one
 * algorithm behind the pluggable interface, so their runs (and the
 * built-in Stage 2's) must be bit-identical; "progressive" is a
 * feasible heuristic, so it must serve the same request set to
 * terminal states with attainment in the same regime (>= half the
 * DP's on these mild traces), without ever beating the DP by more
 * than the DP's own optimality allows at the round level.
 */
class PackerMatrixEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(PackerMatrixEquivalence, DpPathsIdenticalProgressiveBounded)
{
  auto [model_idx, slo_scale] = GetParam();
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  serving::ServingConfig config;
  config.record_timeline = true;
  serving::ServingSystem system(&topo, &model, config);

  workload::TraceSpec spec;
  spec.num_requests = 80;
  spec.slo_scale = slo_scale;
  if (model_idx == 1) spec.mix = workload::ResolutionMix::Skewed();
  auto trace = workload::BuildTrace(spec);

  auto run = [&](packers::PackerKind kind) {
    TetriOptions opts;
    opts.packer = kind;
    TetriScheduler scheduler(&system.table(), opts);
    return system.Run(&scheduler, trace);
  };
  auto builtin_result = [&] {
    TetriScheduler scheduler(&system.table());
    return system.Run(&scheduler, trace);
  }();
  auto dp_result = run(packers::PackerKind::kDp);
  auto staircase_result = run(packers::PackerKind::kStaircase);
  auto progressive_result = run(packers::PackerKind::kProgressive);

  // dp == staircase == builtin, execution log entry for entry.
  for (const auto* result : {&dp_result, &staircase_result}) {
    EXPECT_EQ(builtin_result.makespan_us, result->makespan_us);
    EXPECT_EQ(builtin_result.num_assignments, result->num_assignments);
    EXPECT_EQ(builtin_result.busy_gpu_us, result->busy_gpu_us);
    const auto& a = builtin_result.timeline.entries();
    const auto& b = result->timeline.entries();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].start_us, b[i].start_us) << "entry " << i;
      EXPECT_EQ(a[i].mask, b[i].mask) << "entry " << i;
      EXPECT_EQ(a[i].requests, b[i].requests) << "entry " << i;
    }
  }

  // Progressive: same request universe, terminal outcomes for all,
  // attainment in the DP's regime.
  ASSERT_EQ(progressive_result.records.size(),
            builtin_result.records.size());
  for (const auto& record : progressive_result.records) {
    EXPECT_NE(record.outcome, metrics::Outcome::kUnfinished)
        << "request " << record.id;
  }
  const auto dp_sar = builtin_result.Sar();
  const auto progressive_sar = progressive_result.Sar();
  EXPECT_EQ(progressive_sar.total, dp_sar.total);
  EXPECT_GE(progressive_sar.met, dp_sar.met / 2)
      << "progressive attained " << progressive_sar.met << "/"
      << progressive_sar.total << " vs dp " << dp_sar.met;
}

INSTANTIATE_TEST_SUITE_P(
    PackerMatrix, PackerMatrixEquivalence,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(1.0, 1.4)));

}  // namespace
}  // namespace tetri::core
