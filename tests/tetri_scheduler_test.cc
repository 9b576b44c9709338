/**
 * @file
 * TetriScheduler behaviour tests: plan validity invariants over many
 * contexts (property sweep), placement preservation, elastic
 * scale-up, selective batching, best-effort lane, round duration, and
 * the decision trace (round spans, candidates, stage-tagged choices,
 * overload sheds, degrade events — all purely observational).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "audit/checkers.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "trace/trace.h"

namespace tetri::core {
namespace {

using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using serving::Request;
using serving::RequestTracker;
using serving::ScheduleContext;

class TetriSchedulerTest : public ::testing::Test {
 protected:
  TetriSchedulerTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        table_(LatencyTable::Profile(cost_, 4, 20, 5))
  {
  }

  Request& Admit(RequestId id, Resolution res, TimeUs now,
                 double slo_scale = 1.0, int steps = 50)
  {
    workload::TraceRequest meta;
    meta.id = id;
    meta.arrival_us = now;
    meta.deadline_us =
        now + static_cast<TimeUs>(
                  slo_scale *
                  workload::SloPolicy::BaseTargetSec(res) * 1e6);
    meta.resolution = res;
    meta.num_steps = steps;
    return tracker_.Admit(meta);
  }

  ScheduleContext MakeContext(TimeUs now, TimeUs tau,
                              GpuMask free = 0xFF)
  {
    schedulable_ = tracker_.Schedulable(now);
    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + tau;
    ctx.free_gpus = free;
    ctx.schedulable = &schedulable_;
    ctx.topology = &topo_;
    ctx.table = &table_;
    return ctx;
  }

  /** Structural invariants every plan must satisfy. */
  void ValidatePlan(const serving::RoundPlan& plan,
                    const ScheduleContext& ctx)
  {
    GpuMask used = 0;
    for (const auto& a : plan.assignments) {
      EXPECT_NE(a.mask, 0u);
      EXPECT_TRUE(cluster::IsPow2(cluster::Popcount(a.mask)));
      EXPECT_EQ(a.mask & used, 0u) << "overlapping assignment";
      EXPECT_EQ(a.mask & ~ctx.free_gpus, 0u) << "uses busy GPUs";
      used |= a.mask;
      EXPECT_GE(a.max_steps, 1);
      ASSERT_FALSE(a.requests.empty());
      const Resolution res =
          tracker_.Get(a.requests.front()).meta.resolution;
      for (RequestId id : a.requests) {
        EXPECT_EQ(tracker_.Get(id).meta.resolution, res);
        EXPECT_LE(a.max_steps, tracker_.Get(id).RemainingSteps());
      }
    }
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatencyTable table_;
  RequestTracker tracker_;
  std::vector<Request*> schedulable_;
};

TEST_F(TetriSchedulerTest, RoundDurationScalesWithGranularity)
{
  TetriOptions opt1, opt5;
  opt1.step_granularity = 1;
  opt5.step_granularity = 5;
  TetriScheduler s1(&table_, opt1), s5(&table_, opt5);
  EXPECT_NEAR(static_cast<double>(s5.RoundDurationUs()),
              5.0 * s1.RoundDurationUs(), 5.0);
  EXPECT_GT(s1.RoundDurationUs(), 0);
}

TEST_F(TetriSchedulerTest, SingleUrgentLargeRequestGetsMaxDegree)
{
  TetriScheduler sched(&table_);
  Admit(0, Resolution::k2048, 0);
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ValidatePlan(plan, ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  // Tight 2048 deadline needs SP=8 (possibly after elastic scale-up).
  EXPECT_EQ(cluster::Popcount(plan.assignments[0].mask), 8);
}

TEST_F(TetriSchedulerTest, RelaxedSmallRequestStaysNarrow)
{
  TetriScheduler sched(&table_);
  Admit(0, Resolution::k256, 0, /*slo_scale=*/1.5);
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ValidatePlan(plan, ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  // 256px plans never include degrees beyond SP=1 (min GPU-hours),
  // and scaling up would not make steps faster.
  EXPECT_EQ(cluster::Popcount(plan.assignments[0].mask), 1);
}

TEST_F(TetriSchedulerTest, ElasticScaleUpUsesIdleGpus)
{
  TetriOptions with, without;
  without.elastic_scale_up = false;
  Admit(0, Resolution::k1024, 0, /*slo_scale=*/1.5);

  TetriScheduler elastic(&table_, with);
  auto ctx = MakeContext(0, elastic.RoundDurationUs());
  auto plan = elastic.Plan(ctx);
  ValidatePlan(plan, ctx);
  int degree_with = cluster::Popcount(plan.assignments.at(0).mask);

  TetriScheduler rigid(&table_, without);
  auto ctx2 = MakeContext(0, rigid.RoundDurationUs());
  auto plan2 = rigid.Plan(ctx2);
  ValidatePlan(plan2, ctx2);
  int degree_without = cluster::Popcount(plan2.assignments.at(0).mask);

  // Elastic scale-up grants the lone request more GPUs (1024 keeps
  // benefiting up to SP=8); without it, the plan degree sticks.
  EXPECT_GT(degree_with, degree_without);
}

TEST_F(TetriSchedulerTest, PlacementPreservationKeepsMask)
{
  TetriScheduler sched(&table_);
  Request& req = Admit(0, Resolution::k2048, 0);
  req.last_degree = 8;
  req.last_mask = 0xFF;
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].mask, 0xFFu);
}

TEST_F(TetriSchedulerTest, SelectiveBatchingMergesSmallRequests)
{
  TetriOptions opts;
  opts.max_batch = 4;
  TetriScheduler sched(&table_, opts);
  // More relaxed 256px requests than GPUs: the overflow beyond the
  // eight solo slots joins existing assignments as batch guests
  // (batching only fires when a request would otherwise idle).
  for (RequestId id = 0; id < 12; ++id) {
    Admit(id, Resolution::k256, 0, /*slo_scale=*/1.5);
  }
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ValidatePlan(plan, ctx);
  std::size_t max_members = 0;
  std::size_t scheduled = 0;
  for (const auto& a : plan.assignments) {
    max_members = std::max(max_members, a.requests.size());
    scheduled += a.requests.size();
  }
  EXPECT_GE(max_members, 2u);
  EXPECT_GT(scheduled, 8u);  // more requests served than GPUs
}

TEST_F(TetriSchedulerTest, BatchingIdleWhenGpusAreFree)
{
  // With idle GPUs available every request keeps a dedicated group;
  // batching only trades latency for capacity under pressure.
  TetriScheduler sched(&table_);
  for (RequestId id = 0; id < 3; ++id) {
    Admit(id, Resolution::k256, 0, /*slo_scale=*/1.5);
  }
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  for (const auto& a : plan.assignments) {
    EXPECT_EQ(a.requests.size(), 1u);
  }
}

TEST_F(TetriSchedulerTest, BatchingDisabledKeepsSingletons)
{
  TetriOptions opts;
  opts.selective_batching = false;
  TetriScheduler sched(&table_, opts);
  for (RequestId id = 0; id < 12; ++id) {
    Admit(id, Resolution::k256, 0, 1.5);
  }
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  for (const auto& a : plan.assignments) {
    EXPECT_EQ(a.requests.size(), 1u);
  }
}

TEST_F(TetriSchedulerTest, LargeResolutionsAreNeverBatched)
{
  TetriScheduler sched(&table_);
  for (RequestId id = 0; id < 6; ++id) {
    Admit(id, Resolution::k2048, 0, 1.5);
  }
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  for (const auto& a : plan.assignments) {
    EXPECT_EQ(a.requests.size(), 1u);
  }
}

TEST_F(TetriSchedulerTest, DefinitelyLateGetsBestEffortSingleGpu)
{
  TetriScheduler sched(&table_);
  // A 2048 with essentially no slack left: definitely late.
  Request& req = Admit(0, Resolution::k2048, 0);
  req.meta.deadline_us = 100;
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  // Best-effort lane grants one GPU; elastic may scale it up since
  // the node is otherwise idle, but it must still be scheduled.
  EXPECT_GE(cluster::Popcount(plan.assignments[0].mask), 1);
}

TEST_F(TetriSchedulerTest, EqualValuedRequestsRunInDeadlineOrder)
{
  // Six 2048px requests one step from done, 10 us apart, with budgets
  // so ample that they share a laxity round: their Stage-2 values tie.
  // The one free GPU goes to the earliest deadline, so later arrivals
  // of the same kind cannot keep an older request waiting.
  TetriScheduler sched(&table_);
  for (RequestId id = 0; id < 6; ++id) {
    Admit(id, Resolution::k2048, static_cast<TimeUs>(id) * 10,
          /*slo_scale=*/1000.0, /*steps=*/1);
  }
  auto ctx = MakeContext(100, sched.RoundDurationUs(), /*free=*/0x01);
  auto plan = sched.Plan(ctx);
  ValidatePlan(plan, ctx);
  ASSERT_EQ(plan.assignments.size(), 1u);
  ASSERT_EQ(plan.assignments[0].requests.size(), 1u);
  EXPECT_EQ(plan.assignments[0].requests[0], 0);
}

TEST_F(TetriSchedulerTest, NoGpusMeansEmptyPlan)
{
  TetriScheduler sched(&table_);
  Admit(0, Resolution::k512, 0);
  auto ctx = MakeContext(0, sched.RoundDurationUs(), /*free=*/0);
  EXPECT_TRUE(sched.Plan(ctx).assignments.empty());
}

TEST_F(TetriSchedulerTest, NameReflectsAblations)
{
  TetriOptions opts;
  opts.placement_preservation = false;
  opts.elastic_scale_up = false;
  TetriScheduler sched(&table_, opts);
  EXPECT_EQ(sched.Name(), "TetriServe-NoPlace-NoElastic");
}

TEST_F(TetriSchedulerTest, FragmentedFreeMasksNeverAbort)
{
  // Stage 6 degrades gracefully when the free set cannot place a
  // pending (rolls elastic scale-ups back toward the packed base and,
  // as a last resort, drops the pending) instead of aborting the
  // round. Sweep heavily fragmented free masks under load, with stale
  // placement hints pointing both inside and outside the free set, and
  // require structurally valid plans throughout — no TETRI_CHECK may
  // trip.
  const GpuMask free_masks[] = {0b10101010, 0b01010101, 0b11000011,
                                0b10010110, 0b01111110, 0b10000001,
                                0b00100100, 0b11101011};
  const Resolution mix[] = {Resolution::k2048, Resolution::k1024,
                            Resolution::k512, Resolution::k256};
  for (GpuMask free : free_masks) {
    RequestTracker tracker;
    for (RequestId id = 0; id < 10; ++id) {
      workload::TraceRequest meta;
      meta.id = id;
      meta.arrival_us = 0;
      meta.resolution = mix[id % 4];
      meta.deadline_us = static_cast<TimeUs>(
          workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
          (id % 3 == 0 ? 0.9 : 1.5));
      meta.num_steps = 50;
      Request& req = tracker.Admit(meta);
      // Stale hints: previous round's placement often overlaps GPUs
      // that are busy now.
      req.last_degree = 1 << (id % 4);
      req.last_mask = cluster::FullMask(req.last_degree)
                      << (id % 5);
    }
    auto schedulable = tracker.Schedulable(0);
    TetriScheduler sched(&table_);
    ScheduleContext ctx;
    ctx.now = 0;
    ctx.round_end = sched.RoundDurationUs();
    ctx.free_gpus = free;
    ctx.schedulable = &schedulable;
    ctx.topology = &topo_;
    ctx.table = &table_;
    auto plan = sched.Plan(ctx);
    GpuMask used = 0;
    for (const auto& a : plan.assignments) {
      ASSERT_NE(a.mask, 0u);
      EXPECT_TRUE(cluster::IsPow2(cluster::Popcount(a.mask)));
      EXPECT_EQ(a.mask & used, 0u) << "overlap in free=" << free;
      EXPECT_EQ(a.mask & ~free, 0u) << "busy GPUs in free=" << free;
      used |= a.mask;
      EXPECT_GE(a.max_steps, 1);
      for (RequestId id : a.requests) {
        EXPECT_LE(a.max_steps, tracker.Get(id).RemainingSteps());
      }
    }
  }
}

TEST_F(TetriSchedulerTest, DecisionTraceCoversEveryRound)
{
  TetriScheduler sched(&table_);
  trace::RingBufferSink ring;
  sched.set_trace(&ring);

  Admit(0, Resolution::k1024, 0);
  Admit(1, Resolution::k512, 0);
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);
  ASSERT_FALSE(plan.assignments.empty());
  EXPECT_EQ(sched.rounds_planned(), 1);

  // Round 0 is bracketed by exactly one begin/end pair carrying the
  // free mask, the planning window, and the final pack utilization.
  const auto begins = ring.Query(
      trace::TraceQuery{}.WithKind(trace::TraceEventKind::kRoundBegin));
  ASSERT_EQ(begins.size(), 1u);
  EXPECT_EQ(begins[0].round, 0);
  EXPECT_EQ(begins[0].mask, ctx.free_gpus);
  EXPECT_EQ(begins[0].dur_us, ctx.round_end - ctx.now);
  const auto ends = ring.Query(
      trace::TraceQuery{}.WithKind(trace::TraceEventKind::kRoundEnd));
  ASSERT_EQ(ends.size(), 1u);
  GpuMask placed = 0;
  for (const auto& a : plan.assignments) placed |= a.mask;
  EXPECT_EQ(ends[0].mask, placed);
  EXPECT_EQ(ends[0].steps,
            static_cast<std::int32_t>(plan.assignments.size()));
  EXPECT_GT(ends[0].value, 0.0);
  EXPECT_LE(ends[0].value, 1.0);

  // Every schedulable request produced at least one allocation
  // candidate, and every planned request exactly one stage-tagged
  // choice this round.
  for (RequestId id : {RequestId{0}, RequestId{1}}) {
    EXPECT_FALSE(ring.Query(trace::TraceQuery{}
                                .WithRequest(id)
                                .WithKind(
                                    trace::TraceEventKind::kPlanCandidate))
                     .empty())
        << "request " << id;
  }
  // Every planned request carries at least one stage-tagged choice
  // (scale-up/rollback may re-decide it); the last word matches the
  // emitted assignment.
  for (const auto& a : plan.assignments) {
    for (RequestId id : a.requests) {
      const auto choices = ring.Query(
          trace::TraceQuery{}.WithRequest(id).WithKind(
              trace::TraceEventKind::kPlanChoice));
      ASSERT_GE(choices.size(), 1u) << "request " << id;
      EXPECT_NE(choices.front().reason, trace::TraceReason::kNone);
      EXPECT_EQ(choices.back().degree, cluster::Popcount(a.mask));
    }
  }

  // The next Plan() lands in round 1; per-round queries separate them.
  sched.Plan(MakeContext(ctx.round_end, sched.RoundDurationUs()));
  EXPECT_EQ(sched.rounds_planned(), 2);
  EXPECT_EQ(ring.Query(trace::TraceQuery{}.WithRound(0).WithKind(
                           trace::TraceEventKind::kRoundBegin))
                .size(),
            1u);
  EXPECT_EQ(ring.Query(trace::TraceQuery{}.WithRound(1).WithKind(
                           trace::TraceEventKind::kRoundBegin))
                .size(),
            1u);
}

TEST_F(TetriSchedulerTest, DecisionTraceDegradeForCappedRequest)
{
  TetriScheduler sched(&table_);
  trace::RingBufferSink ring;
  sched.set_trace(&ring);

  // A degraded-SP failure retry: chaos halved this request's degree
  // cap after an abort; the scheduler must plan against the cap and
  // say so in the trace.
  serving::Request& req = Admit(0, Resolution::k2048, 0, 1.5);
  req.degree_cap = 2;
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  auto plan = sched.Plan(ctx);

  const auto degrades = ring.Query(
      trace::TraceQuery{}.WithKind(trace::TraceEventKind::kDegrade));
  ASSERT_EQ(degrades.size(), 1u);
  EXPECT_EQ(degrades[0].request, 0);
  EXPECT_EQ(degrades[0].reason, trace::TraceReason::kDegreeCap);
  EXPECT_EQ(degrades[0].degree, 2);
  for (const auto& a : plan.assignments) {
    EXPECT_LE(cluster::Popcount(a.mask), 2);
  }
}

TEST_F(TetriSchedulerTest, DecisionTraceShedsUnderOverload)
{
  TetriScheduler sched(&table_);
  trace::RingBufferSink ring;
  sched.set_trace(&ring);

  // Each request is feasible alone but the aggregate GPU-work provably
  // overruns capacity x horizon: Stage 1.5 must shed, and each shed is
  // a traced decision. (A tighter SLO would mark every entry late
  // individually and bypass the EDF scan entirely.)
  for (RequestId id = 0; id < 24; ++id) {
    Admit(id, Resolution::k2048, 0, /*slo_scale=*/1.2);
  }
  auto ctx = MakeContext(0, sched.RoundDurationUs());
  sched.Plan(ctx);

  const auto sheds = ring.Query(
      trace::TraceQuery{}.WithKind(trace::TraceEventKind::kShed));
  ASSERT_FALSE(sheds.empty());
  for (const auto& shed : sheds) {
    EXPECT_EQ(shed.reason, trace::TraceReason::kDeadlineInfeasible);
    EXPECT_NE(shed.request, kInvalidRequest);
    EXPECT_EQ(shed.round, 0);
  }
}

TEST_F(TetriSchedulerTest, PlanIsBitIdenticalWithTracingEnabled)
{
  // Tracing is a pure observer: the same queue planned with and
  // without a sink yields identical assignments.
  TetriScheduler traced(&table_), untraced(&table_);
  trace::RingBufferSink ring;
  traced.set_trace(&ring);

  const Resolution mix[] = {Resolution::k2048, Resolution::k1024,
                            Resolution::k512, Resolution::k256};
  for (RequestId id = 0; id < 12; ++id) {
    Admit(id, mix[id % 4], 0, id % 3 == 0 ? 0.9 : 1.4);
  }
  auto ctx = MakeContext(0, traced.RoundDurationUs());
  const auto a = traced.Plan(ctx);
  const auto b = untraced.Plan(ctx);

  ASSERT_GT(ring.size(), 0u);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].requests, b.assignments[i].requests);
    EXPECT_EQ(a.assignments[i].mask, b.assignments[i].mask);
    EXPECT_EQ(a.assignments[i].max_steps, b.assignments[i].max_steps);
  }
}

TEST_F(TetriSchedulerTest, EdfOverloadScansInEffectiveDeadlineOrder)
{
  // Overload-control regression: the Stage-1.5 prefix scan must walk
  // requests by *effective* deadline (raw deadline minus VAE decode
  // minus margin), not by the raw-deadline order of `schedulable`. A
  // 2048px request's large VAE decode puts its effective deadline
  // before that of small requests with nominally earlier deadlines;
  // scanning in raw order charges the small requests' work against the
  // 2048's shorter horizon and falsely demotes it to the best-effort
  // lane.
  TetriOptions opts;
  opts.elastic_scale_up = false;
  opts.selective_batching = false;
  TetriScheduler probe(&table_, opts);
  const double tau = static_cast<double>(probe.RoundDurationUs());
  const double margin = opts.deadline_margin_frac;
  const double util_cap = 8.0 * opts.overload_utilization;
  const double vae_big = table_.VaeDecodeUs(Resolution::k2048);
  const double vae_small = table_.VaeDecodeUs(Resolution::k256);
  ASSERT_GT(vae_big, vae_small);

  // Search a scenario (K small requests + one big request B) where:
  //  (1) B alone fits its horizon:      W_B <= cap * h_B
  //  (2) joint work overruns it:        W_B + K*W_A > cap * h_B
  //  (3) the true EDF scan admits all:  W_B + K*W_A <= cap * h_A
  //  (4) horizons invert raw order:     h_B < h_A while D_B > D_A.
  const double w_small =
      RoundAwarePlan(table_, Resolution::k256, 50, 1e12, tau)
          .gpu_time_us;
  bool found = false;
  int num_small = 0;
  TimeUs deadline_big = 0, deadline_small = 0;
  for (int k = 1; k <= 10 && !found; ++k) {
    double h_b = 1.3 * 50.0 *
                 table_.StepTimeUs(Resolution::k2048, 8);
    double w_b = 0.0;
    for (int iter = 0; iter < 40; ++iter) {
      auto pb =
          RoundAwarePlan(table_, Resolution::k2048, 50, h_b, tau);
      if (!pb.feasible) {
        h_b *= 1.05;
        continue;
      }
      w_b = pb.gpu_time_us;
      const double target =
          0.999 * (w_b + k * w_small) / util_cap;
      if (std::abs(target - h_b) < 1e-6 * h_b) break;
      h_b = target;
    }
    const TimeUs d_b = static_cast<TimeUs>(
        std::llround((h_b + vae_big) / (1.0 - margin)));
    const TimeUs d_a = d_b - 1000;  // raw order: small before big
    const double h_b_actual =
        static_cast<double>(d_b) * (1.0 - margin) - vae_big;
    const double h_a =
        static_cast<double>(d_a) * (1.0 - margin) - vae_small;
    auto pb = RoundAwarePlan(table_, Resolution::k2048, 50,
                             std::max(h_b_actual, 0.0), tau);
    const double w_a =
        RoundAwarePlan(table_, Resolution::k256, 50, h_a, tau)
            .gpu_time_us;
    const double total = pb.gpu_time_us + k * w_a;
    if (pb.feasible && h_a > h_b_actual &&
        pb.gpu_time_us <= util_cap * h_b_actual &&
        total > util_cap * h_b_actual && total <= util_cap * h_a) {
      found = true;
      num_small = k;
      deadline_big = d_b;
      deadline_small = d_a;
    }
  }
  ASSERT_TRUE(found) << "no overload scenario under this profile";

  for (RequestId id = 0; id < num_small; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.arrival_us = 0;
    meta.deadline_us = deadline_small;
    meta.resolution = Resolution::k256;
    meta.num_steps = 50;
    tracker_.Admit(meta);
  }
  workload::TraceRequest big;
  big.id = num_small;
  big.arrival_us = 0;
  big.deadline_us = deadline_big;
  big.resolution = Resolution::k2048;
  big.num_steps = 50;
  tracker_.Admit(big);

  // The scan must not demote the big request: with elastic scale-up
  // and batching off, surviving packing shows as a multi-GPU
  // assignment, while a Stage-4 best-effort demotion caps it at one
  // GPU (or starves it entirely).
  auto assert_big_survives = [&](bool reversed) {
    TetriScheduler sched(&table_, opts);
    auto ctx = MakeContext(0, sched.RoundDurationUs());
    if (reversed) {
      std::reverse(schedulable_.begin(), schedulable_.end());
    }
    auto plan = sched.Plan(ctx);
    ValidatePlan(plan, ctx);
    int big_degree = 0;
    for (const auto& a : plan.assignments) {
      for (RequestId id : a.requests) {
        if (id == static_cast<RequestId>(num_small)) {
          big_degree = cluster::Popcount(a.mask);
        }
      }
    }
    EXPECT_GE(big_degree, 2)
        << "2048px request demoted (reversed=" << reversed << ")";
  };
  assert_big_survives(false);
  // The outcome may not depend on the order requests arrive in the
  // schedulable list.
  assert_big_survives(true);
}

/** Property sweep: plans stay structurally valid across random
 * contention levels, mixes, partial capacity, and granularities. */
class PlanValiditySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(PlanValiditySweep, StructurallyValid)
{
  auto [seed, granularity, free_gpus] = GetParam();
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  auto table = LatencyTable::Profile(cost, 4, 20, 5);

  TetriOptions opts;
  opts.step_granularity = granularity;
  TetriScheduler sched(&table, opts);

  Rng rng(seed);
  RequestTracker tracker;
  const int num_requests = 1 + static_cast<int>(rng.NextBelow(10));
  const TimeUs now = 1000000;
  for (RequestId id = 0; id < num_requests; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us = now - static_cast<TimeUs>(rng.NextBelow(2000000));
    meta.deadline_us =
        meta.arrival_us +
        static_cast<TimeUs>(
            workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
            rng.NextRange(0.8, 1.6));
    meta.num_steps = 50;
    Request& req = tracker.Admit(meta);
    req.steps_done = static_cast<int>(rng.NextBelow(49));
  }

  auto schedulable = tracker.Schedulable(now);
  ScheduleContext ctx;
  ctx.now = now;
  ctx.round_end = now + sched.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(free_gpus);
  ctx.schedulable = &schedulable;
  ctx.topology = &topo;
  ctx.table = &table;

  auto plan = sched.Plan(ctx);
  GpuMask used = 0;
  std::map<RequestId, int> times_scheduled;
  for (const auto& a : plan.assignments) {
    ASSERT_NE(a.mask, 0u);
    EXPECT_TRUE(cluster::IsPow2(cluster::Popcount(a.mask)));
    EXPECT_EQ(a.mask & used, 0u);
    EXPECT_EQ(a.mask & ~ctx.free_gpus, 0u);
    used |= a.mask;
    EXPECT_GE(a.max_steps, 1);
    for (RequestId id : a.requests) {
      EXPECT_LE(a.max_steps, tracker.Get(id).RemainingSteps());
      ++times_scheduled[id];
      EXPECT_EQ(times_scheduled[id], 1) << "request scheduled twice";
    }
  }

  // The same plan must also satisfy the audit-layer round invariants.
  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor);
  audit::RoundAudit round;
  round.now = ctx.now;
  round.round_end = ctx.round_end;
  round.free_gpus = ctx.free_gpus;
  round.all_gpus = topo.all_gpus();
  for (const auto& a : plan.assignments) {
    round.assignments.push_back(
        {a.mask, static_cast<int>(a.requests.size()), a.max_steps});
  }
  auditor.OnRoundPlan(round);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanValiditySweep,
    ::testing::Combine(::testing::Range(1, 25),
                       ::testing::Values(1, 5, 10),
                       ::testing::Values(2, 4, 8)));

}  // namespace
}  // namespace tetri::core
