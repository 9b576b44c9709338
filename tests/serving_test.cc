/**
 * @file
 * Serving-framework tests: request tracker, latent manager, execution
 * engine semantics (capacity, batching, reconfiguration stalls), and
 * the end-to-end ServingSystem loop with simple policies.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fixed_sp.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "serving/system.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace tetri::serving {
namespace {

using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;

workload::TraceRequest
MakeRequest(RequestId id, Resolution res, TimeUs arrival, TimeUs deadline,
            int steps = 50)
{
  workload::TraceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.deadline_us = deadline;
  req.resolution = res;
  req.num_steps = steps;
  req.prompt = "test prompt";
  return req;
}

TEST(RequestTrackerTest, AdmitAndLookup)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(7, Resolution::k512, 100, 2000));
  EXPECT_TRUE(tracker.Contains(7));
  EXPECT_FALSE(tracker.Contains(8));
  EXPECT_EQ(tracker.Get(7).meta.resolution, Resolution::k512);
  EXPECT_EQ(tracker.Get(7).RemainingSteps(), 50);
  EXPECT_EQ(tracker.NumActive(), 1);
}

TEST(RequestTrackerTest, SchedulableSortsByDeadline)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(0, Resolution::k256, 0, 3000));
  tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000));
  tracker.Admit(MakeRequest(2, Resolution::k256, 500, 2000));
  auto list = tracker.Schedulable(100);
  ASSERT_EQ(list.size(), 2u);  // id 2 has not arrived yet
  EXPECT_EQ(list[0]->meta.id, 1);
  EXPECT_EQ(list[1]->meta.id, 0);
}

TEST(RequestTrackerTest, RunningRequestsNotSchedulable)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(0, Resolution::k256, 0, 1000));
  tracker.Transition(tracker.Get(0), RequestState::kRunning, 5);
  EXPECT_TRUE(tracker.Schedulable(10).empty());
}

/**
 * The carried queued list against the scan-and-sort it replaced: seeded
 * admit / dispatch / requeue / finish / drop / cancel / retire churn
 * through Transition and Retire, with Schedulable(now), NumActive()
 * and Contains() checked against the oracle after every step. Live
 * requests must keep their address while retired slots are reused.
 * Admissions far outnumber the first store allocation, so a queued
 * entry left dangling by store growth shows up as a pointer mismatch.
 */
TEST(RequestTrackerTest, CarriedQueuedListMatchesScanAndSort)
{
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RequestTracker tracker;
    /** Live (not retired) requests and the address each was admitted
     * at; retired ids must be unknown to the tracker. */
    std::vector<std::pair<RequestId, const Request*>> live;
    std::vector<RequestId> retired;
    RequestId next_id = 0;
    TimeUs now = 0;
    for (int step = 0; step < 3000; ++step) {
      now += static_cast<TimeUs>(rng.NextBelow(40));
      if (live.empty() || rng.NextBelow(3) == 0) {
        // Arrivals up to 100 us ahead exercise the Arrived filter; a
        // narrow deadline range forces (deadline, id) ties.
        const RequestId id = next_id++;
        const TimeUs arrival = now + static_cast<TimeUs>(rng.NextBelow(100));
        const Request& admitted = tracker.Admit(MakeRequest(
            id, Resolution::k256, arrival,
            arrival + 1 + static_cast<TimeUs>(rng.NextBelow(50))));
        live.emplace_back(id, &admitted);
      } else {
        const auto pos = static_cast<std::size_t>(rng.NextBelow(live.size()));
        Request& req = tracker.Get(live[pos].first);
        const std::uint64_t pick = rng.NextBelow(4);
        if (req.state == RequestState::kQueued) {
          const RequestState to[] = {RequestState::kRunning,
                                     RequestState::kRunning,
                                     RequestState::kDropped,
                                     RequestState::kCancelled};
          tracker.Transition(req, to[pick], now);
        } else if (req.state == RequestState::kRunning) {
          const RequestState to[] = {
              RequestState::kQueued, RequestState::kFinished,
              RequestState::kDropped, RequestState::kCancelled};
          tracker.Transition(req, to[pick], now);
        } else {
          tracker.Retire(req);
          retired.push_back(live[pos].first);
          live[pos] = live.back();
          live.pop_back();
        }
      }

      std::vector<Request*> oracle;
      int active = 0;
      for (const auto& [id, address] : live) {
        ASSERT_TRUE(tracker.Contains(id)) << "step " << step;
        Request& req = tracker.Get(id);
        ASSERT_EQ(&req, address) << "step " << step;
        if (req.Active()) ++active;
        if (req.state == RequestState::kQueued && req.Arrived(now)) {
          oracle.push_back(&req);
        }
      }
      for (const RequestId id : retired) {
        ASSERT_FALSE(tracker.Contains(id)) << "step " << step;
      }
      std::sort(oracle.begin(), oracle.end(),
                [](const Request* a, const Request* b) {
                  if (a->meta.deadline_us != b->meta.deadline_us) {
                    return a->meta.deadline_us < b->meta.deadline_us;
                  }
                  return a->meta.id < b->meta.id;
                });
      ASSERT_EQ(tracker.Schedulable(now), oracle) << "step " << step;
      ASSERT_EQ(tracker.NumActive(), active) << "step " << step;
    }
    EXPECT_FALSE(retired.empty());
  }
}

TEST(RequestTrackerDeathTest, DuplicateIdPanics)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000));
  EXPECT_DEATH(tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000)),
               "duplicate");
}

TEST(RequestTrackerDeathTest, RetiringActiveRequestPanics)
{
  RequestTracker tracker;
  Request& req = tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000));
  EXPECT_DEATH(tracker.Retire(req), "cannot retire active request 1");
  tracker.Transition(req, RequestState::kRunning, 5);
  EXPECT_DEATH(tracker.Retire(req), "cannot retire active request 1");
}

class LatentManagerTest : public ::testing::Test {
 protected:
  LatentManagerTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        latents_(&cost_)
  {
  }
  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatentManager latents_;
};

TEST_F(LatentManagerTest, FirstPlacementIsFree)
{
  EXPECT_EQ(latents_.OnAssignment(1, Resolution::k1024, 0b0011), 0);
  EXPECT_EQ(latents_.num_transfers(), 0);
}

TEST_F(LatentManagerTest, OverlappingMoveIsFree)
{
  latents_.OnAssignment(1, Resolution::k1024, 0b0011);
  EXPECT_EQ(latents_.OnAssignment(1, Resolution::k1024, 0b0110), 0);
}

TEST_F(LatentManagerTest, DisjointMoveChargesTransfer)
{
  latents_.OnAssignment(1, Resolution::k1024, 0b0011);
  const TimeUs cost = latents_.OnAssignment(1, Resolution::k1024, 0b1100);
  EXPECT_GT(cost, 0);
  EXPECT_EQ(latents_.num_transfers(), 1);
  EXPECT_EQ(latents_.total_transfer_us(), cost);
}

TEST_F(LatentManagerTest, ForgetResetsPlacement)
{
  latents_.OnAssignment(1, Resolution::k256, 0b0001);
  latents_.Forget(1);
  EXPECT_EQ(latents_.OnAssignment(1, Resolution::k256, 0b0010), 0);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        latents_(&cost_),
        engine_(&sim_, &cost_, &tracker_, &latents_, 1)
  {
  }

  Request& Admit(RequestId id, Resolution res, int steps = 50)
  {
    return tracker_.Admit(
        MakeRequest(id, res, 0, UsFromSec(100), steps));
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  sim::Simulator sim_;
  RequestTracker tracker_;
  LatentManager latents_;
  ExecutionEngine engine_;
};

TEST_F(EngineTest, ExecutesStepsAndReleasesGpus)
{
  Admit(0, Resolution::k1024);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0011;
  a.max_steps = 5;
  engine_.Dispatch(a);
  EXPECT_EQ(engine_.busy_mask(), 0b0011u);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kRunning);
  sim_.RunAll();
  EXPECT_EQ(engine_.busy_mask(), 0u);
  EXPECT_EQ(tracker_.Get(0).steps_done, 5);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kQueued);
  // Execution took roughly 5 mean steps.
  const double expected = 5 * cost_.StepTimeUs(Resolution::k1024, 2);
  EXPECT_NEAR(static_cast<double>(sim_.Now()), expected,
              0.05 * expected);
}

TEST_F(EngineTest, CompletionIncludesVaeDecode)
{
  Admit(0, Resolution::k256, 2);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 2;
  TimeUs done_at = -1;
  engine_.set_on_request_done(
      [&](Request& req) { done_at = req.completion_us; });
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kFinished);
  EXPECT_GT(done_at, sim_.Now());  // VAE decode appended
  EXPECT_NEAR(static_cast<double>(done_at - sim_.Now()),
              cost_.VaeDecodeUs(Resolution::k256), 1.0);
}

TEST_F(EngineTest, BatchedAssignmentAdvancesAllMembers)
{
  Admit(0, Resolution::k256);
  Admit(1, Resolution::k256);
  Assignment a;
  a.requests = {0, 1};
  a.mask = 0b0001;
  a.max_steps = 10;
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).steps_done, 10);
  EXPECT_EQ(tracker_.Get(1).steps_done, 10);
  // GPU time split across the batch.
  EXPECT_NEAR(tracker_.Get(0).gpu_time_us, tracker_.Get(1).gpu_time_us,
              1e-6);
}

TEST_F(EngineTest, MaxStepsClampedByRemaining)
{
  Admit(0, Resolution::k256, 3);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 100;
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).steps_done, 3);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kFinished);
}

TEST_F(EngineTest, ReconfigurationStallChargedOnMaskChange)
{
  Admit(0, Resolution::k1024);
  Assignment first;
  first.requests = {0};
  first.mask = 0b0011;
  first.max_steps = 1;
  engine_.Dispatch(first);
  sim_.RunAll();
  EXPECT_EQ(engine_.num_reconfigs(), 0);

  Assignment moved;
  moved.requests = {0};
  moved.mask = 0b1100;
  moved.max_steps = 1;
  engine_.Dispatch(moved);
  sim_.RunAll();
  EXPECT_EQ(engine_.num_reconfigs(), 1);
  EXPECT_GT(engine_.reconfig_stall_us(), 0.0);
}

TEST_F(EngineTest, PlacementPreservationAvoidsStall)
{
  Admit(0, Resolution::k1024);
  for (int round = 0; round < 3; ++round) {
    Assignment a;
    a.requests = {0};
    a.mask = 0b0011;
    a.max_steps = 1;
    engine_.Dispatch(a);
    sim_.RunAll();
  }
  EXPECT_EQ(engine_.num_reconfigs(), 0);
}

TEST_F(EngineTest, BusyGpuAccounting)
{
  Admit(0, Resolution::k512);
  Assignment a;
  a.requests = {0};
  a.mask = 0b1111;
  a.max_steps = 4;
  engine_.Dispatch(a);
  sim_.RunAll();
  // 4 GPUs busy for the full execution.
  EXPECT_NEAR(engine_.busy_gpu_us(), 4.0 * sim_.Now(),
              0.01 * engine_.busy_gpu_us());
}

TEST_F(EngineTest, DispatchOnBusyGpuPanics)
{
  Admit(0, Resolution::k256);
  Admit(1, Resolution::k256);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 1;
  engine_.Dispatch(a);
  Assignment b;
  b.requests = {1};
  b.mask = 0b0001;
  b.max_steps = 1;
  EXPECT_DEATH(engine_.Dispatch(b), "busy");
}

TEST(ServingSystemTest, FixedSpServesEverythingEventually)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 40;
  spec.slo_scale = 1.5;
  auto trace = workload::BuildTrace(spec);

  baselines::FixedSpScheduler sched(2);
  auto result = system.Run(&sched, trace);
  EXPECT_EQ(result.records.size(), 40u);
  int completed = 0;
  for (const auto& rec : result.records) {
    if (rec.Completed()) ++completed;
  }
  EXPECT_EQ(completed + result.num_dropped, 40);
  EXPECT_GT(result.busy_gpu_us, 0.0);
  EXPECT_GT(result.num_scheduler_calls, 0);
}

TEST(ServingSystemTest, DeterministicAcrossRuns)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 30;
  auto trace = workload::BuildTrace(spec);
  baselines::FixedSpScheduler sched(4);
  auto a = system.Run(&sched, trace);
  auto b = system.Run(&sched, trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion_us, b.records[i].completion_us);
  }
}

TEST(ServingSystemTest, TimedOutRequestsAreDropped)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 1.5;  // aggressive for the test
  ServingSystem system(&topo, &model, config);
  workload::TraceSpec spec;
  spec.num_requests = 80;
  spec.arrival_rate_per_min = 60.0;  // overload
  spec.mix = workload::ResolutionMix::Homogeneous(Resolution::k2048);
  auto trace = workload::BuildTrace(spec);
  baselines::FixedSpScheduler sched(1);  // hopeless for 2048
  auto result = system.Run(&sched, trace);
  EXPECT_GT(result.num_dropped, 0);
}

/** Plans nothing; every scheduler invocation only exercises the
 * admission/drop path of the serving tick. */
class NullScheduler : public Scheduler {
 public:
  std::string Name() const override { return "null"; }
  SchedulingMode Mode() const override {
    return SchedulingMode::kEventDriven;
  }
  RoundPlan Plan(const ScheduleContext&) override { return {}; }
};

std::vector<trace::TraceEvent>
TimeoutDrops(const trace::RingBufferSink& sink)
{
  std::vector<trace::TraceEvent> drops;
  for (const trace::TraceEvent& ev : sink.events()) {
    if (ev.kind == trace::TraceEventKind::kDrop &&
        ev.reason == trace::TraceReason::kTimeout) {
      drops.push_back(ev);
    }
  }
  return drops;
}

TEST(ServingSystemTest, DropBoundaryIsRoundedNotTruncated)
{
  // factor * budget = 0.0105 * 1000 = 10.5us: the one-rounding-rule
  // (llround) puts the drop tick at arrival + 11; the old truncating
  // cast dropped one microsecond early at arrival + 10.
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 0.0105;
  trace::RingBufferSink sink;
  config.trace = &sink;
  ServingSystem system(&topo, &model, config);

  workload::Trace trace;
  trace.requests.push_back(
      MakeRequest(0, Resolution::k256, 0, 1000));  // drop_at = 11
  // Probe arrivals tick the event-driven scheduler at exactly t=10 and
  // t=11; their own budgets are too large to ever drop.
  trace.requests.push_back(
      MakeRequest(1, Resolution::k256, 10, 10'000'000));
  trace.requests.push_back(
      MakeRequest(2, Resolution::k256, 11, 10'000'000));

  NullScheduler sched;
  system.Run(&sched, trace);

  const auto drops = TimeoutDrops(sink);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].request, 0);
  // Not dropped by the t=10 tick; dropped exactly at the t=11 tick.
  EXPECT_EQ(drops[0].time_us, 11);
}

TEST(ServingSystemTest, NegativeBudgetDropsAtArrivalNotBefore)
{
  // A deadline before arrival makes factor * budget negative; the
  // clamp pins drop_at to the arrival itself, so the request is
  // abandoned at the first tick instead of computing a drop time in
  // the past (or, with a large factor, far in the future).
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 10.0;
  trace::RingBufferSink sink;
  config.trace = &sink;
  // A bare external auditor (no checkers installed): the standard
  // admission checker reports deadline < arrival, which under
  // -DTETRI_AUDIT would promote to a panic before the drop path runs.
  audit::Auditor bare;
  config.auditor = &bare;
  ServingSystem system(&topo, &model, config);

  workload::Trace trace;
  trace.requests.push_back(
      MakeRequest(0, Resolution::k256, 100, 50));  // budget = -50
  NullScheduler sched;
  auto result = system.Run(&sched, trace);

  EXPECT_EQ(result.num_dropped, 1);
  const auto drops = TimeoutDrops(sink);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].request, 0);
  EXPECT_EQ(drops[0].time_us, 100);  // at arrival, not before
}

}  // namespace
}  // namespace tetri::serving
