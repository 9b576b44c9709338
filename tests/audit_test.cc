/**
 * @file
 * Audit-layer tests. Two halves:
 *
 *  - positive: full serving runs (TetriServe round scheduler and the
 *    event-driven EDF baseline) with every checker installed report
 *    zero violations on seed behaviour;
 *  - negative: each checker fires on a synthetic injected violation,
 *    proving the detectors actually detect.
 */
#include <gtest/gtest.h>

#include "audit/checkers.h"
#include "baselines/edf.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/system.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace tetri::audit {
namespace {

using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;

workload::TraceRequest
MakeRequest(RequestId id, Resolution res, TimeUs arrival, TimeUs deadline,
            int steps = 20)
{
  workload::TraceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.deadline_us = deadline;
  req.resolution = res;
  req.num_steps = steps;
  req.prompt = "audit";
  return req;
}

workload::Trace
SmallMixedTrace()
{
  workload::Trace trace;
  const Resolution kinds[] = {Resolution::k256, Resolution::k512,
                              Resolution::k1024, Resolution::k2048};
  for (int i = 0; i < 12; ++i) {
    const Resolution res = kinds[i % 4];
    const TimeUs arrival = static_cast<TimeUs>(i) * 400000;
    const TimeUs deadline = arrival + UsFromSec(5.0 + 10.0 * (i % 4));
    trace.requests.push_back(MakeRequest(i, res, arrival, deadline));
  }
  return trace;
}

class AuditIntegrationTest : public ::testing::Test {
 protected:
  AuditIntegrationTest()
      : model_(ModelConfig::FluxDev()), topo_(Topology::H100Node())
  {
  }
  ModelConfig model_;
  Topology topo_;
};

TEST_F(AuditIntegrationTest, TetriSchedulerRunIsViolationFree)
{
  Auditor auditor;
  serving::ServingConfig config;
  config.auditor = &auditor;
  serving::ServingSystem system(&topo_, &model_, config);
  InstallStandardCheckers(auditor);
  InstallCostModelChecker(auditor, &system.table());

  core::TetriScheduler scheduler(&system.table());
  const auto result = system.Run(&scheduler, SmallMixedTrace());

  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_TRUE(result.audit_summary.empty());
  EXPECT_GT(result.num_assignments, 0);
}

TEST_F(AuditIntegrationTest, EventDrivenBaselineRunIsViolationFree)
{
  Auditor auditor;
  InstallStandardCheckers(auditor);
  serving::ServingConfig config;
  config.auditor = &auditor;
  serving::ServingSystem system(&topo_, &model_, config);
  baselines::EdfScheduler scheduler(&system.table());
  const auto result = system.Run(&scheduler, SmallMixedTrace());
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST_F(AuditIntegrationTest, AuditedSimulatorStaysClean)
{
  sim::Simulator sim;
  Auditor auditor;
  InstallStandardCheckers(auditor);
  sim.set_audit(&auditor);
  for (TimeUs t = 100; t >= 10; t -= 10) {
    sim.ScheduleAt(t, [&sim]() {
      sim.ScheduleAfter(5, []() {});
    });
  }
  sim.RunAll();
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

// --- negative tests: every checker detects its injected violation ---

TEST(AuditNegativeTest, MonotonicityCheckerFlagsPastScheduling)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  auditor.OnEventScheduled(/*now=*/100, /*at=*/50);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_EQ(auditor.violations()[0].checker, "event-time-monotonicity");
  EXPECT_NE(auditor.violations()[0].message.find("past"),
            std::string::npos);
}

TEST(AuditNegativeTest, MonotonicityCheckerFlagsBackwardsClock)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  auditor.OnEventFired(/*prev=*/200, /*now=*/150);
  EXPECT_EQ(auditor.total_violations(), 1u);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsDoubleBooking)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  RoundAudit round;
  round.now = 1000;
  round.round_end = 2000;
  round.free_gpus = 0xFF;
  round.all_gpus = 0xFF;
  round.assignments.push_back({/*mask=*/0b0011, 1, 5});
  round.assignments.push_back({/*mask=*/0b0110, 1, 5});  // overlaps bit 1
  auditor.OnRoundPlan(round);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("double-books"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsNonPowerOfTwoDegree)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  RoundAudit round;
  round.free_gpus = 0xFF;
  round.all_gpus = 0xFF;
  round.assignments.push_back({/*mask=*/0b0111, 1, 5});  // degree 3
  auditor.OnRoundPlan(round);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("power of two"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsBusyAndForeignGpus)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  RoundAudit round;
  round.free_gpus = 0x0F;
  round.all_gpus = 0xFF;
  round.assignments.push_back({/*mask=*/0b110000, 1, 5});  // busy GPUs
  round.assignments.push_back({/*mask=*/0x100, 1, 5});     // off-node
  auditor.OnRoundPlan(round);
  EXPECT_GE(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsOversubscribedDispatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  DispatchAudit first;
  first.now = 10;
  first.mask = 0b0011;
  first.steps = 5;
  auditor.OnDispatch(first);
  DispatchAudit second;
  second.now = 20;
  second.mask = 0b0010;  // GPU 1 still busy
  second.steps = 5;
  auditor.OnDispatch(second);
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("oversubscribes"),
            std::string::npos);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsIllegalTransition)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.OnRequestAdmitted(1, 0, 1000, 20);
  // Queued -> Finished skips execution entirely.
  auditor.OnRequestTransition(
      1, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kFinished), 500);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("illegal transition"),
            std::string::npos);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsTerminalEscape)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.OnRequestAdmitted(2, 0, 1000, 20);
  auditor.OnRequestTransition(
      2, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kDropped), 100);
  // Dropped is terminal; resurrecting the request is illegal.
  auditor.OnRequestTransition(
      2, static_cast<int>(serving::RequestState::kDropped),
      static_cast<int>(serving::RequestState::kRunning), 200);
  EXPECT_EQ(auditor.total_violations(), 1u);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsStaleFromStateAndUnknownId)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.OnRequestTransition(
      99, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kRunning), 10);
  EXPECT_EQ(auditor.total_violations(), 1u);  // unknown request

  auditor.OnRequestAdmitted(3, 0, 1000, 20);
  auditor.OnRequestTransition(
      3, static_cast<int>(serving::RequestState::kRunning),
      static_cast<int>(serving::RequestState::kQueued), 20);
  // from-state Running contradicts the tracked Queued state.
  EXPECT_EQ(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsDeadlineBeforeArrival)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.OnRequestAdmitted(1, /*arrival=*/1000, /*deadline=*/500, 20);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_EQ(auditor.violations()[0].checker, "deadline-accounting");
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsOverdispatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.OnRequestAdmitted(1, 0, 1000000, /*num_steps=*/10);
  DispatchAudit d;
  d.now = 100;
  d.mask = 0b1;
  d.steps = 12;  // more than the 10 remaining
  d.members.push_back({1, /*remaining_steps=*/10, /*resolution=*/0});
  auditor.OnDispatch(d);
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("exceeds remaining"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsEarlyFinish)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.OnRequestAdmitted(1, 0, 1000000, /*num_steps=*/10);
  CompleteAudit c;
  c.now = 500;
  c.mask = 0b1;
  c.steps = 4;
  c.requests = {1};
  auditor.OnAssignmentComplete(c);
  auditor.OnRequestTransition(
      1, static_cast<int>(serving::RequestState::kRunning),
      static_cast<int>(serving::RequestState::kFinished), 600);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("steps outstanding"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsMixedResolutionBatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.OnRequestAdmitted(1, 0, 1000000, 10);
  auditor.OnRequestAdmitted(2, 0, 1000000, 10);
  DispatchAudit d;
  d.now = 100;
  d.mask = 0b1;
  d.steps = 5;
  d.members.push_back({1, 10, /*resolution=*/0});
  d.members.push_back({2, 10, /*resolution=*/2});
  auditor.OnDispatch(d);
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("mix resolutions"),
            std::string::npos);
}

TEST(AuditNegativeTest, LatentCheckerFlagsUseAfterRelease)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  auditor.OnLatentAssign(7, 0b11, 100);
  auditor.OnLatentRelease(7, 200);
  auditor.OnLatentAssign(7, 0b11, 300);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("after release"),
            std::string::npos);
}

TEST(AuditNegativeTest, LatentCheckerFlagsDoubleRelease)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  auditor.OnLatentAssign(7, 0b11, 100);
  auditor.OnLatentRelease(7, 200);
  auditor.OnLatentRelease(7, 300);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("released twice"),
            std::string::npos);
}

TEST(AuditNegativeTest, CostModelCheckerFlagsBrokenTable)
{
  Auditor auditor;
  costmodel::ModelConfig model = ModelConfig::FluxDev();
  Topology topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  const auto table = costmodel::LatencyTable::Profile(cost, 1, 4, 3);
  auto& checker = static_cast<CostModelSanityChecker&>(auditor.AddChecker(
      std::make_unique<CostModelSanityChecker>(&table)));

  CostModelSanityChecker::TableView view;
  view.degrees = {1};
  view.max_batch = 1;
  // Negative at k512, non-monotone elsewhere.
  view.step_us = [](Resolution res, int, int) {
    return res == Resolution::k512 ? -5.0 : 100.0;
  };
  view.cv = [](Resolution, int, int) { return 0.1; };
  view.gpu_us = [](Resolution, int, int) { return 100.0; };
  view.vae_us = [](Resolution res) {
    return res == Resolution::k2048 ? 1.0 : 50.0;  // not monotone
  };
  checker.ValidateView(view);
  EXPECT_GE(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, RealLatencyTablePassesSanitySweep)
{
  Auditor auditor;
  costmodel::ModelConfig model = ModelConfig::FluxDev();
  Topology topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  const auto table = costmodel::LatencyTable::Profile(cost, 4, 20, 5);
  InstallCostModelChecker(auditor, &table);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

TEST(AuditNegativeTest, HealthCheckerFlagsWorkOnFailedGpus)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  auditor.OnGpuFailed(0b0011, 100);

  RoundAudit round;
  round.now = 200;
  round.free_gpus = 0xFF;
  round.all_gpus = 0xFF;
  round.assignments.push_back({/*mask=*/0b0001, 1, 5});
  auditor.OnRoundPlan(round);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("plan schedules work"),
            std::string::npos);

  DispatchAudit d;
  d.now = 300;
  d.mask = 0b0010;
  d.steps = 5;
  auditor.OnDispatch(d);
  EXPECT_EQ(auditor.total_violations(), 2u);

  auditor.OnLatentAssign(9, 0b0001, 400);
  ASSERT_EQ(auditor.total_violations(), 3u);
  EXPECT_NE(auditor.violations()[2].message.find("failed GPUs"),
            std::string::npos);

  // Recovered GPUs are legal again.
  auditor.OnGpuRecovered(0b0011, 500);
  auditor.OnRoundPlan(round);
  auditor.OnDispatch(d);
  EXPECT_EQ(auditor.total_violations(), 3u);
}

TEST(AuditNegativeTest, HealthCheckerFlagsBogusFailureProtocol)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  auditor.OnGpuRecovered(0b0001, 50);  // never failed
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("not failed"),
            std::string::npos);

  auditor.OnGpuFailed(0b0010, 100);
  auditor.OnGpuFailed(0b0010, 150);  // failed twice
  ASSERT_EQ(auditor.total_violations(), 2u);
  EXPECT_NE(auditor.violations()[1].message.find("twice"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsSilentlyLostRequest)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RuntimeConservationChecker>());
  auditor.OnRequestAdmitted(1, 0, 1000, 20);
  auditor.OnRequestAdmitted(2, 0, 1000, 20);
  auditor.OnRequestAdmitted(3, 0, 1000, 20);
  auditor.OnRequestTransition(
      1, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kRunning), 100);
  auditor.OnRequestTransition(
      1, static_cast<int>(serving::RequestState::kRunning),
      static_cast<int>(serving::RequestState::kFinished), 200);
  auditor.OnRequestTransition(
      2, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kCancelled), 300);
  // Request 3 stays queued and reaches no terminal state.
  auditor.OnRunEnd(400);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("request 3"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[0].message.find("silently lost"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerAcceptsCleanRun)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RuntimeConservationChecker>());
  auditor.OnRequestAdmitted(7, 0, 1000, 20);
  auditor.OnRequestTransition(
      7, static_cast<int>(serving::RequestState::kQueued),
      static_cast<int>(serving::RequestState::kDropped), 100);
  auditor.OnRunEnd(200);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

TEST(AuditTest, SummaryAndStorageCap)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  for (int i = 0; i < 300; ++i) {
    auditor.OnEventScheduled(1000, 10);  // always in the past
  }
  EXPECT_EQ(auditor.total_violations(), 300u);
  EXPECT_EQ(auditor.violations().size(), Auditor::kMaxStored);
  const std::string summary = auditor.Summary();
  EXPECT_NE(summary.find("300 audit violation(s)"), std::string::npos);
  EXPECT_NE(summary.find("not stored"), std::string::npos);
}

}  // namespace
}  // namespace tetri::audit
