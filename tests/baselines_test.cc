/**
 * @file
 * Baseline scheduler tests: xDiT fixed-SP group semantics and FIFO
 * order, RSSP per-resolution degrees and head-of-line blocking, EDF
 * ordering.
 */
#include <gtest/gtest.h>

#include "baselines/edf.h"
#include "baselines/fixed_sp.h"
#include "baselines/rssp.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"

namespace tetri::baselines {
namespace {

using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using serving::Request;
using serving::RequestTracker;
using serving::ScheduleContext;

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        table_(LatencyTable::Profile(cost_, 4, 20, 5))
  {
  }

  /** @p deadline < 0 means a 10 s SLO budget. The deadline is part of
   * the tracker's queued-order key, so it is fixed at admission. */
  Request& Admit(RequestId id, Resolution res, TimeUs arrival,
                 TimeUs deadline = -1)
  {
    workload::TraceRequest meta;
    meta.id = id;
    meta.arrival_us = arrival;
    meta.deadline_us =
        deadline >= 0 ? deadline : arrival + UsFromSec(10.0);
    meta.resolution = res;
    meta.num_steps = 50;
    return tracker_.Admit(meta);
  }

  ScheduleContext MakeContext(TimeUs now, GpuMask free = 0xFF)
  {
    schedulable_ = tracker_.Schedulable(now);
    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + UsFromSec(1000.0);
    ctx.free_gpus = free;
    ctx.schedulable = &schedulable_;
    ctx.topology = &topo_;
    ctx.table = &table_;
    return ctx;
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatencyTable table_;
  RequestTracker tracker_;
  std::vector<Request*> schedulable_;
};

TEST_F(BaselineTest, FixedSpUsesStaticGroups)
{
  FixedSpScheduler sched(4);
  for (RequestId id = 0; id < 3; ++id) {
    Admit(id, Resolution::k1024, id);
  }
  auto plan = sched.Plan(MakeContext(10));
  // Two groups of 4 on an 8-GPU node; third request waits.
  ASSERT_EQ(plan.assignments.size(), 2u);
  EXPECT_EQ(plan.assignments[0].mask, 0x0Fu);
  EXPECT_EQ(plan.assignments[1].mask, 0xF0u);
  // FIFO: earliest arrivals first, whole request non-preemptively.
  EXPECT_EQ(plan.assignments[0].requests[0], 0);
  EXPECT_EQ(plan.assignments[0].max_steps, 50);
}

TEST_F(BaselineTest, FixedSpFifoNotDeadlineOrder)
{
  FixedSpScheduler sched(8);
  // Later deadline arrives first: FIFO picks it anyway.
  Admit(0, Resolution::k2048, 0, UsFromSec(100.0));
  Admit(1, Resolution::k256, 5, UsFromSec(1.0));
  auto plan = sched.Plan(MakeContext(10));
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].requests[0], 0);
}

TEST_F(BaselineTest, FixedSpRespectsBusyGroups)
{
  FixedSpScheduler sched(2);
  Admit(0, Resolution::k256, 0);
  // Groups {0,1} and {2,3} busy.
  auto plan = sched.Plan(MakeContext(10, 0xF0));
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].mask, 0x30u);
}

TEST_F(BaselineTest, RsspDerivesPaperDegrees)
{
  RsspScheduler sched(&table_);
  // §6.1: SP=1 for 256/512, SP=2 for 1024, SP=8 for 2048.
  EXPECT_EQ(sched.DegreeFor(Resolution::k256), 1);
  EXPECT_EQ(sched.DegreeFor(Resolution::k512), 1);
  EXPECT_EQ(sched.DegreeFor(Resolution::k1024), 2);
  EXPECT_EQ(sched.DegreeFor(Resolution::k2048), 8);
}

TEST_F(BaselineTest, RsspStrictFifoBlocksBehindHead)
{
  RsspScheduler sched(&table_);
  Admit(0, Resolution::k2048, 0);  // needs all 8 GPUs
  Admit(1, Resolution::k256, 1);   // could run on 1 GPU
  // Only 4 GPUs free: the 2048 head cannot start, and strict FIFO
  // blocks the 256 behind it.
  auto plan = sched.Plan(MakeContext(10, 0x0F));
  EXPECT_TRUE(plan.assignments.empty());
}

TEST_F(BaselineTest, RsspBackfillVariantSkipsBlockedHead)
{
  RsspScheduler sched(&table_, 50, /*backfill=*/true);
  Admit(0, Resolution::k2048, 0);
  Admit(1, Resolution::k256, 1);
  auto plan = sched.Plan(MakeContext(10, 0x0F));
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].requests[0], 1);
  EXPECT_EQ(sched.Name(), "RSSP-Backfill");
}

TEST_F(BaselineTest, RsspExplicitDegreesRespected)
{
  RsspScheduler sched(std::array<int, costmodel::kNumResolutions>{1, 2, 4, 8});
  EXPECT_EQ(sched.DegreeFor(Resolution::k512), 2);
  Admit(0, Resolution::k512, 0);
  auto plan = sched.Plan(MakeContext(10));
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(cluster::Popcount(plan.assignments[0].mask), 2);
}

TEST_F(BaselineTest, EdfServesTightestDeadlineFirst)
{
  EdfScheduler sched(&table_);
  Admit(0, Resolution::k2048, 0, UsFromSec(100.0));  // relaxed
  Admit(1, Resolution::k2048, 5, UsFromSec(2.0));    // urgent
  auto plan = sched.Plan(MakeContext(10));
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].requests[0], 1);
}

TEST_F(BaselineTest, AllBaselinesAreEventDriven)
{
  FixedSpScheduler a(1);
  RsspScheduler b(&table_);
  EdfScheduler c(&table_);
  EXPECT_EQ(a.Mode(), serving::SchedulingMode::kEventDriven);
  EXPECT_EQ(b.Mode(), serving::SchedulingMode::kEventDriven);
  EXPECT_EQ(c.Mode(), serving::SchedulingMode::kEventDriven);
  EXPECT_EQ(a.Name(), "xDiT-SP1");
}

}  // namespace
}  // namespace tetri::baselines
