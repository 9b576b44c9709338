/**
 * @file
 * Concurrent serving runtime tests: admission-queue semantics
 * (backpressure, shedding, close), the planner/worker lifecycle
 * end-to-end with the real TetriScheduler, the drop policy, chaos
 * abort/requeue, trace emission, and the graceful drain protocol.
 * Every suite name contains "Runtime" so `ctest -R Runtime` selects
 * exactly these (the CI runtime-stress job runs them under TSan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "runtime/fair_queue.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace tetri::runtime {
namespace {

using costmodel::Resolution;

workload::TraceRequest
MakeRequest(RequestId id, TimeUs arrival = 0, TimeUs deadline = 1000)
{
  workload::TraceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.deadline_us = deadline;
  req.resolution = Resolution::k256;
  req.num_steps = 4;
  return req;
}

// ---------------------------------------------------------------------
// Admission queue: one tenant, so FairAdmissionQueue is a bounded FIFO
// ---------------------------------------------------------------------

TEST(RuntimeAdmissionQueueTest, PushDrainPreservesFifoOrder)
{
  FairAdmissionQueue queue(8, OverflowPolicy::kShed);
  for (RequestId id = 0; id < 5; ++id) {
    EXPECT_EQ(queue.Push(MakeRequest(id)), AdmitOutcome::kAdmitted);
  }
  EXPECT_EQ(queue.size(), 5u);
  std::vector<workload::TraceRequest> out;
  EXPECT_EQ(queue.DrainFair(0, &out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (RequestId id = 0; id < 5; ++id) {
    EXPECT_EQ(out[static_cast<std::size_t>(id)].id, id);
  }
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.DrainFair(0, &out), 0u);
}

TEST(RuntimeAdmissionQueueTest, ShedPolicyRefusesWhenFull)
{
  FairAdmissionQueue queue(2, OverflowPolicy::kShed);
  EXPECT_EQ(queue.Push(MakeRequest(0)), AdmitOutcome::kAdmitted);
  EXPECT_EQ(queue.Push(MakeRequest(1)), AdmitOutcome::kAdmitted);
  EXPECT_EQ(queue.Push(MakeRequest(2)), AdmitOutcome::kShed);
  const AdmissionCounters counters = queue.counters();
  EXPECT_EQ(counters.admitted, 2u);
  EXPECT_EQ(counters.shed, 1u);
  // Draining frees the whole capacity again.
  std::vector<workload::TraceRequest> out;
  queue.DrainFair(0, &out);
  EXPECT_EQ(queue.Push(MakeRequest(3)), AdmitOutcome::kAdmitted);
}

TEST(RuntimeAdmissionQueueTest, BlockPolicyWaitsForDrain)
{
  FairAdmissionQueue queue(1, OverflowPolicy::kBlock);
  EXPECT_EQ(queue.Push(MakeRequest(0)), AdmitOutcome::kAdmitted);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.Push(MakeRequest(1)), AdmitOutcome::kAdmitted);
    pushed.store(true);
  });
  // The producer is blocked on a full queue until the consumer drains;
  // keep draining until both submissions came through.
  std::vector<workload::TraceRequest> out;
  while (out.size() < 2) queue.DrainFair(0, &out);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0);
  EXPECT_EQ(out[1].id, 1);
}

TEST(RuntimeAdmissionQueueTest, CloseWakesBlockedProducerWithClosed)
{
  FairAdmissionQueue queue(1, OverflowPolicy::kBlock);
  EXPECT_EQ(queue.Push(MakeRequest(0)), AdmitOutcome::kAdmitted);
  std::thread producer([&] {
    EXPECT_EQ(queue.Push(MakeRequest(1)), AdmitOutcome::kClosed);
  });
  queue.Close();
  producer.join();
  // Close refuses new work but never discards accepted work.
  std::vector<workload::TraceRequest> out;
  EXPECT_EQ(queue.DrainFair(0, &out), 1u);
  EXPECT_EQ(out[0].id, 0);
  // Closed and empty: nothing left to drain.
  EXPECT_EQ(queue.DrainFair(0, &out), 0u);
  EXPECT_EQ(queue.Push(MakeRequest(2)), AdmitOutcome::kClosed);
  EXPECT_EQ(queue.counters().rejected_closed, 2u);
}

// ---------------------------------------------------------------------
// ServingRuntime
// ---------------------------------------------------------------------

struct RuntimeFixture {
  RuntimeFixture()
      : model(costmodel::ModelConfig::FluxDev()),
        topo(cluster::Topology::H100Node()),
        cost(&model, &topo),
        table(costmodel::LatencyTable::Profile(cost, 4, 20, 5))
  {
  }
  costmodel::ModelConfig model;
  cluster::Topology topo;
  costmodel::StepCostModel cost;
  costmodel::LatencyTable table;
};

RuntimeFixture& F()
{
  static RuntimeFixture fixture;
  return fixture;
}

/** Generous budget: nothing submitted with it should ever drop. */
constexpr TimeUs kAmpleBudgetUs = 60'000'000;

TEST(RuntimeServingTest, AllSubmissionsReachTerminalState)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 2;
  std::atomic<int> completed{0};
  options.on_complete = [&](const Completion& c) {
    if (c.outcome == metrics::Outcome::kCompleted) completed.fetch_add(1);
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);

  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 4, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();

  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.admission.admitted, kRequests);
  // Conservation: every admitted request reached a terminal state.
  EXPECT_EQ(stats.completed + stats.dropped, kRequests);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(completed.load(), kRequests);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.assignments, 0u);
  EXPECT_GT(runtime.plan_latency_us().count(), 0u);
}

TEST(RuntimeServingTest, SubmitAfterDrainReturnsClosed)
{
  core::TetriScheduler scheduler(&F().table);
  ServingRuntime runtime(&scheduler, &F().topo, &F().table);
  EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
            AdmitOutcome::kAdmitted);
  runtime.Drain();
  EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
            AdmitOutcome::kClosed);
  // Drain is idempotent.
  runtime.Drain();
  EXPECT_EQ(runtime.stats().admission.rejected_closed, 1u);
}

TEST(RuntimeServingTest, NegativeBudgetIsRejectedByFeasibilityGate)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  std::atomic<int> infeasible{0};
  options.on_complete = [&](const Completion& c) {
    if (c.outcome == metrics::Outcome::kDropped &&
        c.drop_reason == metrics::DropReason::kInfeasible) {
      infeasible.fetch_add(1);
    }
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  // Deadline before arrival: even the fastest residual plan cannot
  // land before the (clamped-to-arrival) drop deadline, so the
  // admission-time feasibility gate terminates it immediately.
  EXPECT_EQ(runtime.Submit(Resolution::k256, 4, -100),
            AdmitOutcome::kAdmitted);
  runtime.Drain();
  EXPECT_EQ(infeasible.load(), 1);
  EXPECT_EQ(runtime.stats().dropped, 1u);
  EXPECT_EQ(runtime.stats().infeasible_rejects, 1u);
  EXPECT_EQ(runtime.stats().completed, 0u);
}

TEST(RuntimeServingTest, NegativeBudgetIsDroppedAtFirstRoundWithoutGate)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.feasibility_gate = false;
  std::atomic<int> dropped{0};
  options.on_complete = [&](const Completion& c) {
    if (c.outcome == metrics::Outcome::kDropped &&
        c.drop_reason == metrics::DropReason::kTimeout) {
      dropped.fetch_add(1);
    }
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  // With the gate off, the clamped drop deadline abandons the request
  // at the first planning opportunity instead of crashing or waiting
  // factor x |budget| in the future.
  EXPECT_EQ(runtime.Submit(Resolution::k256, 4, -100),
            AdmitOutcome::kAdmitted);
  runtime.Drain();
  EXPECT_EQ(dropped.load(), 1);
  EXPECT_EQ(runtime.stats().dropped, 1u);
  EXPECT_EQ(runtime.stats().infeasible_rejects, 0u);
  EXPECT_EQ(runtime.stats().completed, 0u);
}

TEST(RuntimeServingTest, ChaosAbortRequeuesAndRetries)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  std::atomic<int> aborts_left{3};
  options.chaos_should_abort = [&](const serving::Assignment&) {
    return aborts_left.fetch_sub(1) > 0;
  };
  // One request may take all three aborts: if the producer is
  // descheduled after its first Submit, the planner dispatches that
  // request alone, three times over. A retry budget of three covers
  // that legal interleaving, so every request must still complete.
  options.retry.max_retries = 3;
  std::atomic<int> completed{0};
  options.on_complete = [&](const Completion& c) {
    if (c.outcome == metrics::Outcome::kCompleted) completed.fetch_add(1);
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  // The first assignments were chaos-killed, requeued, and retried to
  // completion — no request is lost to a fault.
  EXPECT_EQ(stats.aborted_assignments, 3u);
  EXPECT_GT(stats.requeues, 0u);
  EXPECT_EQ(completed.load(), kRequests);
  EXPECT_EQ(stats.completed, kRequests);
}

TEST(RuntimeServingTest, BackoffThatExpiresBetweenRoundsWakesPlanner)
{
  // A round interval far longer than the retry backoff makes the gate
  // expire while the planner sleeps after the round that skipped the
  // request. Nothing else is in flight to wake the planner, so its
  // next wait must end at once, not at the drop deadline 10 x 500 ms
  // away (where the request would time out unserved).
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.round_interval_us = 2000.0;
  options.backoff_base_us = 100.0;
  std::atomic<int> aborts_left{1};
  options.chaos_should_abort = [&](const serving::Assignment&) {
    return aborts_left.fetch_sub(1) > 0;
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  EXPECT_EQ(runtime.Submit(Resolution::k256, 2, 500'000),
            AdmitOutcome::kAdmitted);
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.aborted_assignments, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.dropped + stats.failed, 0u);
}

TEST(RuntimeServingTest, TraceEventsCoverTheLifecycle)
{
  core::TetriScheduler scheduler(&F().table);
  trace::RingBufferSink sink;
  RuntimeOptions options;
  options.trace = &sink;
  {
    ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(runtime.Submit(Resolution::k256, 3, kAmpleBudgetUs),
                AdmitOutcome::kAdmitted);
    }
  }  // destructor drains

  int admits = 0;
  int dispatches = 0;
  int completes = 0;
  int finishes = 0;
  int run_ends = 0;
  for (const trace::TraceEvent& ev : sink.events()) {
    switch (ev.kind) {
      case trace::TraceEventKind::kAdmit: ++admits; break;
      case trace::TraceEventKind::kDispatch: ++dispatches; break;
      case trace::TraceEventKind::kComplete: ++completes; break;
      case trace::TraceEventKind::kFinish: ++finishes; break;
      case trace::TraceEventKind::kRunEnd: ++run_ends; break;
      default: break;
    }
  }
  EXPECT_EQ(admits, 5);
  EXPECT_EQ(finishes, 5);
  EXPECT_GT(dispatches, 0);
  EXPECT_EQ(dispatches, completes);
  EXPECT_EQ(run_ends, 1);
}

TEST(RuntimeServingTest, ShedCountersAddUpUnderTinyCapacity)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.queue_capacity = 1;
  options.overflow = OverflowPolicy::kShed;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) {
    runtime.Submit(Resolution::k256, 1, kAmpleBudgetUs);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  // Every submission was either admitted or shed, and every admitted
  // one reached a terminal state.
  EXPECT_EQ(stats.admission.admitted + stats.admission.shed, kRequests);
  EXPECT_EQ(stats.completed + stats.dropped, stats.admission.admitted);
}

TEST(RuntimeServingTest, PacedRoundsStillCompleteEverything)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.round_interval_us = 500.0;  // pace rounds on the host clock
  options.execution_time_scale = 0.001;  // dilate spans into host time
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  EXPECT_EQ(runtime.stats().completed, kRequests);
}

// ---------------------------------------------------------------------
// Concurrency stress (the TSan target)
// ---------------------------------------------------------------------

TEST(RuntimeStressTest, ManyProducersConserveEveryRequest)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.queue_capacity = 64;
  options.overflow = OverflowPolicy::kBlock;  // backpressure, no loss
  options.num_workers = 3;
  std::atomic<int> terminal{0};
  options.on_complete = [&](const Completion&) { terminal.fetch_add(1); };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&runtime] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
                  AdmitOutcome::kAdmitted);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  runtime.Drain();

  constexpr int kTotal = kProducers * kPerProducer;
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.admission.admitted, kTotal);
  EXPECT_EQ(stats.completed + stats.dropped, kTotal);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(terminal.load(), kTotal);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_GT(runtime.plan_latency_us().count(), 0u);
}

TEST(RuntimeStressTest, CloseRacesBlockedProducersLosslessly)
{
  // Producers block on a tiny kBlock queue while the consumer drains a
  // few batches and then closes mid-stream. Lossless-close contract:
  // every Push returns kAdmitted or kClosed, and everything admitted
  // is drained — Close never discards accepted work.
  FairAdmissionQueue queue(2, OverflowPolicy::kBlock);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 16;
  std::atomic<int> admitted{0};
  std::atomic<int> closed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto outcome =
            queue.Push(MakeRequest(p * kPerProducer + i));
        if (outcome == AdmitOutcome::kAdmitted) {
          admitted.fetch_add(1);
        } else {
          ASSERT_EQ(outcome, AdmitOutcome::kClosed);
          closed.fetch_add(1);
        }
      }
    });
  }
  std::vector<workload::TraceRequest> drained;
  while (drained.size() < 20) {
    if (queue.DrainFair(0, &drained) == 0) std::this_thread::yield();
  }
  queue.Close();
  for (std::thread& producer : producers) producer.join();
  // Collect the tail the producers got in before Close won the race.
  while (queue.DrainFair(0, &drained) > 0) {
  }
  EXPECT_EQ(admitted.load() + closed.load(), kProducers * kPerProducer);
  EXPECT_EQ(drained.size(),
            static_cast<std::size_t>(admitted.load()));
  const AdmissionCounters counters = queue.counters();
  EXPECT_EQ(counters.admitted, static_cast<std::uint64_t>(admitted.load()));
  EXPECT_EQ(counters.rejected_closed,
            static_cast<std::uint64_t>(closed.load()));
  EXPECT_EQ(counters.shed, 0u);
}

TEST(RuntimeStressTest, ConcurrentTryPushShedsWithExactCounts)
{
  // No consumer: exactly `capacity` TryPush calls can win; every other
  // one must shed, and the counters must account for each attempt
  // exactly even under contention.
  constexpr std::size_t kCapacity = 16;
  FairAdmissionQueue queue(kCapacity, OverflowPolicy::kBlock);
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 8;
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Never blocks, even though the queue's policy is kBlock.
        const auto outcome =
            queue.TryPush(MakeRequest(p * kPerProducer + i));
        if (outcome == AdmitOutcome::kAdmitted) {
          admitted.fetch_add(1);
        } else {
          ASSERT_EQ(outcome, AdmitOutcome::kShed);
          shed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(admitted.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(shed.load(),
            kProducers * kPerProducer - static_cast<int>(kCapacity));
  EXPECT_EQ(queue.size(), kCapacity);
  const AdmissionCounters counters = queue.counters();
  EXPECT_EQ(counters.admitted, kCapacity);
  EXPECT_EQ(counters.shed, static_cast<std::uint64_t>(shed.load()));
}

TEST(RuntimeStressTest, FairQueueCloseRacesBlockedAndTryPushProducers)
{
  // Mixed fleet on the per-tenant queue: blocking producers on one
  // tenant, TryPush shedders on another, Close racing both. Per-tenant
  // accounting must reconcile exactly per tenant.
  FairAdmissionQueue queue(2, OverflowPolicy::kBlock,
                           {{0, 1}, {1, 1}});
  constexpr int kPerProducer = 32;
  std::atomic<int> blocked_admitted{0};
  std::atomic<int> blocked_closed{0};
  std::atomic<int> try_admitted{0};
  std::atomic<int> try_shed{0};
  std::atomic<int> try_closed{0};
  std::thread blocker([&] {
    for (int i = 0; i < kPerProducer; ++i) {
      workload::TraceRequest req = MakeRequest(i);
      req.tenant = 0;
      switch (queue.Push(std::move(req))) {
        case AdmitOutcome::kAdmitted: blocked_admitted.fetch_add(1); break;
        case AdmitOutcome::kClosed: blocked_closed.fetch_add(1); break;
        case AdmitOutcome::kShed: FAIL() << "kBlock Push shed"; break;
      }
    }
  });
  std::thread shedder([&] {
    for (int i = 0; i < kPerProducer; ++i) {
      workload::TraceRequest req = MakeRequest(1000 + i);
      req.tenant = 1;
      switch (queue.TryPush(std::move(req))) {
        case AdmitOutcome::kAdmitted: try_admitted.fetch_add(1); break;
        case AdmitOutcome::kShed: try_shed.fetch_add(1); break;
        case AdmitOutcome::kClosed: try_closed.fetch_add(1); break;
      }
    }
  });
  std::vector<workload::TraceRequest> drained;
  while (drained.size() < 8) {
    if (queue.DrainFair(0, &drained) == 0) std::this_thread::yield();
  }
  queue.Close();
  blocker.join();
  shedder.join();
  while (queue.DrainFair(0, &drained) > 0) {
  }
  EXPECT_EQ(drained.size(),
            static_cast<std::size_t>(blocked_admitted.load() +
                                     try_admitted.load()));
  const TenantCounters t0 = queue.tenant_counters(0);
  EXPECT_EQ(t0.admitted,
            static_cast<std::uint64_t>(blocked_admitted.load()));
  EXPECT_EQ(t0.rejected_closed,
            static_cast<std::uint64_t>(blocked_closed.load()));
  EXPECT_EQ(t0.shed, 0u);
  const TenantCounters t1 = queue.tenant_counters(1);
  EXPECT_EQ(t1.admitted, static_cast<std::uint64_t>(try_admitted.load()));
  EXPECT_EQ(t1.shed, static_cast<std::uint64_t>(try_shed.load()));
  EXPECT_EQ(t1.rejected_closed,
            static_cast<std::uint64_t>(try_closed.load()));
  EXPECT_EQ(t0.drained + t1.drained, drained.size());
}

// ---------------------------------------------------------------------
// No-poll planner (CondVar wakeups only)
// ---------------------------------------------------------------------

TEST(RuntimeServingTest, IdlePlannerRunsNoRoundsAndWakesOnSubmit)
{
  core::TetriScheduler scheduler(&F().table);
  ServingRuntime runtime(&scheduler, &F().topo, &F().table);
  // Idle runtime: the planner must be parked on its CondVar, not
  // cycling a poll interval — zero rounds accumulate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(runtime.stats().rounds, 0u);
  // An admission into the idle queue is planned off the Submit signal,
  // not after waiting out a poll tick.
  EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
            AdmitOutcome::kAdmitted);
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.completed, 1u);
  // Event-driven round count: admit+plan, completion, drain sweep —
  // a few rounds, not 50ms worth of poll ticks.
  EXPECT_LE(stats.rounds, 8u);
}

TEST(RuntimeServingTest, BusyWorkersDoNotInducePollRounds)
{
  // While assignments execute in host time, queued work used to make
  // the planner poll every 200us; now it blocks until a completion or
  // drop deadline. Rounds must scale with events, not elapsed time.
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 1;  // serialize execution: queue stays deep
  options.execution_time_scale = 0.002;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 4, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.completed, kRequests);
  // Every round is caused by a submit, a completion, or the drain
  // sweep: bounded by events with a small constant slack, regardless
  // of how long the workers held the GPUs.
  EXPECT_LE(stats.rounds,
            stats.assignments + kRequests + 16u);
}

}  // namespace
}  // namespace tetri::runtime
