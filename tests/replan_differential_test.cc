/**
 * @file
 * Replan differential-testing harness for the scheduler's cross-round
 * state. A long-lived fast-path TetriScheduler plans round after round
 * on its PlanScratch caches — the tau-guarded Stage-1 staircases, the
 * epoch-stamped lower-bound memo, the StepTimeCache, the
 * per-resolution degree info, and the reused entry/group/pending
 * buffers. Every round its plan must be bit-for-bit identical to the
 * seed data path (TetriOptions::reference_plan), which carries no
 * planning state across rounds, on randomized churn sequences that
 * exercise every input a round can change:
 *
 *  - arrivals, completions, and step progress (queue membership and
 *    RemainingSteps churn);
 *  - GPU failures and recoveries (free-mask churn);
 *  - SP degradation (degree_cap churn, the capped-info rebuild) and
 *    placement echoes (last_mask / last_degree writes, the Stage-6
 *    preservation inputs);
 *  - round-window jitter (the staircase tau guard) and same-instant
 *    replan ticks (the paced planner loop's no-change wakeups);
 *
 * for both degree regimes (pow2 and extended non-pow2 tables) and
 * every Stage-2 packer routing: the built-in kAuto path and the "dp",
 * "staircase", and "progressive" plugins.
 *
 * The sweep is seed-pinned: every churn script is a pure function of
 * its seed. TETRI_REPLAN_SEED=<N> reruns exactly one seed; on any
 * divergence the harness dumps the executed op script to
 * replan_replay_seed<N>.txt (uploaded by CI as the repro artifact).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/gpu_set.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "util/rng.h"
#include "workload/slo.h"

namespace tetri::core {
namespace {

using cluster::Topology;
using costmodel::LatencyTable;
using costmodel::ModelConfig;
using packers::PackerKind;

constexpr int kNumGpus = 8;
constexpr int kRoundsPerCase = 20;

// ---------------------------------------------------------------
// Shared fixtures (profiled once; Profile dominates the suite cost)
// ---------------------------------------------------------------

struct Fixture {
  ModelConfig model;
  Topology topo;
  costmodel::StepCostModel cost;
  LatencyTable table;

  explicit Fixture(bool extended)
      : model(ModelConfig::FluxDev()),
        topo(Topology::H100Node()),
        cost(&model, &topo),
        table(LatencyTable::Profile(cost, 4, 20, 5, extended)) {}
};

const Fixture&
GetFixture(bool non_pow2)
{
  static const Fixture pow2(false);
  static const Fixture extended(true);
  return non_pow2 ? extended : pow2;
}

// ---------------------------------------------------------------
// Plan comparison (the bit-identical contract)
// ---------------------------------------------------------------

void
ExpectPlansIdentical(const serving::RoundPlan& a,
                     const serving::RoundPlan& b)
{
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].requests, b.assignments[i].requests)
        << "assignment " << i;
    EXPECT_EQ(a.assignments[i].mask, b.assignments[i].mask)
        << "assignment " << i;
    EXPECT_EQ(a.assignments[i].max_steps, b.assignments[i].max_steps)
        << "assignment " << i;
  }
}

// ---------------------------------------------------------------
// The churn simulation (pure function of the seed)
// ---------------------------------------------------------------

/** One differential case: a long-lived fast-path scheduler and a
 * reference-path scheduler plan the same randomized churn sequence in
 * lockstep; any divergence is a contract violation. Every executed op
 * is appended to @p log for the replay dump. */
void
RunReplanCase(std::uint64_t seed, bool non_pow2, PackerKind kind,
              std::vector<std::string>* log)
{
  const Fixture& fx = GetFixture(non_pow2);

  TetriOptions fast_opts;
  fast_opts.packer = kind;
  fast_opts.allow_non_pow2 = non_pow2;
  TetriScheduler fast(&fx.table, fast_opts);
  TetriOptions ref_opts = fast_opts;
  ref_opts.reference_plan = true;
  TetriScheduler ref(&fx.table, ref_opts);

  Rng rng(seed * 2 + (non_pow2 ? 1 : 0));
  serving::RequestTracker tracker;
  TimeUs now = 1000000;
  const TimeUs tau = fast.RoundDurationUs();
  ASSERT_EQ(tau, ref.RoundDurationUs());
  GpuMask free_gpus = cluster::FullMask(kNumGpus);
  RequestId next_id = 0;
  std::vector<RequestId> live;  // admitted, not yet completed
  int planned_rounds = 0;       // rounds with a non-empty queue

  auto note = [&](const std::string& line) { log->push_back(line); };

  auto admit = [&]() {
    workload::TraceRequest meta;
    meta.id = next_id++;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us = now - static_cast<TimeUs>(rng.NextBelow(200000));
    meta.deadline_us =
        now + static_cast<TimeUs>(
                  workload::SloPolicy::BaseTargetSec(meta.resolution) *
                  1e6 * rng.NextRange(0.5, 1.8));
    meta.num_steps = 30 + static_cast<int>(rng.NextBelow(21));
    serving::Request& req = tracker.Admit(meta);
    req.steps_done =
        static_cast<int>(rng.NextBelow(meta.num_steps - 1));
    live.push_back(meta.id);
    std::ostringstream oss;
    oss << "admit id=" << meta.id << " res="
        << costmodel::ResolutionIndex(meta.resolution) << " deadline="
        << meta.deadline_us << " steps=" << meta.num_steps << " done="
        << req.steps_done;
    note(oss.str());
  };

  auto pick_live = [&]() -> serving::Request* {
    if (live.empty()) return nullptr;
    const std::size_t i = rng.NextBelow(live.size());
    return &tracker.Get(live[i]);
  };

  // Seed queue.
  const int initial = 1 + static_cast<int>(rng.NextBelow(12));
  for (int i = 0; i < initial; ++i) admit();

  for (int round = 0; round < kRoundsPerCase; ++round) {
    // Random churn ops between planner ticks.
    const int num_ops = static_cast<int>(rng.NextBelow(4));
    for (int op = 0; op < num_ops; ++op) {
      const double roll = rng.NextDouble();
      if (roll < 0.35) {
        admit();
      } else if (roll < 0.55) {
        if (live.empty()) continue;
        const std::size_t i = rng.NextBelow(live.size());
        serving::Request& req = tracker.Get(live[i]);
        tracker.Transition(req, serving::RequestState::kFinished, now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        note("finish id=" + std::to_string(req.meta.id));
      } else if (roll < 0.70) {
        serving::Request* req = pick_live();
        if (req == nullptr) continue;
        req->steps_done += 1 + static_cast<int>(rng.NextBelow(5));
        if (req->steps_done >= req->meta.num_steps) {
          req->steps_done = req->meta.num_steps - 1;
        }
        note("progress id=" + std::to_string(req->meta.id) +
             " done=" + std::to_string(req->steps_done));
      } else if (roll < 0.78) {
        if (cluster::Popcount(free_gpus) <= 1) continue;
        int gpu;
        do {
          gpu = static_cast<int>(rng.NextBelow(kNumGpus));
        } while ((free_gpus & (GpuMask{1} << gpu)) == 0);
        free_gpus &= ~(GpuMask{1} << gpu);
        note("fail gpu=" + std::to_string(gpu));
      } else if (roll < 0.86) {
        if (free_gpus == cluster::FullMask(kNumGpus)) continue;
        int gpu;
        do {
          gpu = static_cast<int>(rng.NextBelow(kNumGpus));
        } while ((free_gpus & (GpuMask{1} << gpu)) != 0);
        free_gpus |= GpuMask{1} << gpu;
        note("recover gpu=" + std::to_string(gpu));
      } else if (roll < 0.93) {
        serving::Request* req = pick_live();
        if (req == nullptr) continue;
        const int roll_cap = static_cast<int>(rng.NextBelow(5));
        req->degree_cap = roll_cap == 4 ? 0 : 1 + roll_cap;
        note("degrade id=" + std::to_string(req->meta.id) +
             " cap=" + std::to_string(req->degree_cap));
      } else {
        // Placement echo: what the runtime writes at dispatch (Stage 6
        // preservation reads them).
        serving::Request* req = pick_live();
        if (req == nullptr) continue;
        const int degree = 1 << rng.NextBelow(3);
        const int offset =
            static_cast<int>(rng.NextBelow(kNumGpus - degree + 1));
        req->last_degree = degree;
        req->last_mask = (cluster::FullMask(degree)) << offset;
        note("echo id=" + std::to_string(req->meta.id) +
             " mask=" + std::to_string(req->last_mask));
      }
    }

    // Occasional round-window jitter: a caller-driven tau change must
    // rebuild the staircases and re-key every per-round memo.
    TimeUs round_end = now + tau;
    if (rng.NextDouble() < 0.05) {
      round_end = now + static_cast<TimeUs>(
                            static_cast<double>(tau) *
                            rng.NextRange(0.5, 2.0));
      note("window round_end=" + std::to_string(round_end));
    }

    auto schedulable = tracker.Schedulable(now);
    // An empty queue (or free set) short-circuits Plan() before any
    // planning; those rounds don't count as planned.
    if (!schedulable.empty()) ++planned_rounds;
    serving::ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = round_end;
    ctx.free_gpus = free_gpus;
    ctx.schedulable = &schedulable;
    ctx.topology = &fx.topo;
    ctx.table = &fx.table;

    // Alternate planning order across rounds: neither scheduler may
    // mutate shared state, and alternating would catch it if one did.
    serving::RoundPlan plan_fast;
    serving::RoundPlan plan_ref;
    if ((round & 1) == 0) {
      plan_fast = fast.Plan(ctx);
      plan_ref = ref.Plan(ctx);
    } else {
      plan_ref = ref.Plan(ctx);
      plan_fast = fast.Plan(ctx);
    }
    {
      SCOPED_TRACE("round " + std::to_string(round) + " now=" +
                   std::to_string(now));
      ExpectPlansIdentical(plan_fast, plan_ref);
    }
    if (::testing::Test::HasFailure()) return;

    // Occasionally echo a planned assignment back into its members,
    // exactly as the runtime's dispatch does.
    if (!plan_fast.assignments.empty() && rng.NextDouble() < 0.4) {
      const auto& a = plan_fast.assignments[rng.NextBelow(
          plan_fast.assignments.size())];
      for (const RequestId id : a.requests) {
        serving::Request& req = tracker.Get(id);
        req.last_mask = a.mask;
        req.last_degree = cluster::Popcount(a.mask);
      }
      note("dispatch mask=" + std::to_string(a.mask));
    }

    // Same-instant replan ticks (the paced planner loop's no-change
    // wakeups) replan on warm caches; otherwise advance a round.
    if (rng.NextDouble() < 0.7) {
      now += tau;
      note("advance now=" + std::to_string(now));
    } else {
      note("tick now=" + std::to_string(now));
    }
  }

  // Both schedulers really planned every non-empty round.
  EXPECT_EQ(fast.rounds_planned(), planned_rounds);
  EXPECT_EQ(ref.rounds_planned(), planned_rounds);
}

/** Dump the executed op script for offline replay; returns the path. */
std::string
DumpReplay(const std::vector<std::string>& log, std::uint64_t seed,
           bool non_pow2, PackerKind kind)
{
  const std::string path =
      "replan_replay_seed" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  out << "replan differential replay\nseed " << seed
      << (non_pow2 ? " non_pow2" : " pow2") << " packer "
      << packers::PackerKindName(kind) << "\n";
  for (const std::string& line : log) out << line << "\n";
  return path;
}

/** TETRI_REPLAN_SEED pins the sweep to one seed for replay. */
std::optional<std::uint64_t>
PinnedSeed()
{
  const char* env = std::getenv("TETRI_REPLAN_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

// ---------------------------------------------------------------
// The differential sweep
// ---------------------------------------------------------------

class ReplanDifferential : public ::testing::TestWithParam<int> {
};

// "Incremental" names the long-lived fast-path scheduler: it plans
// each round on caches carried over from the rounds before it.
TEST_P(ReplanDifferential, IncrementalPlansBitIdenticalUnderChurn)
{
  // Each shard covers 20 seeds x 2 degree regimes x 4 packer
  // routings; the suite totals 320 seeds, past the 300-seed floor the
  // harness promises.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam()) * 20;
  const auto pinned = PinnedSeed();
  constexpr PackerKind kKinds[] = {PackerKind::kAuto, PackerKind::kDp,
                                   PackerKind::kStaircase,
                                   PackerKind::kProgressive};
  for (std::uint64_t offset = 0; offset < 20; ++offset) {
    const std::uint64_t seed = base + offset;
    if (pinned.has_value() && seed != *pinned) continue;
    for (const bool non_pow2 : {false, true}) {
      for (const PackerKind kind : kKinds) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (non_pow2 ? " non_pow2" : " pow2") + " packer " +
                     std::string(packers::PackerKindName(kind)));
        std::vector<std::string> log;
        RunReplanCase(seed, non_pow2, kind, &log);
        if (::testing::Test::HasFailure()) {
          const std::string path =
              DumpReplay(log, seed, non_pow2, kind);
          FAIL() << "plan divergence at seed " << seed
                 << "; replay with TETRI_REPLAN_SEED=" << seed
                 << " (op script dumped to " << path << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplanDifferential,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace tetri::core
