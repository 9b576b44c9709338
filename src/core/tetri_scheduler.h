/**
 * @file
 * TetriServe's deadline-aware round-based scheduler (§4) — the paper's
 * primary contribution. Each round it:
 *
 *  1. runs deadline-aware GPU allocation (allocation.h) to get each
 *     pending request's minimal-GPU-hour candidate allocations;
 *  2. packs requests with the group-knapsack DP (dp_packer.h,
 *     Algorithm 1), maximizing the number of requests that are not
 *     definitely late at the next round start;
 *  3. merges small same-resolution selections via selective
 *     continuous batching (§5);
 *  4. gives already-late requests one best-effort GPU;
 *  5. work-conservingly admits unselected requests and elastically
 *     scales selected ones onto idle GPUs (§4.2.3);
 *  6. places assignments with GPU placement preservation (§4.2.3).
 *
 * Every mechanism is individually switchable for the Table 5 ablation.
 */
#ifndef TETRI_CORE_TETRI_SCHEDULER_H
#define TETRI_CORE_TETRI_SCHEDULER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "core/allocation.h"
#include "costmodel/step_time_cache.h"
#include "packers/dp_packer.h"
#include "packers/packer.h"
#include "serving/scheduler.h"

namespace tetri::core {

/** Feature switches and tuning knobs. */
struct TetriOptions {
  /** Denoising steps per round at the reference resolution (§6.4). */
  int step_granularity = 5;
  /** Keep requests on their previous GPU set when possible. */
  bool placement_preservation = true;
  /** Use idle GPUs for extra admissions and scale-ups. */
  bool elastic_scale_up = true;
  /** Merge small same-resolution steps into batches. */
  bool selective_batching = true;
  /** Largest continuous batch formed. */
  int max_batch = 4;
  /** Only resolutions up to this are batched (small inputs only). */
  costmodel::Resolution batch_max_resolution =
      costmodel::Resolution::k512;
  /**
   * Fraction of each request's SLO budget reserved as slop for
   * execution jitter and re-sharding stalls when planning.
   */
  double deadline_margin_frac = 0.015;
  /**
   * Fraction of raw GPU capacity assumed reachable by packing when
   * testing EDF prefix feasibility (overload control). Below 1.0 to
   * account for packing fragmentation and round quantization.
   */
  double overload_utilization = 0.95;
  /**
   * Ablation knob: plan with the continuous-time cost model
   * (FindPlan) instead of round-aware costing (RoundAwarePlan).
   * The continuous model misprices end-of-round idle bubbles and
   * orphan segments; bench_ablation_alloc quantifies the damage.
   */
  bool use_continuous_planner = false;
  /**
   * Run Plan() through the seed data path — per-call buffers, direct
   * latency-table lookups, the nested-vector round-packing DP, and an
   * O(pendings) GPU recount — instead of the PlanScratch arena fast
   * path. Both paths share the planning logic and emit bit-identical
   * RoundPlans; this switch exists for the plan-equivalence tests and
   * the bench_micro_scheduler speedup measurement.
   */
  bool reference_plan = false;
  /**
   * Stage-2 packer selection (packers/packer.h). kAuto keeps the
   * historical behaviour: the flat-arena DP when reference_plan is
   * off, the nested-vector DP when it is on. Any other value routes
   * Stage 2 through the named registered packer on both data paths.
   */
  packers::PackerKind packer = packers::PackerKind::kAuto;
  /**
   * Minimum pack utilization enforced by the progressive packer
   * (SET-style admission bound); ignored by the DP packers.
   */
  double packer_min_utilization = 0.5;
  /**
   * Plan with every degree the table profiles, including non-powers
   * of two, and place them through the relaxed allocator. Requires a
   * table profiled with extended_degrees; illegal otherwise (the
   * table only has pow2 cells to plan with).
   */
  bool allow_non_pow2 = false;
};

/** The TetriServe policy. */
class TetriScheduler : public serving::Scheduler {
 public:
  /**
   * @param table profiled step-latency table the policy plans with.
   * @param options feature switches (defaults reproduce the paper).
   */
  explicit TetriScheduler(const costmodel::LatencyTable* table,
                          TetriOptions options = TetriOptions{});

  std::string Name() const override;
  serving::SchedulingMode Mode() const override {
    return serving::SchedulingMode::kRoundBased;
  }
  TimeUs RoundDurationUs() const override { return round_us_; }

  serving::RoundPlan Plan(const serving::ScheduleContext& ctx) override;

  /**
   * Attach the decision-trace sink (§trace): every Plan() then emits
   * the round span, per-request allocation candidates, stage-tagged
   * plan choices, overload sheds, and degrade events. All emission is
   * behind one pointer test, off the hot path when unset, and purely
   * observational — plans are bit-identical with tracing on or off.
   */
  void set_trace(trace::TraceSink* sink) override { trace_ = sink; }

  /** Rounds planned so far (the `round` field of emitted events). */
  std::int32_t rounds_planned() const { return round_seq_ + 1; }

  const TetriOptions& options() const { return options_; }

  /**
   * Round duration rule (§4.2.2): granularity x the step time of the
   * reference resolution (1024px) at its most GPU-efficient degree.
   */
  static TimeUs ComputeRoundDuration(const costmodel::LatencyTable& table,
                                     int step_granularity);

 private:
  /** Working entry for one schedulable request within Plan. */
  struct Entry {
    serving::Request* request = nullptr;
    /** Stage-1 answer; points into scratch_.allocs. */
    AllocationPlan* alloc = nullptr;
    double slack_us = 0.0;   // deadline - vae - now
    bool late = false;       // definitely late already
    int chosen_degree = 0;   // 0 = not selected
    int chosen_steps = 0;
  };

  /** Working assignment before placement. */
  struct Pending {
    std::vector<serving::Request*> members;
    int degree = 0;
    int steps = 0;
    /**
     * Degree and step count when the pending was created — the floor
     * Stage-6 placement rolls elastic scale-ups back to when a
     * fragmented free set cannot place the scaled degree.
     */
    int base_degree = 0;
    int base_steps = 0;
    /** Stage-4 lane member: droppable when placement cannot fit it. */
    bool best_effort = false;
  };

  /**
   * Reusable planning arena (§4.2.2 "cheap enough to rerun every
   * round" made literal): entry/group/pending buffers, the flat DP
   * scratch, per-resolution round degree info, and the memoized
   * step-time cache. Buffers only grow; once the queue-depth
   * high-water mark is reached, a Plan() call performs no heap
   * allocation beyond the emitted RoundPlan itself.
   */
  struct PlanScratch {
    std::vector<Entry> entries;
    std::vector<packers::PackGroup> groups;  // active prefix: num_groups
    std::vector<int> group_entry;            // group index -> entry index
    std::vector<Pending> pendings;           // active prefix: num_pendings
    std::vector<Entry*> edf;
    std::vector<Entry*> admitted;
    std::vector<std::size_t> order;
    std::vector<GpuMask> masks;
    std::array<std::vector<RoundDegreeInfo>,
               costmodel::kNumResolutions>
        degree_info;
    std::array<bool, costmodel::kNumResolutions> degree_info_ready{};
    // Per-round memo of RoundAwareLowerBoundUs(res, steps): Stage 2
    // evaluates the bound for every (option, residual) pair and the
    // same residuals recur across requests. Epoch-stamped so BeginRound
    // invalidation is O(1).
    std::array<std::vector<double>, costmodel::kNumResolutions> lb_memo;
    std::array<std::vector<std::uint64_t>, costmodel::kNumResolutions>
        lb_memo_epoch;
    std::uint64_t round_epoch = 0;
    // Stage-1 planner staircases, indexed [resolution][remaining
    // steps]. A staircase depends only on (table, tau, res, steps), so
    // it persists across rounds while tau is stable — the common case,
    // since the engine drives fixed-length rounds — turning the
    // planner's O(degrees^2 * steps) candidate scan per request into a
    // binary search. staircase_tau guards against callers that change
    // the round window between Plan() calls.
    std::array<std::vector<PlanStaircase>, costmodel::kNumResolutions>
        staircases;
    double staircase_tau = -1.0;
    // Degree info filtered to a request's degree_cap (degraded-SP
    // failure retries). Per-request, so it cannot share the
    // per-resolution cache or the staircase; rebuilt on demand for the
    // rare capped request, identically on both data paths.
    std::vector<RoundDegreeInfo> capped_info;
    // Stage-1 plan storage, parallel to entries. Holding the plans by
    // value in Entry instead measured +1.2 MiB peak RSS on the
    // e2ebench sim-steady-flux workload (4-vCPU Xeon, GCC 12).
    std::vector<AllocationPlan> allocs;
    packers::PackScratch pack;
    packers::PackResult packed;
    costmodel::StepTimeCache step_cache;
  };

  double EffectiveDeadlineUs(const serving::Request& req) const;

  const costmodel::LatencyTable* table_;
  TetriOptions options_;
  TimeUs round_us_;
  /** Non-null iff options_.packer != kAuto; owns the Stage-2 packer. */
  std::unique_ptr<packers::RoundPacker> packer_;
  PlanScratch scratch_;
  trace::TraceSink* trace_ = nullptr;
  /** Ordinal of the round being planned; -1 before the first. */
  std::int32_t round_seq_ = -1;
};

}  // namespace tetri::core

#endif  // TETRI_CORE_TETRI_SCHEDULER_H
