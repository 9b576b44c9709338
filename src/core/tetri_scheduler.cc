#include "core/tetri_scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "cluster/allocator.h"
#include "util/check.h"

namespace tetri::core {

using costmodel::Resolution;
using serving::Request;

TetriScheduler::TetriScheduler(const costmodel::LatencyTable* table,
                               TetriOptions options)
    : table_(table), options_(options)
{
  TETRI_CHECK(table_ != nullptr);
  TETRI_CHECK(options_.step_granularity >= 1);
  TETRI_CHECK(options_.max_batch >= 1);
  // Non-pow2 planning needs non-pow2 latency cells; conversely an
  // extended table would leak non-pow2 degrees into every planning
  // loop (they iterate table->degrees()), so a pow2-disciplined
  // scheduler must be given a pow2-only table.
  TETRI_CHECK_MSG(options_.allow_non_pow2 == table_->extended_degrees(),
                  "allow_non_pow2 requires (and is required by) a table "
                  "profiled with extended_degrees");
  round_us_ = ComputeRoundDuration(*table_, options_.step_granularity);
  if (options_.packer != packers::PackerKind::kAuto) {
    packers::PackerOptions popts;
    popts.min_utilization = options_.packer_min_utilization;
    packer_ = packers::MakePacker(options_.packer, popts);
    TETRI_CHECK(packer_ != nullptr);
  }
  scratch_.step_cache.Bind(table_);
}

std::string
TetriScheduler::Name() const
{
  std::string name = "TetriServe";
  if (!options_.placement_preservation) name += "-NoPlace";
  if (!options_.elastic_scale_up) name += "-NoElastic";
  if (!options_.selective_batching) name += "-NoBatch";
  if (options_.reference_plan) name += "-Ref";
  if (packer_ != nullptr) {
    name += "-";
    name += packer_->name();
  }
  if (options_.allow_non_pow2) name += "-NP2";
  return name;
}

TimeUs
TetriScheduler::ComputeRoundDuration(const costmodel::LatencyTable& table,
                                     int step_granularity)
{
  // tau is anchored to the reference (1024px) resolution at its most
  // GPU-efficient degree so heterogeneous step lengths pack into a
  // round with few leftover bubbles (§4.2.2 "Round Duration").
  const Resolution ref = Resolution::k1024;
  const double ref_step =
      table.StepTimeUs(ref, table.MostEfficientDegree(ref));
  // Truncation predates the one-rounding-rule lint; switching to
  // RoundUs would move the tau grid and every plan golden with it.
  return static_cast<TimeUs>(step_granularity * ref_step);  // NOLINT(tetri-rounding)
}

double
TetriScheduler::EffectiveDeadlineUs(const Request& req) const
{
  // VAE decode is sequential after the last step, and a small margin
  // absorbs jitter plus re-sharding stalls the cost model excludes
  // from deadline accounting (§5).
  const double budget =
      static_cast<double>(req.meta.deadline_us - req.meta.arrival_us);
  return static_cast<double>(req.meta.deadline_us) -
         table_->VaeDecodeUs(req.meta.resolution) -
         options_.deadline_margin_frac * budget;
}

serving::RoundPlan
TetriScheduler::Plan(const serving::ScheduleContext& ctx)
{
  const double tau = static_cast<double>(ctx.round_end - ctx.now);
  const int capacity = cluster::Popcount(ctx.free_gpus);
  serving::RoundPlan plan;
  if (capacity == 0 || ctx.schedulable->empty()) return plan;

  // Decision trace (§trace): every emission site below is behind this
  // one pointer test, so an untraced Plan() pays nothing. The round
  // ordinal advances per planned round either way, keeping numbering
  // stable when a sink attaches mid-run.
  ++round_seq_;
  auto emit = [&](trace::TraceEvent ev) {
    ev.time_us = ctx.now;
    ev.round = round_seq_;
    trace_->OnEvent(ev);
  };
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kRoundBegin;
    ev.dur_us = ctx.round_end - ctx.now;
    ev.mask = ctx.free_gpus;
    ev.value = static_cast<double>(capacity);
    emit(ev);
  }

  // One shared planning logic, two data paths. The fast path plans out
  // of the PlanScratch arena (prebuilt per-resolution degree info,
  // epoch-stamped memo caches, flat DP scratch, incremental GPU
  // counter); the reference path reproduces the seed implementation's
  // data flow (per-call RoundAwarePlan allocations, direct latency
  // table lookups, the nested-vector DP, O(pendings) recounts). Both
  // emit bit-identical RoundPlans — the equivalence tests and the
  // bench harness rely on that.
  const bool fast = !options_.reference_plan;
  const int num_entries = static_cast<int>(ctx.schedulable->size());

  // Per-round memo invalidation; the staircases survive while tau is
  // stable.
  ++scratch_.round_epoch;
  if (fast) scratch_.step_cache.BeginRound();
  scratch_.degree_info_ready.fill(false);
  if (fast && scratch_.staircase_tau != tau) {
    for (auto& per_res : scratch_.staircases) {
      for (PlanStaircase& s : per_res) s.built = false;
    }
    scratch_.staircase_tau = tau;
  }

  auto degree_info = [&](Resolution res)
      -> const std::vector<RoundDegreeInfo>& {
    const int ri = costmodel::ResolutionIndex(res);
    if (!scratch_.degree_info_ready[ri]) {
      BuildRoundDegreeInfo(*table_, res, tau, &scratch_.degree_info[ri]);
      scratch_.degree_info_ready[ri] = true;
    }
    return scratch_.degree_info[ri];
  };
  // Memoized profiled step time (fast) vs direct table lookup
  // (reference). LatencyTable::StepTimeUs interpolates and validates;
  // the cache collapses the repeated (res, degree, batch) probes the
  // batching and scale-up stages issue.
  auto step_time = [&](Resolution res, int degree, int batch) {
    return fast ? scratch_.step_cache.StepTimeUs(res, degree, batch)
                : table_->StepTimeUs(res, degree, batch);
  };
  auto steps_in_round = [&](Resolution res, int degree) {
    return static_cast<int>(
        std::floor(tau / step_time(res, degree, 1)));
  };
  // Stage-1 planner answers via the precomputed staircase (fast path
  // only): the candidate scan runs once per (resolution, remaining
  // steps) for as long as tau is stable; every later request with the
  // same key is a binary search over the feasibility breakpoints.
  auto staircase = [&](Resolution res, int rem) -> const PlanStaircase& {
    const int ri = costmodel::ResolutionIndex(res);
    auto& per_res = scratch_.staircases[ri];
    if (static_cast<int>(per_res.size()) <= rem) {
      per_res.resize(rem + 1);
    }
    PlanStaircase& s = per_res[rem];
    if (!s.built) BuildPlanStaircase(degree_info(res), rem, tau, &s);
    return s;
  };
  auto lower_bound = [&](Resolution res, int steps) {
    if (!fast) return RoundAwareLowerBoundUs(*table_, res, steps, tau);
    if (steps <= 0) return 0.0;
    const int ri = costmodel::ResolutionIndex(res);
    auto& memo = scratch_.lb_memo[ri];
    auto& epoch = scratch_.lb_memo_epoch[ri];
    if (static_cast<int>(memo.size()) <= steps) {
      memo.resize(steps + 1, 0.0);
      epoch.resize(steps + 1, 0);
    }
    if (epoch[steps] != scratch_.round_epoch) {
      memo[steps] = RoundAwareLowerBoundUs(degree_info(res), steps, tau);
      epoch[steps] = scratch_.round_epoch;
    }
    return memo[steps];
  };

  // ---- Stage 1: deadline-aware GPU allocation (§4.2.1) ----
  if (static_cast<int>(scratch_.entries.size()) < num_entries) {
    scratch_.entries.resize(num_entries);
  }
  if (static_cast<int>(scratch_.allocs.size()) < num_entries) {
    scratch_.allocs.resize(num_entries);
  }
  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    Request* req = (*ctx.schedulable)[ei];
    entry.request = req;
    entry.late = false;
    entry.chosen_degree = 0;
    entry.chosen_steps = 0;
    entry.slack_us =
        EffectiveDeadlineUs(*req) - static_cast<double>(ctx.now);
    const int rem = req->RemainingSteps();
    TETRI_CHECK(rem > 0);
    const double slack_c = std::max(entry.slack_us, 0.0);
    entry.alloc = &scratch_.allocs[ei];
    if (req->degree_cap > 0) {
      // Degraded-SP failure retry: plan against the capped degree set
      // only. The shared cache and staircase are keyed by (resolution,
      // steps) and cannot express a per-request cap, so both data
      // paths run the same direct planner over freshly filtered info —
      // equivalence holds by construction, and uncapped requests are
      // untouched.
      BuildRoundDegreeInfo(*table_, req->meta.resolution, tau,
                           &scratch_.capped_info);
      std::erase_if(scratch_.capped_info,
                    [cap = req->degree_cap](const RoundDegreeInfo& d) {
                      return d.degree > cap;
                    });
      RoundAwarePlanInto(scratch_.capped_info, rem, slack_c, tau,
                         entry.alloc);
    } else if (options_.use_continuous_planner) {
      *entry.alloc = FindPlan(*table_, req->meta.resolution, rem, slack_c);
    } else if (fast) {
      LookupRoundPlan(staircase(req->meta.resolution, rem),
                      degree_info(req->meta.resolution), slack_c,
                      entry.alloc);
    } else {
      *entry.alloc = RoundAwarePlan(*table_, req->meta.resolution, rem,
                                    slack_c, tau);
    }
    entry.late = !entry.alloc->feasible;
    if (trace_ != nullptr) {
      if (req->degree_cap > 0) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kDegrade;
        ev.reason = trace::TraceReason::kDegreeCap;
        ev.request = req->meta.id;
        ev.degree = req->degree_cap;
        ev.value = entry.slack_us;
        emit(ev);
      }
      for (const AllocationSegment& seg : entry.alloc->segments) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanCandidate;
        ev.request = req->meta.id;
        ev.degree = seg.degree;
        ev.steps = seg.steps;
        ev.value = entry.slack_us;
        emit(ev);
      }
    }
  }

  // ---- Stage 1.5: EDF overload control ----
  // The survival bound is per-request optimistic: two requests can
  // each look salvageable while their joint GPU-work provably exceeds
  // the capacity available before their deadlines. Scan in deadline
  // order; whenever the cumulative minimal GPU-work of a prefix
  // overruns capacity * horizon, demote the largest-work member of
  // the prefix to the best-effort lane so the rest can actually make
  // their deadlines.
  {
    scratch_.edf.clear();
    for (int ei = 0; ei < num_entries; ++ei) {
      Entry& entry = scratch_.entries[ei];
      if (!entry.late) scratch_.edf.push_back(&entry);
    }
    // The scan needs *effective*-deadline order. Arrival/raw-deadline
    // order (the schedulable order) is not that: VAE decode time and
    // the margin fraction are resolution- and budget-dependent, so a
    // large-resolution request can come earlier effectively while
    // later nominally. Sort explicitly; ties break on request id to
    // keep planning deterministic.
    std::sort(scratch_.edf.begin(), scratch_.edf.end(),
              [](const Entry* a, const Entry* b) {
                if (a->slack_us != b->slack_us) {
                  return a->slack_us < b->slack_us;
                }
                return a->request->meta.id < b->request->meta.id;
              });
    scratch_.admitted.clear();
    double work_us = 0.0;  // GPU-us of admitted prefix
    for (Entry* entry : scratch_.edf) {
      scratch_.admitted.push_back(entry);
      work_us += entry->alloc->gpu_time_us;
      const double horizon = entry->slack_us;
      while (work_us >
                 capacity * horizon * options_.overload_utilization &&
             !scratch_.admitted.empty()) {
        auto victim = std::max_element(
            scratch_.admitted.begin(), scratch_.admitted.end(),
            [](const Entry* a, const Entry* b) {
              return a->alloc->gpu_time_us < b->alloc->gpu_time_us;
            });
        if (trace_ != nullptr) {
          trace::TraceEvent ev;
          ev.kind = trace::TraceEventKind::kShed;
          ev.reason = trace::TraceReason::kDeadlineInfeasible;
          ev.request = (*victim)->request->meta.id;
          ev.value = (*victim)->slack_us;
          emit(ev);
        }
        (*victim)->late = true;
        work_us -= (*victim)->alloc->gpu_time_us;
        scratch_.admitted.erase(victim);
      }
    }
  }

  // ---- Stage 2: round packing DP (Algorithm 1) ----
  scratch_.group_entry.clear();
  int num_groups = 0;
  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    if (entry.late) continue;
    const Request& req = *entry.request;
    const Resolution res = req.meta.resolution;
    const int rem = req.RemainingSteps();
    const double deadline_eff = EffectiveDeadlineUs(req);
    const double next_round = static_cast<double>(ctx.round_end);

    if (static_cast<int>(scratch_.groups.size()) <= num_groups) {
      scratch_.groups.emplace_back();
    }
    packers::PackGroup& group = scratch_.groups[num_groups];
    group.options.clear();
    group.id = req.meta.id;
    const double lb_rem = lower_bound(res, rem);
    group.survives_if_idle = next_round + lb_rem <= deadline_eff;

    // Laxity: rounds this request can afford to idle before the
    // survival bound trips. The tie-break weight decays with laxity
    // (least-laxity-first), so under contention the requests closest
    // to becoming definitely late receive GPUs first, while relaxed
    // ones defer to the work-conserving elastic stage.
    const double laxity_us = deadline_eff - next_round - lb_rem;
    const double laxity_rounds =
        std::max(0.0, std::floor(laxity_us / tau));
    const double weight = 1.0 / (1.0 + laxity_rounds);
    const double t_min = lb_rem / rem;  // per-step progress value

    for (const AllocationSegment& seg : entry.alloc->segments) {
      // The plan is recomputed from scratch every round, so an option
      // may run more steps at its degree than the segment nominally
      // holds; only the remaining step count caps it.
      const int q = std::min(rem, steps_in_round(res, seg.degree));
      if (q <= 0) continue;  // discard q == 0 options (Algorithm 1)
      packers::PackOption opt;
      opt.degree = seg.degree;
      opt.steps = q;
      opt.survives = next_round + lower_bound(res, rem - q) <= deadline_eff;
      // Progress measured in residual-lower-bound reduction (q steps,
      // each worth T_min), urgency-weighted.
      opt.work = weight * static_cast<double>(q) * t_min;
      group.options.push_back(opt);
    }
    ++num_groups;
    scratch_.group_entry.push_back(ei);
  }

  if (packer_ != nullptr) {
    // Pluggable Stage 2: the selected packer replaces the DP on both
    // data paths, so reference_plan still exercises the seed profile
    // of every other stage around an identical pack.
    packer_->Pack(scratch_.groups.data(), num_groups, capacity,
                  &scratch_.packed);
  } else if (fast) {
    packers::PackRoundInto(scratch_.groups.data(), num_groups, capacity,
                           &scratch_.pack, &scratch_.packed);
  } else {
    // Reproduce the seed's allocation profile: a fresh exact-size
    // group vector feeding the per-call nested-vector DP.
    const std::vector<packers::PackGroup> groups_copy(
        scratch_.groups.begin(), scratch_.groups.begin() + num_groups);
    scratch_.packed = packers::PackRoundReference(groups_copy, capacity);
  }
  const packers::PackResult& packed = scratch_.packed;
  for (int gi = 0; gi < num_groups; ++gi) {
    if (packed.choice[gi] < 0) continue;
    const packers::PackOption& opt =
        scratch_.groups[gi].options[packed.choice[gi]];
    Entry& entry = scratch_.entries[scratch_.group_entry[gi]];
    entry.chosen_degree = opt.degree;
    entry.chosen_steps = opt.steps;
    if (trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kPlanChoice;
      ev.reason = trace::TraceReason::kPacked;
      ev.request = entry.request->meta.id;
      ev.degree = opt.degree;
      ev.steps = opt.steps;
      ev.batch = 1;
      ev.value = entry.slack_us;
      emit(ev);
    }
  }

  // Working assignments before placement, in reusable slots.
  int num_pendings = 0;
  int used_gpus = 0;  // incremental sum of pending degrees
  auto append_pending = [&](Request* member, int degree, int steps,
                            bool best_effort) {
    if (static_cast<int>(scratch_.pendings.size()) <= num_pendings) {
      scratch_.pendings.emplace_back();
    }
    Pending& p = scratch_.pendings[num_pendings++];
    p.members.clear();
    p.members.push_back(member);
    p.degree = degree;
    p.steps = steps;
    p.base_degree = degree;
    p.base_steps = steps;
    p.best_effort = best_effort;
    used_gpus += degree;
  };
  auto gpus_used = [&]() {
    if (fast) return used_gpus;
    int used = 0;
    for (int pi = 0; pi < num_pendings; ++pi) {
      used += scratch_.pendings[pi].degree;
    }
    // The reference recount doubles as an audit of the incremental
    // counter: every differential run cross-checks them.
    TETRI_CHECK(used == used_gpus);
    return used;
  };

  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    if (entry.chosen_degree == 0) continue;
    append_pending(entry.request, entry.chosen_degree,
                   entry.chosen_steps, /*best_effort=*/false);
  }

  // ---- Stage 4: best-effort lane for definitely-late requests ----
  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    if (!entry.late) continue;
    if (gpus_used() >= capacity) break;
    const Resolution res = entry.request->meta.resolution;
    const int rem = entry.request->RemainingSteps();
    const int steps = std::clamp(steps_in_round(res, 1), 1, rem);
    append_pending(entry.request, 1, steps, /*best_effort=*/true);
    entry.chosen_degree = 1;
    entry.chosen_steps = steps;
    if (trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kPlanChoice;
      ev.reason = trace::TraceReason::kBestEffort;
      ev.request = entry.request->meta.id;
      ev.degree = 1;
      ev.steps = steps;
      ev.batch = 1;
      ev.value = entry.slack_us;
      emit(ev);
    }
  }

  // ---- Stage 5a/5b: work-conserving admission + selective
  // continuous batching (§4.2.3, §5) ----
  // Unselected requests are admitted onto idle GPUs at their
  // cheapest plan degree. When no GPUs are left, a small-resolution
  // request may instead JOIN an already-selected assignment of the
  // same resolution as a continuous-batch guest: it gains a round of
  // progress it would otherwise not get, and the merge is admitted
  // only if every member still meets its deadline at the slower
  // batched pace (the paper's "only if SLOs are not compromised"
  // test).
  auto try_batch_join = [&](Entry& entry) {
    if (!options_.selective_batching) return false;
    Request* guest = entry.request;
    const Resolution res = guest->meta.resolution;
    if (costmodel::ResolutionIndex(res) >
        costmodel::ResolutionIndex(options_.batch_max_resolution)) {
      return false;
    }
    for (int pi = 0; pi < num_pendings; ++pi) {
      Pending& host = scratch_.pendings[pi];
      if (host.members.front()->meta.resolution != res) continue;
      if (guest->degree_cap > 0 && host.degree > guest->degree_cap) {
        continue;  // degraded retry may not ride a wider group
      }
      const int new_bs = static_cast<int>(host.members.size() + 1);
      if (new_bs > std::min(options_.max_batch, table_->max_batch())) {
        continue;
      }
      const double t_batched = step_time(res, host.degree, new_bs);
      const int q_round = static_cast<int>(std::floor(tau / t_batched));
      int q = q_round;
      for (Request* member : host.members) {
        q = std::min(q, member->RemainingSteps());
      }
      q = std::min(q, guest->RemainingSteps());
      // A nearly-finished member would cap the batch below a full
      // round of work, idling the group; skip such merges.
      if (q < std::max(1, q_round)) continue;
      auto safe = [&](const Request& member) {
        const double slack = EffectiveDeadlineUs(member) -
                             static_cast<double>(ctx.now);
        // Pace headroom so jitter and round quantization do not push
        // batch members over their deadlines.
        return member.RemainingSteps() * t_batched <= 0.8 * slack;
      };
      bool all_safe = safe(*guest);
      for (Request* member : host.members) {
        if (!safe(*member)) all_safe = false;
      }
      if (!all_safe) continue;
      host.members.push_back(guest);
      host.steps = q;
      entry.chosen_degree = host.degree;
      entry.chosen_steps = q;
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kBatchJoin;
        ev.request = guest->meta.id;
        ev.degree = host.degree;
        ev.steps = q;
        ev.batch = new_bs;
        ev.value = entry.slack_us;
        emit(ev);
      }
      return true;
    }
    return false;
  };

  if (options_.elastic_scale_up || options_.selective_batching) {
    for (int gi = 0; gi < num_groups; ++gi) {
      Entry& entry = scratch_.entries[scratch_.group_entry[gi]];
      if (entry.chosen_degree != 0) continue;
      const Resolution res = entry.request->meta.resolution;
      const int rem = entry.request->RemainingSteps();
      const int free = capacity - gpus_used();
      // Cheapest plan degree that fits; spill one step if the round
      // is shorter than even one step (tiny-granularity guard).
      bool admitted = false;
      if (options_.elastic_scale_up && free > 0) {
        for (const AllocationSegment& seg : entry.alloc->segments) {
          if (seg.degree > free) continue;
          const int q = std::clamp(steps_in_round(res, seg.degree), 1,
                                   std::min(seg.steps, rem));
          append_pending(entry.request, seg.degree, q,
                         /*best_effort=*/false);
          entry.chosen_degree = seg.degree;
          entry.chosen_steps = q;
          admitted = true;
          if (trace_ != nullptr) {
            trace::TraceEvent ev;
            ev.kind = trace::TraceEventKind::kPlanChoice;
            ev.reason = trace::TraceReason::kElastic;
            ev.request = entry.request->meta.id;
            ev.degree = seg.degree;
            ev.steps = q;
            ev.batch = 1;
            ev.value = entry.slack_us;
            emit(ev);
          }
          break;
        }
      }
      if (!admitted) try_batch_join(entry);
    }
  }

  if (options_.elastic_scale_up) {
    // ---- Stage 5c: elastic scale-up of running assignments ----
    while (true) {
      const int free = capacity - gpus_used();
      if (free <= 0) break;
      Pending* best = nullptr;
      double best_benefit = 0.0;
      int best_new_steps = 0;
      for (int pi = 0; pi < num_pendings; ++pi) {
        Pending& p = scratch_.pendings[pi];
        const int next_degree = p.degree * 2;
        int degree_limit = table_->max_degree();
        for (Request* member : p.members) {
          if (member->degree_cap > 0) {
            degree_limit = std::min(degree_limit, member->degree_cap);
          }
        }
        if (next_degree > degree_limit) continue;
        if (p.degree > free) continue;  // needs p.degree extra GPUs
        const Resolution res = p.members.front()->meta.resolution;
        const int bs = static_cast<int>(p.members.size());
        const double t_old = step_time(res, p.degree, bs);
        const double t_new = step_time(res, next_degree, bs);
        if (t_new >= t_old) continue;  // must actually benefit
        int q = static_cast<int>(std::floor(tau / t_new));
        for (Request* member : p.members) {
          q = std::min(q, member->RemainingSteps());
        }
        q = std::max(q, 1);
        const double benefit = (t_old - t_new) * q;
        if (benefit > best_benefit) {
          best_benefit = benefit;
          best = &p;
          best_new_steps = q;
        }
      }
      if (best == nullptr) break;
      used_gpus += best->degree;
      best->degree *= 2;
      best->steps = best_new_steps;
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kScaleUp;
        ev.request = best->members.front()->meta.id;
        ev.degree = best->degree;
        ev.steps = best->steps;
        ev.batch = static_cast<std::int32_t>(best->members.size());
        emit(ev);
      }
    }
  }

  // ---- Stage 6: placement with preservation (§4.2.3) ----
  cluster::GpuAllocator allocator(ctx.topology);
  allocator.set_allow_non_pow2(options_.allow_non_pow2);
  allocator.SetFree(ctx.free_gpus);
  scratch_.masks.assign(num_pendings, 0);
  if (options_.placement_preservation) {
    for (int pi = 0; pi < num_pendings; ++pi) {
      const Pending& p = scratch_.pendings[pi];
      const Request& lead = *p.members.front();
      if (p.members.size() == 1 && lead.last_degree == p.degree &&
          lead.last_mask != 0 &&
          allocator.TryAllocateExact(lead.last_mask)) {
        scratch_.masks[pi] = lead.last_mask;
      }
    }
  }
  // Largest groups first to keep blocks aligned.
  scratch_.order.clear();
  for (int pi = 0; pi < num_pendings; ++pi) {
    if (scratch_.masks[pi] == 0) {
      scratch_.order.push_back(static_cast<std::size_t>(pi));
    }
  }
  std::sort(scratch_.order.begin(), scratch_.order.end(),
            [&](std::size_t a, std::size_t b) {
              return scratch_.pendings[a].degree >
                     scratch_.pendings[b].degree;
            });
  for (std::size_t pi : scratch_.order) {
    Pending& p = scratch_.pendings[pi];
    const GpuMask prefer = options_.placement_preservation
                               ? p.members.front()->last_mask
                               : 0;
    std::optional<GpuMask> mask = allocator.Allocate(p.degree, prefer);
    // Stages 4/5 size degrees against the free-GPU *count*; the
    // allocator places against the free *set*. If a degree that fit
    // by count cannot be placed (fragmentation, or a preservation
    // grab that split the free set), degrade gracefully instead of
    // aborting the round: roll elastic scale-ups back one doubling at
    // a time toward the pending's packed base, and as a last resort
    // drop it — the request stays queued and replans next round.
    const Resolution res = p.members.front()->meta.resolution;
    const int bs = static_cast<int>(p.members.size());
    while (!mask.has_value() && p.degree > p.base_degree) {
      p.degree /= 2;
      if (p.degree == p.base_degree) {
        p.steps = p.base_steps;
      } else {
        // Intermediate rollback degree: recompute the round's step
        // budget the way Stage 5c would have at this degree.
        int q = static_cast<int>(
            std::floor(tau / step_time(res, p.degree, bs)));
        for (Request* member : p.members) {
          q = std::min(q, member->RemainingSteps());
        }
        p.steps = std::max(q, 1);
      }
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kRollback;
        ev.request = p.members.front()->meta.id;
        ev.degree = p.degree;
        ev.steps = p.steps;
        ev.batch = static_cast<std::int32_t>(p.members.size());
        emit(ev);
      }
      mask = allocator.Allocate(p.degree, prefer);
    }
    if (!mask.has_value()) {
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kShed;
        ev.reason = trace::TraceReason::kFragmented;
        ev.request = p.members.front()->meta.id;
        ev.degree = p.degree;
        ev.batch = static_cast<std::int32_t>(p.members.size());
        emit(ev);
      }
      continue;  // dropped: masks[pi] stays 0 and Emit skips it
    }
    scratch_.masks[pi] = *mask;
  }

  // ---- Emit ----
  plan.assignments.reserve(num_pendings);
  for (int pi = 0; pi < num_pendings; ++pi) {
    if (scratch_.masks[pi] == 0) continue;
    const Pending& p = scratch_.pendings[pi];
    serving::Assignment assignment;
    assignment.requests.reserve(p.members.size());
    for (Request* member : p.members) {
      assignment.requests.push_back(member->meta.id);
    }
    assignment.mask = scratch_.masks[pi];
    assignment.max_steps = p.steps;
    plan.assignments.push_back(std::move(assignment));
  }
  if (trace_ != nullptr) {
    GpuMask placed = 0;
    for (const serving::Assignment& a : plan.assignments) {
      placed |= a.mask;
    }
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kRoundEnd;
    ev.mask = placed;
    ev.steps = static_cast<std::int32_t>(plan.assignments.size());
    ev.value = static_cast<double>(cluster::Popcount(placed)) /
               static_cast<double>(capacity);
    emit(ev);
  }
  return plan;
}

}  // namespace tetri::core
