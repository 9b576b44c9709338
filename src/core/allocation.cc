#include "core/allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace tetri::core {

int
AllocationPlan::StepsAtDegree(int degree) const
{
  for (const auto& seg : segments) {
    if (seg.degree == degree) return seg.steps;
  }
  return 0;
}

int
AllocationPlan::TotalSteps() const
{
  int total = 0;
  for (const auto& seg : segments) total += seg.steps;
  return total;
}

namespace {

/** Assemble a plan from per-degree step counts. */
AllocationPlan
MakePlan(const std::vector<DegreeCost>& costs,
         const std::vector<std::pair<int, int>>& degree_steps,
         double slack_us)
{
  AllocationPlan plan;
  for (auto [idx, steps] : degree_steps) {
    if (steps <= 0) continue;
    const DegreeCost& cost = costs[idx];
    plan.segments.push_back(AllocationSegment{cost.degree, steps});
    plan.exec_time_us += steps * cost.step_time_us;
    plan.gpu_time_us += steps * cost.gpu_time_us;
  }
  std::sort(plan.segments.begin(), plan.segments.end(),
            [](const AllocationSegment& a, const AllocationSegment& b) {
              return a.degree < b.degree;
            });
  plan.feasible = plan.exec_time_us <= slack_us;
  return plan;
}

}  // namespace

AllocationPlan
FindPlanWithCosts(const std::vector<DegreeCost>& costs,
                  int remaining_steps, double slack_us)
{
  TETRI_CHECK(remaining_steps > 0);
  TETRI_CHECK(!costs.empty());
  const int num = static_cast<int>(costs.size());

  // Infeasible even at the fastest degree: fall back to running
  // everything as fast as possible (the definitely-late lane).
  int fastest = 0;
  for (int i = 1; i < num; ++i) {
    if (costs[i].step_time_us < costs[fastest].step_time_us) fastest = i;
  }
  if (remaining_steps * costs[fastest].step_time_us > slack_us) {
    return MakePlan(costs, {{fastest, remaining_steps}}, slack_us);
  }

  AllocationPlan best;
  double best_gpu_time = std::numeric_limits<double>::max();
  auto consider = [&](const std::vector<std::pair<int, int>>& mix) {
    AllocationPlan plan = MakePlan(costs, mix, slack_us);
    if (!plan.feasible) return;
    // Prefer lower GPU time; break ties toward fewer segments (less
    // reconfiguration), then lower total exec time.
    const bool better =
        plan.gpu_time_us < best_gpu_time - 1e-9 ||
        (std::abs(plan.gpu_time_us - best_gpu_time) <= 1e-9 &&
         (plan.segments.size() < best.segments.size() ||
          (plan.segments.size() == best.segments.size() &&
           plan.exec_time_us < best.exec_time_us)));
    if (better) {
      best = plan;
      best_gpu_time = plan.gpu_time_us;
    }
  };

  // Single-degree plans.
  for (int i = 0; i < num; ++i) {
    if (remaining_steps * costs[i].step_time_us <= slack_us) {
      consider({{i, remaining_steps}});
    }
  }

  // Two-degree mixes: run x steps at the cheaper (slower) degree `a`
  // and the rest at `b`. Only pairs with T(a) > T(b) can beat the
  // single-degree options.
  for (int a = 0; a < num; ++a) {
    const double ta = costs[a].step_time_us;
    const double ga = costs[a].gpu_time_us;
    for (int b = 0; b < num; ++b) {
      if (a == b) continue;
      const double tb = costs[b].step_time_us;
      const double gb = costs[b].gpu_time_us;
      if (ta <= tb || ga >= gb) continue;  // `a` must be slower+cheaper
      if (remaining_steps * tb > slack_us) continue;  // pair infeasible
      const double budget = slack_us - remaining_steps * tb;
      const int x = std::min(
          remaining_steps,
          static_cast<int>(std::floor(budget / (ta - tb))));
      if (x <= 0) continue;
      consider({{a, x}, {b, remaining_steps - x}});
    }
  }

  TETRI_CHECK(best.feasible);
  return best;
}

namespace {

/** Wall-clock duration of `steps` at one degree under the round grid:
 * whole rounds, with the last round finishing after its tail steps. */
double
SegmentDurationUs(int steps, int per_round, double step_us,
                  double round_us)
{
  if (steps <= 0) return 0.0;
  if (per_round <= 0) {
    // A single step spans multiple rounds; it occupies whole rounds
    // until its step time has elapsed.
    return steps * std::ceil(step_us / round_us) * round_us;
  }
  const int full_rounds = (steps - 1) / per_round;
  const int tail = steps - full_rounds * per_round;
  return full_rounds * round_us + tail * step_us;
}

}  // namespace

void
BuildRoundDegreeInfo(const costmodel::LatencyTable& table,
                     costmodel::Resolution res, double round_us,
                     std::vector<RoundDegreeInfo>* out)
{
  TETRI_CHECK(out != nullptr);
  TETRI_CHECK(round_us > 0.0);
  out->clear();
  for (int k : table.degrees()) {
    const double t = table.StepTimeUs(res, k);
    out->push_back(RoundDegreeInfo{
        k, t, static_cast<int>(std::floor(round_us / t))});
  }
}

double
RoundAwareLowerBoundUs(const std::vector<RoundDegreeInfo>& info,
                       int remaining_steps, double round_us)
{
  if (remaining_steps <= 0) return 0.0;
  double best = std::numeric_limits<double>::max();
  for (const RoundDegreeInfo& d : info) {
    best = std::min(best, SegmentDurationUs(remaining_steps,
                                            d.steps_per_round, d.step_us,
                                            round_us));
  }
  return best;
}

double
RoundAwareLowerBoundUs(const costmodel::LatencyTable& table,
                       costmodel::Resolution res, int remaining_steps,
                       double round_us)
{
  if (remaining_steps <= 0) return 0.0;
  std::vector<RoundDegreeInfo> info;
  BuildRoundDegreeInfo(table, res, round_us, &info);
  return RoundAwareLowerBoundUs(info, remaining_steps, round_us);
}

namespace {

/**
 * Enumerate every candidate mix of the round-aware planner, in its
 * canonical scan order, computing each candidate's duration and GPU
 * time exactly once. This is the single source of truth shared by
 * RoundAwarePlanInto and BuildPlanStaircase: both see identical
 * candidate values in identical order, which is what makes the
 * staircase's precomputed answers bit-identical to a direct scan.
 */
template <typename Fn>
void
ForEachRoundCandidate(const std::vector<RoundDegreeInfo>& info,
                      int remaining_steps, double round_us, Fn&& fn)
{
  const int num = static_cast<int>(info.size());
  auto emit = [&](int slow_idx, int slow_steps, int fast_idx,
                  int fast_steps) {
    // Execution order: the packer's progress tie-break runs the fast
    // segment first, so the slow segment holds the finishing tail.
    const RoundDegreeInfo& fast = info[fast_idx];
    const RoundDegreeInfo& slow = info[slow_idx];
    double duration;
    if (slow_steps > 0) {
      const double fast_rounds =
          fast_steps > 0
              ? std::ceil(static_cast<double>(fast_steps) /
                          std::max(fast.steps_per_round, 1)) *
                    round_us
              : 0.0;
      duration = fast_rounds +
                 SegmentDurationUs(slow_steps, slow.steps_per_round,
                                   slow.step_us, round_us);
    } else {
      duration = SegmentDurationUs(fast_steps, fast.steps_per_round,
                                   fast.step_us, round_us);
    }
    const double gpu_time = slow_steps * slow.degree * slow.step_us +
                            fast_steps * fast.degree * fast.step_us;
    fn(PlanCandidate{slow_idx, slow_steps, fast_idx, fast_steps,
                     duration, gpu_time});
  };

  for (int b = 0; b < num; ++b) {
    // Single-degree plans.
    emit(b, 0, b, remaining_steps);
    // Two-degree mixes: slow degree `a` takes whole rounds; enumerate
    // how many steps the fast degree `b` covers.
    for (int a = 0; a < num; ++a) {
      if (a == b) continue;
      if (info[a].step_us <= info[b].step_us) continue;  // `a` slower
      if (info[a].steps_per_round <= 0) continue;  // unusable in round
      for (int fast_steps = 1; fast_steps < remaining_steps;
           ++fast_steps) {
        emit(a, remaining_steps - fast_steps, b, fast_steps);
      }
    }
  }
}

/** The planner's preference order: lower GPU time wins, with an
 * absolute epsilon band on GPU time breaking ties toward the shorter
 * duration. */
inline bool
RoundPlanBetter(bool found, double gpu_time, double duration,
                double best_gpu_time, double best_duration)
{
  return !found || gpu_time < best_gpu_time - 1e-9 ||
         (std::abs(gpu_time - best_gpu_time) <= 1e-9 &&
          duration < best_duration);
}

/** Expand a winning candidate into an AllocationPlan, reusing the
 * output's segment capacity. */
void
MaterializeRoundPlan(const std::vector<RoundDegreeInfo>& info,
                     const PlanCandidate& c, AllocationPlan* out)
{
  const RoundDegreeInfo& fast = info[c.fast_idx];
  const RoundDegreeInfo& slow = info[c.slow_idx];
  out->segments.clear();
  if (c.slow_steps > 0) {
    out->segments.push_back(AllocationSegment{slow.degree, c.slow_steps});
  }
  if (c.fast_steps > 0) {
    if (!out->segments.empty() && fast.degree == slow.degree) {
      out->segments.back().steps += c.fast_steps;
    } else {
      out->segments.push_back(
          AllocationSegment{fast.degree, c.fast_steps});
    }
  }
  std::sort(out->segments.begin(), out->segments.end(),
            [](const AllocationSegment& a, const AllocationSegment& b) {
              return a.degree < b.degree;
            });
  out->exec_time_us = c.duration_us;
  out->gpu_time_us = c.gpu_time_us;
  out->feasible = true;
}

/** The definitely-late fallback: the fastest trajectory, marked
 * infeasible. */
void
FallbackRoundPlan(const std::vector<RoundDegreeInfo>& info,
                  int remaining_steps, double round_us,
                  AllocationPlan* out)
{
  const int num = static_cast<int>(info.size());
  int fastest = 0;
  double fastest_dur = std::numeric_limits<double>::max();
  for (int i = 0; i < num; ++i) {
    const double dur =
        SegmentDurationUs(remaining_steps, info[i].steps_per_round,
                          info[i].step_us, round_us);
    if (dur < fastest_dur) {
      fastest_dur = dur;
      fastest = i;
    }
  }
  out->segments.clear();
  out->segments.push_back(
      AllocationSegment{info[fastest].degree, remaining_steps});
  out->exec_time_us = fastest_dur;
  out->gpu_time_us =
      remaining_steps * info[fastest].degree * info[fastest].step_us;
  out->feasible = false;
}

}  // namespace

void
RoundAwarePlanInto(const std::vector<RoundDegreeInfo>& info,
                   int remaining_steps, double slack_us, double round_us,
                   AllocationPlan* out)
{
  TETRI_CHECK(remaining_steps > 0);
  TETRI_CHECK(round_us > 0.0);
  TETRI_CHECK(out != nullptr && !info.empty());

  bool found = false;
  double best_gpu_time = std::numeric_limits<double>::max();
  double best_duration = 0.0;
  PlanCandidate winner;
  ForEachRoundCandidate(
      info, remaining_steps, round_us, [&](const PlanCandidate& c) {
        if (c.duration_us > slack_us) return;
        if (!RoundPlanBetter(found, c.gpu_time_us, c.duration_us,
                             best_gpu_time, best_duration)) {
          return;
        }
        found = true;
        best_gpu_time = c.gpu_time_us;
        best_duration = c.duration_us;
        winner = c;
      });

  if (found) {
    MaterializeRoundPlan(info, winner, out);
  } else {
    FallbackRoundPlan(info, remaining_steps, round_us, out);
  }
}

void
BuildPlanStaircase(const std::vector<RoundDegreeInfo>& info,
                   int remaining_steps, double round_us,
                   PlanStaircase* out)
{
  TETRI_CHECK(remaining_steps > 0);
  TETRI_CHECK(round_us > 0.0);
  TETRI_CHECK(out != nullptr && !info.empty());

  out->candidates.clear();
  ForEachRoundCandidate(
      info, remaining_steps, round_us,
      [&](const PlanCandidate& c) { out->candidates.push_back(c); });

  out->thresholds.clear();
  for (const PlanCandidate& c : out->candidates) {
    out->thresholds.push_back(c.duration_us);
  }
  std::sort(out->thresholds.begin(), out->thresholds.end());
  out->thresholds.erase(
      std::unique(out->thresholds.begin(), out->thresholds.end()),
      out->thresholds.end());

  // For each feasibility breakpoint, replay the planner's scan over
  // the candidates that would pass the slack gate. The epsilon tie
  // band makes the preference order-dependent, so an incremental
  // update against the previous breakpoint's winner would not be
  // faithful; a full replay per breakpoint is (and is one-time cost).
  out->winners.assign(out->thresholds.size(), -1);
  const int num_candidates = static_cast<int>(out->candidates.size());
  for (std::size_t ti = 0; ti < out->thresholds.size(); ++ti) {
    const double slack = out->thresholds[ti];
    bool found = false;
    double best_gpu_time = std::numeric_limits<double>::max();
    double best_duration = 0.0;
    int winner = -1;
    for (int ci = 0; ci < num_candidates; ++ci) {
      const PlanCandidate& c = out->candidates[ci];
      if (c.duration_us > slack) continue;
      if (!RoundPlanBetter(found, c.gpu_time_us, c.duration_us,
                           best_gpu_time, best_duration)) {
        continue;
      }
      found = true;
      best_gpu_time = c.gpu_time_us;
      best_duration = c.duration_us;
      winner = ci;
    }
    TETRI_CHECK(winner >= 0);  // the breakpoint's own candidate fits
    out->winners[ti] = winner;
  }

  FallbackRoundPlan(info, remaining_steps, round_us, &out->fallback);
  out->built = true;
}

void
LookupRoundPlan(const PlanStaircase& staircase,
                const std::vector<RoundDegreeInfo>& info,
                double slack_us, AllocationPlan* out)
{
  TETRI_CHECK(staircase.built && out != nullptr);
  const auto& thresholds = staircase.thresholds;
  auto it = std::upper_bound(thresholds.begin(), thresholds.end(),
                             slack_us);
  if (it == thresholds.begin()) {
    // Below every breakpoint: definitely late.
    const AllocationPlan& fb = staircase.fallback;
    out->segments.assign(fb.segments.begin(), fb.segments.end());
    out->exec_time_us = fb.exec_time_us;
    out->gpu_time_us = fb.gpu_time_us;
    out->feasible = false;
    return;
  }
  const std::size_t idx =
      static_cast<std::size_t>(it - thresholds.begin()) - 1;
  MaterializeRoundPlan(info, staircase.candidates[staircase.winners[idx]],
                       out);
}

AllocationPlan
RoundAwarePlan(const costmodel::LatencyTable& table,
               costmodel::Resolution res, int remaining_steps,
               double slack_us, double round_us)
{
  std::vector<RoundDegreeInfo> info;
  BuildRoundDegreeInfo(table, res, round_us, &info);
  AllocationPlan plan;
  RoundAwarePlanInto(info, remaining_steps, slack_us, round_us, &plan);
  return plan;
}

AllocationPlan
FindPlan(const costmodel::LatencyTable& table, costmodel::Resolution res,
         int remaining_steps, double slack_us)
{
  std::vector<DegreeCost> costs;
  for (int k : table.degrees()) {
    costs.push_back(DegreeCost{k, table.StepTimeUs(res, k),
                               table.GpuTimeUs(res, k)});
  }
  return FindPlanWithCosts(costs, remaining_steps, slack_us);
}

AllocationPlan
ExhaustivePlan(const costmodel::LatencyTable& table,
               costmodel::Resolution res, int remaining_steps,
               double slack_us, int buckets)
{
  TETRI_CHECK(remaining_steps > 0 && buckets > 0);
  const std::vector<int>& degrees = table.degrees();
  const int num_degrees = static_cast<int>(degrees.size());

  const double t_min = table.MinStepTimeUs(res);
  if (remaining_steps * t_min > slack_us) {
    AllocationPlan plan;
    const int k = table.FastestDegree(res);
    plan.segments.push_back(AllocationSegment{k, remaining_steps});
    plan.exec_time_us = remaining_steps * table.StepTimeUs(res, k);
    plan.gpu_time_us = k * plan.exec_time_us;
    plan.feasible = false;
    return plan;
  }

  // Conservative (rounded-up) per-step time in buckets.
  const double unit = slack_us / buckets;
  std::vector<int> cost_buckets(num_degrees);
  std::vector<double> step_time(num_degrees), gpu_time(num_degrees);
  for (int d = 0; d < num_degrees; ++d) {
    step_time[d] = table.StepTimeUs(res, degrees[d]);
    gpu_time[d] = table.GpuTimeUs(res, degrees[d]);
    cost_buckets[d] =
        static_cast<int>(std::ceil(step_time[d] / unit - 1e-12));
  }

  constexpr double kInf = std::numeric_limits<double>::max();
  // dp[j][t] = min GPU time to schedule j steps within t buckets.
  std::vector<std::vector<double>> dp(
      remaining_steps + 1, std::vector<double>(buckets + 1, kInf));
  for (int t = 0; t <= buckets; ++t) dp[0][t] = 0.0;
  for (int j = 1; j <= remaining_steps; ++j) {
    for (int t = 0; t <= buckets; ++t) {
      for (int d = 0; d < num_degrees; ++d) {
        if (cost_buckets[d] > t) continue;
        const double prev = dp[j - 1][t - cost_buckets[d]];
        if (prev == kInf) continue;
        dp[j][t] = std::min(dp[j][t], prev + gpu_time[d]);
      }
    }
  }

  TETRI_CHECK(dp[remaining_steps][buckets] < kInf);
  // Reconstruct degree counts by replaying the transitions.
  std::vector<int> counts(num_degrees, 0);
  int t = buckets;
  for (int j = remaining_steps; j >= 1; --j) {
    bool found = false;
    for (int d = 0; d < num_degrees && !found; ++d) {
      if (cost_buckets[d] > t) continue;
      const double prev = dp[j - 1][t - cost_buckets[d]];
      if (prev == kInf) continue;
      if (std::abs(prev + gpu_time[d] - dp[j][t]) <= 1e-6) {
        ++counts[d];
        t -= cost_buckets[d];
        found = true;
      }
    }
    TETRI_CHECK(found);
  }

  std::vector<std::pair<int, int>> mix;
  for (int d = 0; d < num_degrees; ++d) {
    if (counts[d] > 0) mix.emplace_back(degrees[d], counts[d]);
  }
  AllocationPlan plan;
  for (auto [degree, steps] : mix) {
    plan.segments.push_back(AllocationSegment{degree, steps});
    const double ts = table.StepTimeUs(res, degree);
    plan.exec_time_us += steps * ts;
    plan.gpu_time_us += steps * degree * ts;
  }
  std::sort(plan.segments.begin(), plan.segments.end(),
            [](const AllocationSegment& a, const AllocationSegment& b) {
              return a.degree < b.degree;
            });
  plan.feasible = plan.exec_time_us <= slack_us + 1e-6;
  return plan;
}

}  // namespace tetri::core
