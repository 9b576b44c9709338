#include "audit/checkers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "cluster/gpu_set.h"
#include "costmodel/latency_table.h"
#include "serving/request.h"
#include "util/check.h"

namespace tetri::audit {

namespace {

/** Format helper: build a violation message from stream operands. */
template <typename... Parts>
std::string
Msg(const Parts&... parts)
{
  std::ostringstream oss;
  (oss << ... << parts);
  return oss.str();
}

int
StateInt(serving::RequestState s)
{
  return static_cast<int>(s);
}

const char*
StateName(int state)
{
  switch (static_cast<serving::RequestState>(state)) {
    case serving::RequestState::kQueued: return "Queued";
    case serving::RequestState::kRunning: return "Running";
    case serving::RequestState::kFinished: return "Finished";
    case serving::RequestState::kDropped: return "Dropped";
    case serving::RequestState::kCancelled: return "Cancelled";
  }
  return "Invalid";
}

}  // namespace

// --- EventTimeMonotonicityChecker ---

void
EventTimeMonotonicityChecker::OnEventScheduled(TimeUs now, TimeUs at)
{
  if (at < now) {
    Report(now, Msg("event scheduled in the past: at=", at,
                    " < now=", now));
  }
}

void
EventTimeMonotonicityChecker::OnEventFired(TimeUs prev, TimeUs now)
{
  if (now < prev) {
    Report(now, Msg("clock ran backwards: fired at ", now,
                    " after clock read ", prev));
  }
}

// --- GpuConservationChecker ---

void
GpuConservationChecker::OnRoundPlan(const RoundAudit& round)
{
  GpuMask used = 0;
  for (const AssignmentAudit& a : round.assignments) {
    if (a.mask == 0) {
      Report(round.now, "plan contains an empty GPU set");
      continue;
    }
    if (round.all_gpus != 0 && (a.mask & ~round.all_gpus) != 0) {
      Report(round.now,
             Msg("plan uses GPUs outside the node: ",
                 cluster::MaskToString(a.mask & ~round.all_gpus)));
    }
    if ((a.mask & ~round.free_gpus) != 0) {
      Report(round.now,
             Msg("plan uses busy GPUs ",
                 cluster::MaskToString(a.mask & ~round.free_gpus)));
    }
    if ((a.mask & used) != 0) {
      Report(round.now,
             Msg("plan double-books GPUs ",
                 cluster::MaskToString(a.mask & used)));
    }
    used |= a.mask;
    if (!allow_non_pow2_ &&
        !cluster::IsPow2(cluster::Popcount(a.mask))) {
      Report(round.now,
             Msg("SP degree ", cluster::Popcount(a.mask),
                 " is not a power of two for mask ",
                 cluster::MaskToString(a.mask)));
    }
    if (a.num_requests < 1) {
      Report(round.now, "assignment without requests");
    }
    if (a.max_steps < 1) {
      Report(round.now,
             Msg("assignment with non-positive step count ",
                 a.max_steps));
    }
  }
}

void
GpuConservationChecker::OnDispatch(const DispatchAudit& dispatch)
{
  if ((dispatch.mask & busy_) != 0) {
    Report(dispatch.now,
           Msg("dispatch oversubscribes busy GPUs ",
               cluster::MaskToString(dispatch.mask & busy_)));
  }
  if (!allow_non_pow2_ &&
      !cluster::IsPow2(cluster::Popcount(dispatch.mask))) {
    Report(dispatch.now,
           Msg("dispatched SP degree ",
               cluster::Popcount(dispatch.mask),
               " is not a power of two"));
  }
  busy_ |= dispatch.mask;
}

void
GpuConservationChecker::OnAssignmentComplete(const CompleteAudit& c)
{
  if ((c.mask & busy_) != c.mask) {
    Report(c.now, Msg("completion releases GPUs that were not busy: ",
                      cluster::MaskToString(c.mask & ~busy_)));
  }
  busy_ &= ~c.mask;
}

void
GpuConservationChecker::OnAssignmentAborted(const CompleteAudit& a)
{
  if ((a.mask & busy_) != a.mask) {
    Report(a.now, Msg("abort releases GPUs that were not busy: ",
                      cluster::MaskToString(a.mask & ~busy_)));
  }
  busy_ &= ~a.mask;
}

// --- RequestLifecycleChecker ---

void
RequestLifecycleChecker::OnRequestAdmitted(RequestId id, TimeUs arrival_us,
                                           TimeUs /*deadline_us*/,
                                           int /*num_steps*/)
{
  auto [it, inserted] =
      state_.emplace(id, StateInt(serving::RequestState::kQueued));
  (void)it;
  if (!inserted) {
    Report(arrival_us, Msg("request ", id, " admitted twice"));
  }
}

void
RequestLifecycleChecker::OnRequestTransition(RequestId id, int from_state,
                                             int to_state, TimeUs now)
{
  auto it = state_.find(id);
  if (it == state_.end()) {
    Report(now, Msg("transition of unknown request ", id));
    state_.emplace(id, to_state);
    return;
  }
  if (it->second != from_state) {
    Report(now, Msg("request ", id, " transition claims from-state ",
                    StateName(from_state), " but tracked state is ",
                    StateName(it->second)));
  }
  using serving::RequestState;
  const auto from = static_cast<RequestState>(from_state);
  const auto to = static_cast<RequestState>(to_state);
  const bool legal =
      (from == RequestState::kQueued && to == RequestState::kRunning) ||
      (from == RequestState::kRunning && to == RequestState::kQueued) ||
      (from == RequestState::kRunning && to == RequestState::kFinished) ||
      (from == RequestState::kQueued && to == RequestState::kDropped) ||
      (from == RequestState::kQueued && to == RequestState::kCancelled) ||
      (from == RequestState::kRunning && to == RequestState::kCancelled);
  if (!legal) {
    Report(now, Msg("illegal transition of request ", id, ": ",
                    StateName(from_state), " -> ", StateName(to_state)));
  }
  it->second = to_state;
}

// --- GpuHealthChecker ---

void
GpuHealthChecker::OnGpuFailed(GpuMask mask, TimeUs now)
{
  if (mask == 0) Report(now, "empty GPU failure notification");
  if ((mask & failed_) != 0) {
    Report(now, Msg("GPUs failed twice without recovering: ",
                    cluster::MaskToString(mask & failed_)));
  }
  failed_ |= mask;
}

void
GpuHealthChecker::OnGpuRecovered(GpuMask mask, TimeUs now)
{
  if ((mask & failed_) != mask) {
    Report(now, Msg("recovery of GPUs that were not failed: ",
                    cluster::MaskToString(mask & ~failed_)));
  }
  failed_ &= ~mask;
}

void
GpuHealthChecker::OnRoundPlan(const RoundAudit& round)
{
  for (const AssignmentAudit& a : round.assignments) {
    if ((a.mask & failed_) != 0) {
      Report(round.now,
             Msg("plan schedules work on failed GPUs ",
                 cluster::MaskToString(a.mask & failed_)));
    }
  }
}

void
GpuHealthChecker::OnDispatch(const DispatchAudit& dispatch)
{
  if ((dispatch.mask & failed_) != 0) {
    Report(dispatch.now,
           Msg("dispatch on failed GPUs ",
               cluster::MaskToString(dispatch.mask & failed_)));
  }
}

void
GpuHealthChecker::OnLatentAssign(RequestId id, GpuMask mask, TimeUs now)
{
  if ((mask & failed_) != 0) {
    Report(now, Msg("latent of request ", id, " placed on failed GPUs ",
                    cluster::MaskToString(mask & failed_)));
  }
}

// --- RuntimeConservationChecker ---

void
RuntimeConservationChecker::OnRequestAdmitted(RequestId id,
                                              TimeUs arrival_us,
                                              TimeUs /*deadline_us*/,
                                              int /*num_steps*/)
{
  if (open_.count(id) > 0 || terminal_.count(id) > 0) {
    Report(arrival_us, Msg("request ", id, " admitted twice"));
    return;
  }
  open_.insert(id);
  ++admitted_;
}

void
RuntimeConservationChecker::OnRequestTransition(RequestId id,
                                                int /*from_state*/,
                                                int to_state, TimeUs now)
{
  const auto to = static_cast<serving::RequestState>(to_state);
  const bool is_terminal = to == serving::RequestState::kFinished ||
                           to == serving::RequestState::kDropped ||
                           to == serving::RequestState::kCancelled;
  if (!is_terminal) return;
  if (terminal_.count(id) > 0) {
    Report(now, Msg("request ", id, " reached a terminal state twice"));
    return;
  }
  if (open_.erase(id) == 0) {
    Report(now, Msg("request ", id,
                    " reached a terminal state without being admitted"));
    return;
  }
  terminal_.insert(id);
  switch (to) {
    case serving::RequestState::kFinished: ++completed_; break;
    case serving::RequestState::kDropped: ++dropped_; break;
    case serving::RequestState::kCancelled: ++cancelled_; break;
    default: break;
  }
}

void
RuntimeConservationChecker::OnRunEnd(TimeUs now)
{
  std::vector<RequestId> lost(open_.begin(), open_.end());
  std::sort(lost.begin(), lost.end());
  for (RequestId id : lost) {
    Report(now, Msg("request ", id,
                    " silently lost: admitted but never reached a "
                    "terminal state"));
  }
  if (completed_ + dropped_ + cancelled_ + lost.size() != admitted_) {
    Report(now, Msg("terminal counts do not reconcile: completed ",
                    completed_, " + dropped ", dropped_, " + cancelled ",
                    cancelled_, " != admitted ", admitted_));
  }
}

// --- DeadlineAccountingChecker ---

void
DeadlineAccountingChecker::OnRequestAdmitted(RequestId id,
                                             TimeUs arrival_us,
                                             TimeUs deadline_us,
                                             int num_steps)
{
  if (deadline_us < arrival_us) {
    Report(arrival_us, Msg("request ", id, " deadline ", deadline_us,
                           " precedes arrival ", arrival_us));
  }
  if (num_steps < 1) {
    Report(arrival_us,
           Msg("request ", id, " admitted with ", num_steps, " steps"));
  }
  Account acct;
  acct.deadline_us = deadline_us;
  acct.num_steps = num_steps;
  accounts_[id] = acct;
}

void
DeadlineAccountingChecker::OnRoundPlan(const RoundAudit& round)
{
  if (round.round_end < round.now) {
    Report(round.now, Msg("round window ends in the past: ",
                          round.round_end, " < ", round.now));
  }
  if (round.now < last_plan_now_) {
    Report(round.now, Msg("scheduler invoked backwards in time: ",
                          round.now, " after ", last_plan_now_));
  }
  last_plan_now_ = round.now;
}

void
DeadlineAccountingChecker::OnDispatch(const DispatchAudit& dispatch)
{
  if (dispatch.steps < 1) {
    Report(dispatch.now,
           Msg("dispatch with non-positive step count ", dispatch.steps));
  }
  int resolution = -1;
  bool first = true;
  for (const MemberAudit& m : dispatch.members) {
    if (first) {
      resolution = m.resolution;
      first = false;
    } else if (m.resolution != resolution) {
      Report(dispatch.now,
             Msg("batched members mix resolutions (request ", m.id, ")"));
    }
    if (dispatch.steps > m.remaining_steps) {
      Report(dispatch.now,
             Msg("dispatch of ", dispatch.steps,
                 " steps exceeds remaining ", m.remaining_steps,
                 " of request ", m.id));
    }
    auto it = accounts_.find(m.id);
    if (it == accounts_.end()) {
      Report(dispatch.now, Msg("dispatch of unknown request ", m.id));
      continue;
    }
    const int expected = it->second.num_steps - it->second.steps_done;
    if (m.remaining_steps != expected) {
      Report(dispatch.now,
             Msg("remaining-step accounting drift for request ", m.id,
                 ": engine says ", m.remaining_steps, ", audit says ",
                 expected));
    }
  }
}

void
DeadlineAccountingChecker::OnAssignmentComplete(const CompleteAudit& c)
{
  for (RequestId id : c.requests) {
    auto it = accounts_.find(id);
    if (it == accounts_.end()) continue;  // already reported at dispatch
    it->second.steps_done += c.steps;
    if (it->second.steps_done > it->second.num_steps) {
      Report(c.now, Msg("request ", id, " executed ",
                        it->second.steps_done, " of ",
                        it->second.num_steps, " steps"));
    }
  }
}

void
DeadlineAccountingChecker::OnRequestTransition(RequestId id,
                                               int /*from_state*/,
                                               int to_state, TimeUs now)
{
  if (to_state != StateInt(serving::RequestState::kFinished)) return;
  auto it = accounts_.find(id);
  if (it == accounts_.end()) return;
  if (it->second.steps_done != it->second.num_steps) {
    Report(now, Msg("request ", id, " finished with ",
                    it->second.num_steps - it->second.steps_done,
                    " steps outstanding"));
  }
}

// --- LatentLifetimeChecker ---

void
LatentLifetimeChecker::OnLatentAssign(RequestId id, GpuMask mask,
                                      TimeUs now)
{
  if (mask == 0) {
    Report(now, Msg("latent of request ", id,
                    " assigned to an empty GPU set"));
  }
  if (released_.contains(id)) {
    Report(now, Msg("latent of request ", id, " used after release"));
  }
  live_.insert(id);
}

void
LatentLifetimeChecker::OnLatentRelease(RequestId id, TimeUs now)
{
  if (released_.contains(id)) {
    Report(now, Msg("latent of request ", id, " released twice"));
  }
  live_.erase(id);
  released_.insert(id);
}

// --- CostModelSanityChecker ---

CostModelSanityChecker::CostModelSanityChecker(
    const costmodel::LatencyTable* table)
    : table_(table)
{
  TETRI_CHECK(table_ != nullptr);
}

void
CostModelSanityChecker::Validate()
{
  TableView view;
  view.degrees = table_->degrees();
  view.max_batch = table_->max_batch();
  view.step_us = [this](costmodel::Resolution r, int d, int b) {
    return table_->StepTimeUs(r, d, b);
  };
  view.cv = [this](costmodel::Resolution r, int d, int b) {
    return table_->StepCv(r, d, b);
  };
  view.gpu_us = [this](costmodel::Resolution r, int d, int b) {
    return table_->GpuTimeUs(r, d, b);
  };
  view.vae_us = [this](costmodel::Resolution r) {
    return table_->VaeDecodeUs(r);
  };
  ValidateView(view);
}

void
CostModelSanityChecker::ValidateView(const TableView& view)
{
  using costmodel::kAllResolutions;
  using costmodel::Resolution;
  for (int degree : view.degrees) {
    for (int batch = 1; batch <= view.max_batch; ++batch) {
      double prev_mean = 0.0;
      for (Resolution res : kAllResolutions) {
        const double mean = view.step_us(res, degree, batch);
        const double cv = view.cv(res, degree, batch);
        const double gpu = view.gpu_us(res, degree, batch);
        if (!std::isfinite(mean) || mean <= 0.0) {
          Report(0, Msg("non-positive step time ", mean, " at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        if (!std::isfinite(cv) || cv < 0.0) {
          Report(0, Msg("invalid jitter cv ", cv, " at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        if (gpu + 1e-9 < mean) {
          Report(0, Msg("GPU time ", gpu, " below step time ", mean,
                        " at ", ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        // Monotone in resolution, up to a small band: at high degrees
        // a small model is communication/overhead-bound, and the cost
        // model legitimately prices neighbouring small resolutions
        // within a few percent of each other in either order
        // (SD3-Medium at degree 8 puts 256px ~3% above 512px). Only an
        // inversion beyond the band indicates a corrupted table.
        if (mean < 0.95 * prev_mean) {
          Report(0, Msg("step time not monotone in resolution at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch, ": ", mean, " < ", prev_mean));
        }
        prev_mean = mean;
      }
    }
  }
  double prev_vae = 0.0;
  for (Resolution res : kAllResolutions) {
    const double vae = view.vae_us(res);
    if (!std::isfinite(vae) || vae < 0.0) {
      Report(0, Msg("invalid VAE decode time ", vae, " at ",
                    ResolutionName(res)));
    }
    if (vae < prev_vae) {
      Report(0, Msg("VAE decode time not monotone in resolution at ",
                    ResolutionName(res)));
    }
    prev_vae = vae;
  }
}

// --- installation helpers ---

void
InstallStandardCheckers(Auditor& auditor, bool allow_non_pow2)
{
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  auditor.AddChecker(
      std::make_unique<GpuConservationChecker>(allow_non_pow2));
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  auditor.AddChecker(std::make_unique<RuntimeConservationChecker>());
}

CostModelSanityChecker&
InstallCostModelChecker(Auditor& auditor,
                        const costmodel::LatencyTable* table)
{
  auto& checker = static_cast<CostModelSanityChecker&>(auditor.AddChecker(
      std::make_unique<CostModelSanityChecker>(table)));
  checker.Validate();
  return checker;
}

}  // namespace tetri::audit
