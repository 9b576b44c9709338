#include "serving/system.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "audit/checkers.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rounding.h"
#include "util/wallclock.h"

namespace tetri::serving {

double
ServingResult::GpuUtilization(int num_gpus) const
{
  if (makespan_us <= 0 || num_gpus <= 0) return 0.0;
  return busy_gpu_us / (static_cast<double>(makespan_us) * num_gpus);
}

ServingSystem::ServingSystem(const cluster::Topology* topology,
                             const costmodel::ModelConfig* model,
                             ServingConfig config)
    : topology_(topology),
      model_(model),
      config_(config),
      cost_(model, topology),
      table_(costmodel::LatencyTable::Profile(cost_, config.max_batch,
                                              config.profile_samples,
                                              config.seed,
                                              config.extended_degrees))
{
  TETRI_CHECK(topology_ && model_);
}

ServingResult
ServingSystem::Run(Scheduler* scheduler, const workload::Trace& trace)
{
  TETRI_CHECK(scheduler != nullptr);
  // The first tick and the idle re-anchor below take the next arrival
  // from a forward-only cursor, which is only right on a sorted trace.
  TETRI_CHECK_MSG(
      std::is_sorted(trace.requests.begin(), trace.requests.end(),
                     [](const workload::TraceRequest& a,
                        const workload::TraceRequest& b) {
                       return a.arrival_us < b.arrival_us;
                     }),
      "trace is not sorted by arrival");

  sim::Simulator simulator;
  RequestTracker tracker;
  LatentManager latents(&cost_);

  // Audit wiring: an externally supplied auditor always wins; with
  // -DTETRI_AUDIT every run self-installs the full checker suite (the
  // always-on TETRI_CHECK assertions remain active either way).
  std::unique_ptr<audit::Auditor> owned_auditor;
  audit::Auditor* auditor = config_.auditor;
#ifdef TETRI_AUDIT
  if (auditor == nullptr) {
    owned_auditor = std::make_unique<audit::Auditor>();
    audit::InstallStandardCheckers(*owned_auditor,
                                   config_.extended_degrees);
    audit::InstallCostModelChecker(*owned_auditor, &table_);
    auditor = owned_auditor.get();
  }
#endif
  if (auditor != nullptr) {
    simulator.set_audit(auditor);
    tracker.set_audit(auditor);
    latents.set_audit(auditor);
  }

  // Trace wiring: one nullable sink threads through every component.
  // The scheduler's sink is cleared before returning — the scheduler
  // outlives the run, the sink usually does not.
  trace::TraceSink* tracer = config_.trace;
  if (tracer != nullptr) {
    simulator.set_trace(tracer);
    scheduler->set_trace(tracer);
  }

  ExecutionEngine engine(&simulator, &cost_, &tracker, &latents,
                         config_.seed ^ 0xE7E7E7E7ULL);
  if (auditor != nullptr) engine.set_audit(auditor);
  if (tracer != nullptr) engine.set_trace(tracer);
  ServingResult result;
  if (config_.record_timeline) engine.set_timeline(&result.timeline);

  const bool round_based =
      scheduler->Mode() == SchedulingMode::kRoundBased;
  const TimeUs tau = round_based ? scheduler->RoundDurationUs() : 0;
  if (round_based) TETRI_CHECK(tau > 0);

  // Drop policy: abandon queued requests whose latency already exceeds
  // drop_timeout_factor x budget. Filters the snapshot in place so the
  // scheduler sees exactly the survivors. The drop instant is rounded
  // through util::RoundUs (one-rounding-rule), clamped so a deadline
  // before arrival (negative budget) drops at the first opportunity
  // instead of computing a drop time in the past.
  auto maybe_drop = [&](TimeUs now, std::vector<Request*>* schedulable) {
    std::size_t kept = 0;
    for (Request* req : *schedulable) {
      const TimeUs budget = req->meta.deadline_us - req->meta.arrival_us;
      const TimeUs drop_at =
          req->meta.arrival_us +
          std::max<TimeUs>(
              0, util::RoundUs(config_.drop_timeout_factor *
                               static_cast<double>(budget)));
      if (now >= drop_at) {
        req->drop_reason = metrics::DropReason::kTimeout;
        if (tracer != nullptr) {
          trace::TraceEvent ev;
          ev.kind = trace::TraceEventKind::kDrop;
          ev.reason = trace::TraceReason::kTimeout;
          ev.time_us = now;
          ev.request = req->meta.id;
          ev.value = static_cast<double>(req->meta.deadline_us);
          tracer->OnEvent(ev);
        }
        tracker.Transition(*req, RequestState::kDropped, now);
        latents.Forget(req->meta.id, now);
      } else {
        (*schedulable)[kept++] = req;
      }
    }
    schedulable->resize(kept);
  };

  auto invoke_scheduler = [&]() {
    const TimeUs now = simulator.Now();
    // One snapshot per tick: drop from it, schedule the survivors.
    std::vector<Request*> schedulable = tracker.Schedulable(now);
    maybe_drop(now, &schedulable);
    if (schedulable.empty()) return;

    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end =
        round_based ? now + tau : std::numeric_limits<TimeUs>::max() / 4;
    ctx.free_gpus = engine.FreeMask();
    ctx.schedulable = &schedulable;
    ctx.topology = topology_;
    ctx.table = &table_;

    const util::WallTimer wall;
    RoundPlan plan = scheduler->Plan(ctx);
    const double wall_us = wall.ElapsedUs();
    ++result.num_scheduler_calls;
    result.scheduler_wall_us_total += wall_us;
    result.scheduler_wall_us_max =
        std::max(result.scheduler_wall_us_max, wall_us);

    if (auditor != nullptr) {
      audit::RoundAudit ra;
      ra.now = now;
      ra.round_end = ctx.round_end;
      ra.free_gpus = ctx.free_gpus;
      ra.all_gpus = topology_->all_gpus();
      ra.assignments.reserve(plan.assignments.size());
      for (const Assignment& a : plan.assignments) {
        audit::AssignmentAudit aa;
        aa.mask = a.mask;
        aa.num_requests = static_cast<int>(a.requests.size());
        aa.max_steps = a.max_steps;
        ra.assignments.push_back(aa);
      }
      auditor->OnRoundPlan(ra);
    }

    GpuMask used = 0;
    for (const Assignment& a : plan.assignments) {
      TETRI_CHECK_MSG((a.mask & used) == 0,
                      "plan double-books GPUs "
                          << cluster::MaskToString(a.mask & used));
      TETRI_CHECK_MSG((a.mask & ctx.free_gpus) == a.mask,
                      "plan uses busy GPUs");
      used |= a.mask;
      engine.Dispatch(a);
    }
  };

  // Arrival events.
  for (const workload::TraceRequest& req : trace.requests) {
    simulator.ScheduleAt(req.arrival_us, [&tracker, &req, tracer]() {
      tracker.Admit(req);
      if (tracer != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kAdmit;
        ev.time_us = req.arrival_us;
        ev.request = req.id;
        ev.steps = req.num_steps;
        ev.value = static_cast<double>(req.deadline_us - req.arrival_us);
        tracer->OnEvent(ev);
      }
    });
  }

  std::function<void()> round_tick;
  // First trace entry arriving after the current tick. The clock only
  // moves forward and the trace is sorted, so the cursor does too.
  std::size_t next_arrival = 0;
  if (round_based) {
    // Fixed round grid; re-anchored to the next arrival when idle so
    // an empty system does not spin.
    round_tick = [&]() {
      invoke_scheduler();
      const TimeUs now = simulator.Now();
      while (next_arrival < trace.requests.size() &&
             trace.requests[next_arrival].arrival_us <= now) {
        ++next_arrival;
      }
      if (tracker.NumActive() > 0) {
        simulator.ScheduleAt(now + tau, round_tick);
      } else if (next_arrival < trace.requests.size()) {
        simulator.ScheduleAt(trace.requests[next_arrival].arrival_us,
                             round_tick);
      }
    };
    if (!trace.requests.empty()) {
      simulator.ScheduleAt(trace.requests.front().arrival_us, round_tick);
    }
  } else {
    // Event-driven: plan on every arrival and completion.
    engine.set_on_assignment_done([&](TimeUs) { invoke_scheduler(); });
    for (const workload::TraceRequest& req : trace.requests) {
      simulator.ScheduleAt(req.arrival_us, [&]() { invoke_scheduler(); });
    }
  }

  // Fault injection (tetri::chaos) attaches here, after the arrival
  // and round-tick events are enqueued: same-timestamp chaos events
  // then fire after the serving events they race with, keeping replay
  // order a pure function of the configuration.
  if (config_.on_run_setup) {
    RunContext rc;
    rc.simulator = &simulator;
    rc.engine = &engine;
    rc.tracker = &tracker;
    rc.latents = &latents;
    rc.trace = &trace;
    rc.topology = topology_;
    rc.table = &table_;
    rc.auditor = auditor;
    rc.trace_sink = tracer;
    rc.drop_timeout_factor = config_.drop_timeout_factor;
    config_.on_run_setup(rc);
  }

  simulator.RunAll();

  // Conservation: the run is over, so strand nothing. A request can
  // still be queued here when capacity vanished for good in
  // event-driven mode (no completion event ever fired to re-plan);
  // drop it with a recorded reason rather than lose it silently.
  for (Request* req : tracker.Schedulable(simulator.Now())) {
    req->drop_reason = metrics::DropReason::kInfeasible;
    if (tracer != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kDrop;
      ev.reason = trace::TraceReason::kDeadlineInfeasible;
      ev.time_us = simulator.Now();
      ev.request = req->meta.id;
      ev.value = static_cast<double>(req->meta.deadline_us);
      tracer->OnEvent(ev);
    }
    tracker.Transition(*req, RequestState::kDropped, simulator.Now());
    latents.Forget(req->meta.id, simulator.Now());
  }
  if (auditor != nullptr) auditor->OnRunEnd(simulator.Now());
  if (tracer != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kRunEnd;
    ev.time_us = simulator.Now();
    tracer->OnEvent(ev);
    scheduler->set_trace(nullptr);
  }

  result.records = tracker.Records();
  for (const metrics::RequestRecord& rec : result.records) {
    if (rec.outcome == metrics::Outcome::kDropped) ++result.num_dropped;
    if (rec.outcome == metrics::Outcome::kCancelled) {
      ++result.num_cancelled;
    }
  }
  result.recovery = metrics::ComputeRecovery(result.records);
  result.recovery.gpu_failures = engine.num_gpu_failures();
  result.recovery.gpu_recoveries = engine.num_gpu_recoveries();
  result.recovery.aborted_assignments = engine.num_aborted_assignments();
  result.recovery.lost_gpu_us = engine.lost_gpu_us();
  result.busy_gpu_us = engine.busy_gpu_us();
  result.makespan_us = simulator.Now();
  result.latent_transfer_us = latents.total_transfer_us();
  result.num_latent_transfers = latents.num_transfers();
  result.num_assignments = engine.num_assignments();
  result.reconfig_stall_us = engine.reconfig_stall_us();
  result.num_reconfigs = engine.num_reconfigs();
  if (auditor != nullptr) {
    result.audit_violations = auditor->total_violations();
    if (!auditor->clean()) result.audit_summary = auditor->Summary();
    // A self-installed auditor has nobody left to read the report:
    // promote any violation to a hard failure.
    if (owned_auditor != nullptr) {
      TETRI_CHECK_MSG(auditor->clean(), auditor->Summary());
    }
  }
  return result;
}

}  // namespace tetri::serving
