/**
 * @file
 * The concrete invariant checkers (one per scheduler invariant the
 * paper relies on) and helpers that install the standard suite:
 *
 *  - EventTimeMonotonicityChecker: the virtual clock never runs
 *    backwards and nothing is scheduled in the past.
 *  - GpuConservationChecker: round plans use only free GPUs, worker
 *    sets are disjoint, no GPU outside the node is touched, and every
 *    sequence-parallel degree is a power of two; at the engine level,
 *    dispatch/complete never oversubscribe a GPU.
 *  - RequestLifecycleChecker: request state transitions follow the
 *    legal machine Queued->Running->{Queued,Finished}, Queued->Dropped.
 *  - DeadlineAccountingChecker: deadlines are after arrivals, a
 *    dispatch never exceeds a member's remaining steps, batch members
 *    share a resolution, step accounting adds up exactly at finish,
 *    and scheduler invocations move forward in time.
 *  - LatentLifetimeChecker: a request's latent buffer is never
 *    assigned after release (use-after-release) or released twice.
 *  - GpuHealthChecker: no plan, dispatch, or latent placement ever
 *    touches a GPU that failed and has not recovered; fail/recover
 *    notifications bracket sanely.
 *  - RuntimeConservationChecker: every admitted request reaches
 *    exactly one terminal state (finished/dropped/cancelled) by end of
 *    run — no request is silently lost or counted twice across
 *    failures and requeues, in the simulator and the runtime alike.
 *  - CostModelSanityChecker: profiled latencies are finite, positive,
 *    and monotone in resolution; runs once over the table at install.
 *
 * Every hook is O(1) amortized per runtime event (hash-map lookups and
 * bit operations); the cost-model sweep is O(table) once.
 */
#ifndef TETRI_AUDIT_CHECKERS_H
#define TETRI_AUDIT_CHECKERS_H

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "audit/audit.h"
#include "costmodel/resolution.h"

namespace tetri::costmodel {
class LatencyTable;
}  // namespace tetri::costmodel

namespace tetri::audit {

/** Virtual-time monotonicity of the event queue. */
class EventTimeMonotonicityChecker final : public Checker {
 public:
  std::string_view name() const override {
    return "event-time-monotonicity";
  }
  void OnEventScheduled(TimeUs now, TimeUs at) override;
  void OnEventFired(TimeUs prev, TimeUs now) override;
};

/**
 * Per-round GPU conservation and power-of-two SP degrees. With
 * @p allow_non_pow2 the degree checks are skipped (relaxed-placement
 * schedulers legally dispatch degree-3 groups); conservation checks
 * are unconditional.
 */
class GpuConservationChecker final : public Checker {
 public:
  explicit GpuConservationChecker(bool allow_non_pow2 = false)
      : allow_non_pow2_(allow_non_pow2) {}
  std::string_view name() const override { return "gpu-conservation"; }
  void OnRoundPlan(const RoundAudit& round) override;
  void OnDispatch(const DispatchAudit& dispatch) override;
  void OnAssignmentComplete(const CompleteAudit& complete) override;
  void OnAssignmentAborted(const CompleteAudit& aborted) override;

 private:
  /** GPUs currently executing, mirrored from dispatch/complete. */
  GpuMask busy_ = 0;
  const bool allow_non_pow2_;
};

/** Failed GPUs never receive work until they recover. */
class GpuHealthChecker final : public Checker {
 public:
  std::string_view name() const override { return "gpu-health"; }
  void OnGpuFailed(GpuMask mask, TimeUs now) override;
  void OnGpuRecovered(GpuMask mask, TimeUs now) override;
  void OnRoundPlan(const RoundAudit& round) override;
  void OnDispatch(const DispatchAudit& dispatch) override;
  void OnLatentAssign(RequestId id, GpuMask mask, TimeUs now) override;

 private:
  /** GPUs currently failed, mirrored from fail/recover events. */
  GpuMask failed_ = 0;
};

/**
 * Request conservation, one rule for the simulator and the concurrent
 * runtime (both feed it from serving::RequestTracker): every admitted
 * request reaches exactly one terminal state by end of run, so
 * completed + dropped + cancelled == admitted under any schedule of
 * failures, crashes, requeues and retries. A request still open at
 * run end was silently lost; double admission, terminal transitions
 * for unknown requests, and double terminals are violations too, so a
 * watchdog requeue racing a late worker completion cannot count a
 * request twice.
 *
 * Like every checker it must be fed from one thread; the runtime
 * emits all audit notifications from its planner thread.
 */
class RuntimeConservationChecker final : public Checker {
 public:
  std::string_view name() const override {
    return "request-conservation";
  }
  void OnRequestAdmitted(RequestId id, TimeUs arrival_us,
                         TimeUs deadline_us, int num_steps) override;
  void OnRequestTransition(RequestId id, int from_state, int to_state,
                           TimeUs now) override;
  void OnRunEnd(TimeUs now) override;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t open_count() const { return open_.size(); }

 private:
  std::unordered_set<RequestId> open_;
  std::unordered_set<RequestId> terminal_;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t cancelled_ = 0;
};

/** Request state-machine legality. */
class RequestLifecycleChecker final : public Checker {
 public:
  std::string_view name() const override { return "request-lifecycle"; }
  void OnRequestAdmitted(RequestId id, TimeUs arrival_us,
                         TimeUs deadline_us, int num_steps) override;
  void OnRequestTransition(RequestId id, int from_state, int to_state,
                           TimeUs now) override;

 private:
  /** Tracked state per request (serving::RequestState as int). */
  std::unordered_map<RequestId, int> state_;
};

/** Deadline and per-step accounting consistency. */
class DeadlineAccountingChecker final : public Checker {
 public:
  std::string_view name() const override {
    return "deadline-accounting";
  }
  void OnRequestAdmitted(RequestId id, TimeUs arrival_us,
                         TimeUs deadline_us, int num_steps) override;
  void OnRoundPlan(const RoundAudit& round) override;
  void OnDispatch(const DispatchAudit& dispatch) override;
  void OnAssignmentComplete(const CompleteAudit& complete) override;
  void OnRequestTransition(RequestId id, int from_state, int to_state,
                           TimeUs now) override;

 private:
  struct Account {
    TimeUs deadline_us = 0;
    int num_steps = 0;
    int steps_done = 0;
  };
  std::unordered_map<RequestId, Account> accounts_;
  TimeUs last_plan_now_ = 0;
};

/** Latent buffer lifetime: no use-after-release, no double release. */
class LatentLifetimeChecker final : public Checker {
 public:
  std::string_view name() const override { return "latent-lifetime"; }
  void OnLatentAssign(RequestId id, GpuMask mask, TimeUs now) override;
  void OnLatentRelease(RequestId id, TimeUs now) override;

 private:
  std::unordered_set<RequestId> live_;
  std::unordered_set<RequestId> released_;
};

/** Profiled latency-table sanity (finite, positive, monotone). */
class CostModelSanityChecker final : public Checker {
 public:
  /**
   * Functional view over a latency table. Validate() builds one from
   * the real LatencyTable; tests can hand ValidateView a synthetic
   * view to exercise the violation paths.
   */
  struct TableView {
    std::vector<int> degrees;
    int max_batch = 1;
    std::function<double(costmodel::Resolution, int, int)> step_us;
    std::function<double(costmodel::Resolution, int, int)> cv;
    std::function<double(costmodel::Resolution, int, int)> gpu_us;
    std::function<double(costmodel::Resolution)> vae_us;
  };

  explicit CostModelSanityChecker(const costmodel::LatencyTable* table);
  std::string_view name() const override { return "costmodel-sanity"; }

  /** Sweep the whole table once; reports one violation per bad cell. */
  void Validate();

  /** Sweep an arbitrary table view (testing entry point). */
  void ValidateView(const TableView& view);

 private:
  const costmodel::LatencyTable* table_;
};

/**
 * Install the seven runtime checkers (everything except the cost-model
 * sweep, which needs a latency table). @p allow_non_pow2 relaxes the
 * GpuConservationChecker's power-of-two degree checks.
 */
void InstallStandardCheckers(Auditor& auditor,
                             bool allow_non_pow2 = false);

/** Install the cost-model checker and validate @p table immediately. */
CostModelSanityChecker& InstallCostModelChecker(
    Auditor& auditor, const costmodel::LatencyTable* table);

}  // namespace tetri::audit

#endif  // TETRI_AUDIT_CHECKERS_H
