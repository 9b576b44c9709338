/**
 * @file
 * Request Tracker (§3): owns the metadata and execution state of every
 * request in flight — resolutions, deadlines, remaining steps — and is
 * the scheduler's source of truth for what is pending. The simulated
 * serving loop and runtime::ServingRuntime both keep their requests in
 * one, so the request lifecycle and the queued order are defined here
 * and nowhere else.
 */
#ifndef TETRI_SERVING_REQUEST_TRACKER_H
#define TETRI_SERVING_REQUEST_TRACKER_H

#include <deque>
#include <unordered_map>
#include <vector>

#include "audit/sink.h"
#include "serving/request.h"

namespace tetri::serving {

/** Registry of the requests of one serving run. */
class RequestTracker {
 public:
  /** One entry of the queued list: the (deadline, id) sort key —
   * immutable for a request's lifetime — plus the Request. */
  struct QueuedEntry {
    TimeUs deadline_us = 0;
    RequestId id = kInvalidRequest;
    Request* request = nullptr;
  };

  /** Attach an audit sink notified of admissions and transitions. */
  void set_audit(audit::AuditSink* sink) { audit_ = sink; }

  /** Register an arrived request in kQueued. Ids must be unique among
   * the requests not yet retired. */
  Request& Admit(workload::TraceRequest meta);

  /**
   * Move @p request to @p to at time @p now. The single mutation point
   * for request states: every lifecycle change flows through here so
   * the audit layer sees the full transition stream and the queued
   * list and active count stay current.
   */
  void Transition(Request& request, RequestState to, TimeUs now);

  /**
   * Forget a terminal request: its id becomes unknown and a later
   * Admit reuses its slot, so a caller that retires every request at
   * its terminal transition keeps a store the size of its live set.
   * Every other Request* stays valid. Panics on an active request.
   */
  void Retire(const Request& request);

  /** Lookup by id; the request must exist. */
  Request& Get(RequestId id);
  const Request& Get(RequestId id) const;
  bool Contains(RequestId id) const;

  /**
   * Requests that are schedulable right now: arrived, in kQueued state
   * (not currently executing), sorted by deadline then id. Filters the
   * carried queued list; nothing is scanned or sorted.
   */
  std::vector<Request*> Schedulable(TimeUs now);

  /** Every kQueued request in (deadline, id) order, kept sorted at
   * each transition instead of rebuilt per planner tick. */
  const std::vector<QueuedEntry>& Queued() const { return queued_; }

  /** All requests still kQueued or kRunning. */
  int NumActive() const { return num_active_; }

  /** Export every request as a metrics record (trace order). Defined
   * only for a run that retires nothing, as the simulator does. */
  std::vector<metrics::RequestRecord> Records() const;

 private:
  std::unordered_map<RequestId, std::size_t> index_;
  /** Slots in admission order. A deque, so the Request* held by
   * `queued_` and by callers stays valid as later admissions grow the
   * store. */
  std::deque<Request> requests_;
  /** Slots of retired requests, reused by Admit. */
  std::vector<std::size_t> free_slots_;
  std::vector<QueuedEntry> queued_;
  int num_active_ = 0;
  audit::AuditSink* audit_ = nullptr;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_REQUEST_TRACKER_H
