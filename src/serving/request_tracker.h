/**
 * @file
 * Request Tracker (§3): owns the metadata and execution state of every
 * request in flight — resolutions, deadlines, remaining steps — and is
 * the scheduler's source of truth for what is pending.
 */
#ifndef TETRI_SERVING_REQUEST_TRACKER_H
#define TETRI_SERVING_REQUEST_TRACKER_H

#include <deque>
#include <unordered_map>
#include <vector>

#include "audit/sink.h"
#include "serving/queued_list.h"
#include "serving/request.h"

namespace tetri::serving {

/** Registry of all requests of one serving run. */
class RequestTracker {
 public:
  /** Attach an audit sink notified of admissions and transitions. */
  void set_audit(audit::AuditSink* sink) { audit_ = sink; }

  /** Register an arrived request. Ids must be unique. */
  Request& Admit(const workload::TraceRequest& meta);

  /**
   * Move @p request to @p to at time @p now. The single mutation point
   * for request states: every lifecycle change flows through here so
   * the audit layer sees the full transition stream and the queued
   * list and active count stay current.
   */
  void Transition(Request& request, RequestState to, TimeUs now);

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

  /** All requests still kQueued or kRunning. */
  int NumActive() const { return num_active_; }

  /** Export every request as a metrics record (trace order). */
  std::vector<metrics::RequestRecord> Records() const;

 private:
  std::unordered_map<RequestId, std::size_t> index_;
  /** Admission order. A deque, so the Request* held by `queued_` and
   * by callers stays valid as later admissions grow the store. */
  std::deque<Request> requests_;
  QueuedList queued_;
  int num_active_ = 0;
  audit::AuditSink* audit_ = nullptr;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_REQUEST_TRACKER_H
