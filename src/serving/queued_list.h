/**
 * @file
 * The queued set of a serving run: every kQueued request, kept sorted
 * by (deadline, id) and updated at each state transition (admission,
 * dispatch, requeue, terminal) instead of rebuilt and re-sorted per
 * planner tick. A tick only filters this carried list. RequestTracker
 * (the simulated serving loop) and runtime::ServingRuntime (the
 * concurrent runtime) both keep their pending set in one, so the
 * queued order is defined here and nowhere else.
 */
#ifndef TETRI_SERVING_QUEUED_LIST_H
#define TETRI_SERVING_QUEUED_LIST_H

#include <vector>

#include "serving/request.h"

namespace tetri::serving {

/** Requests in kQueued state, sorted by (deadline, id). */
class QueuedList {
 public:
  /** One entry: the (deadline, id) sort key — immutable for a
   * request's lifetime — plus the Request, whose address must stay
   * stable while it is listed. */
  struct Entry {
    TimeUs deadline_us = 0;
    RequestId id = kInvalidRequest;
    Request* request = nullptr;
  };

  /** Insert @p request at its sorted position; it must not be listed. */
  void Insert(Request* request);
  /** Remove @p request if listed; false if it was not (a terminal
   * transition out of kRunning was never listed). */
  bool Erase(const Request& request);

  std::vector<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_QUEUED_LIST_H
