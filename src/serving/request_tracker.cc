#include "serving/request_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace tetri::serving {

namespace {

/** The queued order: earliest deadline first, ties by id. */
bool
Before(const RequestTracker::QueuedEntry& a,
       const RequestTracker::QueuedEntry& b)
{
  if (a.deadline_us != b.deadline_us) return a.deadline_us < b.deadline_us;
  return a.id < b.id;
}

}  // namespace

Request&
RequestTracker::Admit(workload::TraceRequest meta)
{
  TETRI_CHECK_MSG(!Contains(meta.id), "duplicate request id " << meta.id);
  if (audit_ != nullptr) {
    audit_->OnRequestAdmitted(meta.id, meta.arrival_us, meta.deadline_us,
                              meta.num_steps);
  }
  Request req;
  req.meta = std::move(meta);
  std::size_t slot = requests_.size();
  if (free_slots_.empty()) {
    requests_.push_back(std::move(req));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    requests_[slot] = std::move(req);
  }
  Request& admitted = requests_[slot];
  index_.emplace(admitted.meta.id, slot);
  const QueuedEntry entry{admitted.meta.deadline_us, admitted.meta.id,
                          &admitted};
  queued_.insert(
      std::lower_bound(queued_.begin(), queued_.end(), entry, Before),
      entry);
  ++num_active_;
  return admitted;
}

void
RequestTracker::Transition(Request& request, RequestState to, TimeUs now)
{
  if (audit_ != nullptr) {
    audit_->OnRequestTransition(request.meta.id,
                                static_cast<int>(request.state),
                                static_cast<int>(to), now);
  }
  const bool was_queued = request.state == RequestState::kQueued;
  const bool was_active = request.Active();
  request.state = to;
  const bool queued = to == RequestState::kQueued;
  if (was_queued != queued) {
    const QueuedEntry entry{request.meta.deadline_us, request.meta.id,
                            &request};
    const auto pos =
        std::lower_bound(queued_.begin(), queued_.end(), entry, Before);
    if (queued) {
      queued_.insert(pos, entry);
    } else {
      TETRI_CHECK_MSG(pos != queued_.end() && pos->id == entry.id,
                      "queued request " << entry.id
                                        << " missing from the queued list");
      queued_.erase(pos);
    }
  }
  num_active_ += static_cast<int>(request.Active()) -
                 static_cast<int>(was_active);
}

void
RequestTracker::Retire(const Request& request)
{
  TETRI_CHECK_MSG(!request.Active(),
                  "cannot retire active request " << request.meta.id);
  const auto it = index_.find(request.meta.id);
  TETRI_CHECK_MSG(it != index_.end(), "unknown request " << request.meta.id);
  free_slots_.push_back(it->second);
  index_.erase(it);
}

Request&
RequestTracker::Get(RequestId id)
{
  auto it = index_.find(id);
  TETRI_CHECK_MSG(it != index_.end(), "unknown request " << id);
  return requests_[it->second];
}

const Request&
RequestTracker::Get(RequestId id) const
{
  auto it = index_.find(id);
  TETRI_CHECK_MSG(it != index_.end(), "unknown request " << id);
  return requests_[it->second];
}

bool
RequestTracker::Contains(RequestId id) const
{
  return index_.contains(id);
}

std::vector<Request*>
RequestTracker::Schedulable(TimeUs now)
{
  std::vector<Request*> out;
  for (const QueuedEntry& entry : queued_) {
    if (entry.request->Arrived(now)) out.push_back(entry.request);
  }
  return out;
}

std::vector<metrics::RequestRecord>
RequestTracker::Records() const
{
  std::vector<metrics::RequestRecord> out;
  out.reserve(requests_.size());
  for (const auto& req : requests_) out.push_back(req.ToRecord());
  return out;
}

}  // namespace tetri::serving
