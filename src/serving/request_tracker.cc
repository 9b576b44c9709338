#include "serving/request_tracker.h"

#include "util/check.h"

namespace tetri::serving {

Request&
RequestTracker::Admit(const workload::TraceRequest& meta)
{
  TETRI_CHECK_MSG(!Contains(meta.id), "duplicate request id " << meta.id);
  if (audit_ != nullptr) {
    audit_->OnRequestAdmitted(meta.id, meta.arrival_us, meta.deadline_us,
                              meta.num_steps);
  }
  index_.emplace(meta.id, requests_.size());
  Request req;
  req.meta = meta;
  requests_.push_back(std::move(req));
  Request& admitted = requests_.back();
  queued_.Insert(&admitted);
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
  if (was_queued && !queued) {
    TETRI_CHECK_MSG(queued_.Erase(request),
                    "queued request " << request.meta.id
                                      << " missing from the queued list");
  }
  if (!was_queued && queued) queued_.Insert(&request);
  num_active_ += static_cast<int>(request.Active()) -
                 static_cast<int>(was_active);
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
  for (const QueuedList::Entry& entry : queued_) {
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
