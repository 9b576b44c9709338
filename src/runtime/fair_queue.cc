#include "runtime/fair_queue.h"

#include <utility>

#include "util/check.h"

namespace tetri::runtime {

FairAdmissionQueue::FairAdmissionQueue(std::size_t per_tenant_capacity,
                                       OverflowPolicy policy,
                                       const std::vector<TenantSpec>& tenants)
    : capacity_(per_tenant_capacity), policy_(policy)
{
  TETRI_CHECK(capacity_ > 0);
  const util::MutexLock lock(mu_);
  for (const TenantSpec& spec : tenants) {
    TETRI_CHECK(spec.weight >= 1);
    const std::size_t slot = SlotFor(spec.id);
    queues_[slot].weight = spec.weight;
  }
}

void FairAdmissionQueue::RegisterTenant(const TenantSpec& spec) {
  TETRI_CHECK(spec.weight >= 1);
  const util::MutexLock lock(mu_);
  const std::size_t slot = SlotFor(spec.id);
  queues_[slot].weight = spec.weight;
}

std::size_t FairAdmissionQueue::SlotFor(TenantId id) {
  const auto it = slots_.find(id);
  if (it != slots_.end()) return it->second;
  const std::size_t slot = queues_.size();
  SubQueue q;
  q.id = id;
  queues_.push_back(std::move(q));
  slots_.emplace(id, slot);
  return slot;
}

AdmitOutcome FairAdmissionQueue::Push(workload::TraceRequest request) {
  const util::MutexLock lock(mu_);
  const std::size_t slot = SlotFor(request.tenant);
  while (!closed_ && queues_[slot].items.size() >= capacity_) {
    if (policy_ == OverflowPolicy::kShed) {
      ++queues_[slot].counters.shed;
      return AdmitOutcome::kShed;
    }
    not_full_.Wait(mu_);
  }
  if (closed_) {
    ++queues_[slot].counters.rejected_closed;
    return AdmitOutcome::kClosed;
  }
  queues_[slot].items.push_back(std::move(request));
  ++queues_[slot].counters.admitted;
  ++total_size_;
  return AdmitOutcome::kAdmitted;
}

AdmitOutcome FairAdmissionQueue::TryPush(workload::TraceRequest request) {
  const util::MutexLock lock(mu_);
  const std::size_t slot = SlotFor(request.tenant);
  if (closed_) {
    ++queues_[slot].counters.rejected_closed;
    return AdmitOutcome::kClosed;
  }
  if (queues_[slot].items.size() >= capacity_) {
    ++queues_[slot].counters.shed;
    return AdmitOutcome::kShed;
  }
  queues_[slot].items.push_back(std::move(request));
  ++queues_[slot].counters.admitted;
  ++total_size_;
  return AdmitOutcome::kAdmitted;
}

std::size_t FairAdmissionQueue::DrainFairLocked(
    std::size_t max_items, std::vector<workload::TraceRequest>* out) {
  std::size_t taken = 0;
  const std::size_t n = queues_.size();
  // Each cycle credits every backlogged tenant `weight` deficit units
  // and dequeues one request per unit. An empty sub-queue forfeits its
  // deficit (classic DRR), so idle tenants cannot bank credit and
  // later burst past their weight share.
  while (total_size_ > 0 && (max_items == 0 || taken < max_items)) {
    bool progressed = false;
    for (std::size_t step = 0; step < n; ++step) {
      SubQueue& q = queues_[(cursor_ + step) % n];
      if (q.items.empty()) {
        q.deficit = 0;
        continue;
      }
      q.deficit += q.weight;
      while (q.deficit > 0 && !q.items.empty() &&
             (max_items == 0 || taken < max_items)) {
        out->push_back(std::move(q.items.front()));
        q.items.pop_front();
        --q.deficit;
        ++q.counters.drained;
        --total_size_;
        ++taken;
        progressed = true;
      }
      if (q.items.empty()) q.deficit = 0;
    }
    if (!progressed) break;
  }
  if (n > 0) cursor_ = (cursor_ + 1) % n;
  return taken;
}

std::size_t FairAdmissionQueue::DrainFair(
    std::size_t max_items, std::vector<workload::TraceRequest>* out) {
  std::size_t taken = 0;
  {
    const util::MutexLock lock(mu_);
    taken = DrainFairLocked(max_items, out);
  }
  // Draining freed room: wake blocked producers after unlock, so none
  // of them blocks at once on mu_.
  if (taken > 0) not_full_.SignalAll();
  return taken;
}

void FairAdmissionQueue::Close() {
  {
    const util::MutexLock lock(mu_);
    closed_ = true;
  }
  not_full_.SignalAll();
}

bool FairAdmissionQueue::closed() const {
  const util::MutexLock lock(mu_);
  return closed_;
}

std::size_t FairAdmissionQueue::size() const {
  const util::MutexLock lock(mu_);
  return total_size_;
}

std::vector<TenantId> FairAdmissionQueue::tenant_ids() const {
  const util::MutexLock lock(mu_);
  std::vector<TenantId> ids;
  ids.reserve(queues_.size());
  for (const SubQueue& q : queues_) ids.push_back(q.id);
  return ids;
}

TenantCounters FairAdmissionQueue::tenant_counters(TenantId id) const {
  const util::MutexLock lock(mu_);
  const auto it = slots_.find(id);
  if (it == slots_.end()) return TenantCounters{};
  return queues_[it->second].counters;
}

AdmissionCounters FairAdmissionQueue::counters() const {
  const util::MutexLock lock(mu_);
  AdmissionCounters total;
  for (const SubQueue& q : queues_) {
    total.admitted += q.counters.admitted;
    total.shed += q.counters.shed;
    total.rejected_closed += q.counters.rejected_closed;
  }
  return total;
}

}  // namespace tetri::runtime
