/**
 * @file
 * Per-tenant weighted-fair admission queue — the serving runtime's
 * front door.
 *
 * Any number of client threads Push; exactly one consumer (the planner
 * thread) drains. The queue is bounded so overload surfaces at the
 * front door instead of as unbounded memory growth: when a tenant's
 * sub-queue is full, a Push either blocks until the planner drains
 * (kBlock, backpressure) or is refused immediately (kShed, load
 * shedding). Closing the queue makes every later Push return kClosed —
 * the first step of the graceful drain protocol (runtime.h) — while
 * queued work stays drainable, so Close never discards accepted work.
 *
 * A single FIFO would let one producer flooding the front door starve
 * everyone behind it. FairAdmissionQueue therefore splits the buffer
 * into per-tenant sub-queues, each with its own capacity, and drains
 * them by weighted deficit round-robin (DRR): every drain cycle
 * credits each backlogged tenant `weight` units of deficit and
 * dequeues one request per unit, so over any window the drained mix
 * converges to the weight ratio regardless of offered load. Overflow
 * is charged to the tenant that caused it — a flooding tenant sheds
 * (or blocks) only itself, never its neighbours.
 *
 * The consumer never blocks here: the planner learns of new work from
 * its own wake channel (ServingRuntime::Submit signals it), so the
 * queue keeps no not-empty CondVar.
 */
#ifndef TETRI_RUNTIME_FAIR_QUEUE_H
#define TETRI_RUNTIME_FAIR_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "runtime/admission_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/types.h"
#include "workload/trace.h"

namespace tetri::runtime {

/** Declares a tenant and its fair-share weight (>= 1). */
struct TenantSpec {
  TenantId id = kDefaultTenant;
  int weight = 1;
};

/** Front-door decisions charged to one tenant. */
struct TenantCounters {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected_closed = 0;
  /** Requests handed to the consumer so far. */
  std::uint64_t drained = 0;
};

/** Bounded MPSC queue with per-tenant sub-queues and DRR drain. */
class FairAdmissionQueue {
 public:
  /**
   * @p per_tenant_capacity bounds each sub-queue independently, so a
   * single-tenant configuration is one bounded FIFO of that capacity.
   * Tenants not in @p tenants are registered on first Push with
   * weight 1.
   */
  FairAdmissionQueue(std::size_t per_tenant_capacity,
                     OverflowPolicy policy,
                     const std::vector<TenantSpec>& tenants = {});

  FairAdmissionQueue(const FairAdmissionQueue&) = delete;
  FairAdmissionQueue& operator=(const FairAdmissionQueue&) = delete;

  /** Declare a tenant up front (idempotent; updates the weight). */
  void RegisterTenant(const TenantSpec& spec);

  /**
   * Enqueue @p request on its tenant's sub-queue. Under kBlock a full
   * sub-queue blocks this producer until that tenant drains (or Close
   * wins); under kShed it refuses immediately. Other tenants' queues
   * are irrelevant to the decision.
   */
  AdmitOutcome Push(workload::TraceRequest request);

  /** Like Push but never blocks: full sub-queue sheds regardless of
   * the overflow policy. */
  AdmitOutcome TryPush(workload::TraceRequest request);

  /**
   * Consumer side: dequeue up to @p max_items requests (0 = no limit)
   * into @p out in weighted-DRR order, without blocking. Returns the
   * number taken. Deficit and cursor carry across calls, so fairness
   * holds across drains, not just within one.
   */
  std::size_t DrainFair(std::size_t max_items,
                        std::vector<workload::TraceRequest>* out);

  /** Shut the front door; queued requests stay drainable. */
  void Close();

  bool closed() const;
  /** Total queued across all tenants. */
  std::size_t size() const;
  std::size_t per_tenant_capacity() const { return capacity_; }
  OverflowPolicy policy() const { return policy_; }

  /** Registered tenants, in registration (= DRR) order. */
  std::vector<TenantId> tenant_ids() const;
  /** Counters for one tenant (zeros if unknown). */
  TenantCounters tenant_counters(TenantId id) const;
  /** Aggregate counters across tenants. */
  AdmissionCounters counters() const;

 private:
  struct SubQueue {
    TenantId id = kDefaultTenant;
    int weight = 1;
    long deficit = 0;
    std::deque<workload::TraceRequest> items;
    TenantCounters counters;
  };

  /** Index of @p id's sub-queue, registering it if unseen. */
  std::size_t SlotFor(TenantId id) TETRI_REQUIRES(mu_);
  /** Dequeue as DrainFair; returns the count so the caller can wake
   * blocked producers after releasing mu_. */
  std::size_t DrainFairLocked(std::size_t max_items,
                              std::vector<workload::TraceRequest>* out)
      TETRI_REQUIRES(mu_);

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  mutable util::Mutex mu_;
  util::CondVar not_full_;
  std::vector<SubQueue> queues_ TETRI_GUARDED_BY(mu_);
  std::unordered_map<TenantId, std::size_t> slots_ TETRI_GUARDED_BY(mu_);
  std::size_t total_size_ TETRI_GUARDED_BY(mu_) = 0;
  std::size_t cursor_ TETRI_GUARDED_BY(mu_) = 0;
  bool closed_ TETRI_GUARDED_BY(mu_) = false;
};

}  // namespace tetri::runtime

#endif  // TETRI_RUNTIME_FAIR_QUEUE_H
