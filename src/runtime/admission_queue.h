/**
 * @file
 * Front-door vocabulary of the serving runtime: what happened to one
 * submission (AdmitOutcome), what a full queue does (OverflowPolicy),
 * and the counters of both. The queue itself is FairAdmissionQueue
 * (runtime/fair_queue.h).
 */
#ifndef TETRI_RUNTIME_ADMISSION_QUEUE_H
#define TETRI_RUNTIME_ADMISSION_QUEUE_H

#include <cstdint>

namespace tetri::runtime {

/** What the front door did with one submission. */
enum class AdmitOutcome : std::uint8_t {
  kAdmitted,  ///< queued for the planner
  kShed,      ///< refused: queue full under OverflowPolicy::kShed
  kClosed,    ///< refused: the runtime is draining or stopped
};

/** Behaviour of Push when the queue is at capacity. */
enum class OverflowPolicy : std::uint8_t {
  /** Block the producer until the planner drains (backpressure). */
  kBlock,
  /** Refuse the submission immediately (load shedding). */
  kShed,
};

/** Monotone counters of front-door decisions. */
struct AdmissionCounters {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected_closed = 0;
};

}  // namespace tetri::runtime

#endif  // TETRI_RUNTIME_ADMISSION_QUEUE_H
