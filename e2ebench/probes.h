/**
 * @file
 * Benchmark-owned probes. Every layer is measured from outside: the
 * benchmark times calls into public functions and reads counters the
 * program already exposes. Nothing here reaches into src/ internals.
 *
 *  - TimedScheduler wraps a policy and times each Plan() call.
 *  - CountingSink is a trace::TraceSink that counts events by kind.
 *  - Report collects one run's verdict and metrics and prints it as
 *    the final JSON line run.py reads.
 */
#ifndef TETRI_E2EBENCH_PROBES_H
#define TETRI_E2EBENCH_PROBES_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "serving/scheduler.h"
#include "trace/sink.h"

namespace tetri::e2e {

/** Host monotonic time in seconds (steady_clock). */
double NowSec();

/** Seed number @p index derived from the workload seed (splitmix64). */
std::uint64_t DeriveSeed(std::uint64_t seed, int index);

/** Mean of @p values (0 when empty). */
double Mean(const std::vector<double>& values);

/** Median of @p values (0 when empty). */
double Median(std::vector<double> values);

/** Percentile @p p in [0, 100] by linear interpolation (0 when empty). */
double Percentile(std::vector<double> values, double p);

/** CPU time this thread has used, microseconds. */
double ThreadCpuUs();

/** CPU time every thread of this process has used, microseconds. */
double ProcessCpuUs();

/** Peak resident set size of this process, MiB. */
double PeakRssMb();

/**
 * Scheduler decorator: forwards Name, Mode, RoundDurationUs and
 * set_trace to the wrapped policy and times every Plan() call on the
 * host clock. Single-threaded, like every Scheduler: the simulator and
 * the runtime's planner thread each call it from one thread.
 */
class TimedScheduler final : public serving::Scheduler {
 public:
  explicit TimedScheduler(serving::Scheduler* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  serving::SchedulingMode Mode() const override { return inner_->Mode(); }
  TimeUs RoundDurationUs() const override {
    return inner_->RoundDurationUs();
  }
  void set_trace(trace::TraceSink* sink) override {
    inner_->set_trace(sink);
  }
  serving::RoundPlan Plan(const serving::ScheduleContext& ctx) override;

  /** Per-call Plan() host time, microseconds, in call order. */
  const std::vector<double>& plan_us() const { return plan_us_; }
  double total_plan_us() const { return total_plan_us_; }
  std::uint64_t calls() const { return plan_us_.size(); }
  /** Calls whose plan held at least one assignment. */
  std::uint64_t useful_calls() const { return useful_calls_; }
  double mean_queue_depth() const;
  std::size_t max_queue_depth() const { return max_depth_; }

 private:
  serving::Scheduler* inner_;
  std::vector<double> plan_us_;
  double total_plan_us_ = 0.0;
  std::uint64_t useful_calls_ = 0;
  std::uint64_t depth_sum_ = 0;
  std::size_t max_depth_ = 0;
};

/**
 * Trace sink that only counts. Safe to call from several threads: the
 * runtime's planner, workers and watchdog emit concurrently.
 */
class CountingSink final : public trace::TraceSink {
 public:
  static constexpr int kNumKinds =
      static_cast<int>(trace::TraceEventKind::kRunEnd) + 1;

  void OnEvent(const trace::TraceEvent& event) override;

  std::uint64_t count(trace::TraceEventKind kind) const {
    return counts_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }
  std::uint64_t total() const;
  /** Mean pack utilization over kRoundEnd events (0 when none). */
  double mean_pack_utilization() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumKinds> counts_{};
  /** Sum of kRoundEnd utilizations, in parts per billion. */
  std::atomic<std::uint64_t> utilization_ppb_{0};
};

/** FNV-1a digest of every per-request record field, in record order. */
std::uint64_t RecordsDigest(
    const std::vector<metrics::RequestRecord>& records);

/** One run's result: verdict, counts, metrics and context lines. */
class Report {
 public:
  void Metric(const std::string& name, double value,
              const std::string& unit);
  /** Context printed for humans and kept in the JSON `info` block. */
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  /** Record a verification failure; the run then reports incorrect. */
  void Fail(const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool HasMetric(const std::string& name) const;
  bool correct() const { return failures_.empty(); }
  /** Print the human-readable lines, then the JSON result line. */
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

}  // namespace tetri::e2e

#endif  // TETRI_E2EBENCH_PROBES_H
