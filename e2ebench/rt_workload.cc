/**
 * @file
 * Runtime workload: runtime::ServingRuntime in control-plane mode
 * (execution_time_scale = 0, two workers) on the FLUX H100x8 table.
 *
 * Load is one producer thread in a closed loop with kWindow requests
 * in flight: it submits the next request as soon as on_complete hands
 * a slot back. Requests have 50 steps, resolutions drawn from the
 * skewed mix on the workload seed, and budgets far beyond any queueing
 * delay, so every admitted request should complete. Latency is host
 * time from the Submit call to the on_complete callback.
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "cluster/topology.h"
#include "core/tetri_scheduler.h"
#include "costmodel/latency_table.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "metrics/histogram.h"
#include "runtime/runtime.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "workload/mix.h"
#include "workloads.h"

namespace tetri::e2e {
namespace {

constexpr int kWindow = 16;
constexpr int kSteps = 50;
constexpr TimeUs kAmpleBudgetUs = 600'000'000;
constexpr double kWarmupSec = 0.5;
constexpr double kSegmentSec = 0.5;
constexpr int kSetups = 15;
/** Independent runtimes per timed run; see RunTimed. */
constexpr int kEpochs = 4;
/** Submission-time ring; a slot is reused kRingSize ids later, far
 * beyond the kWindow requests that can be in flight. */
constexpr std::size_t kRingSize = 1 << 16;

/** The profiled cost table and the node it describes. */
struct RtSystem {
  RtSystem()
      : model(costmodel::ModelConfig::FluxDev()),
        topology(cluster::Topology::H100Node(8)),
        cost(&model, &topology),
        table(costmodel::LatencyTable::Profile(cost))
  {
  }
  costmodel::ModelConfig model;
  cluster::Topology topology;
  costmodel::StepCostModel cost;
  costmodel::LatencyTable table;
};

/** Counting semaphore handing in-flight slots back to the producer. */
class Window {
 public:
  explicit Window(int slots) : available_(slots) {}

  void Acquire()
  {
    util::MutexLock lock(mu_);
    while (available_ == 0) cv_.Wait(mu_);
    --available_;
  }

  void Release()
  {
    util::MutexLock lock(mu_);
    ++available_;
    cv_.Signal();
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  int available_ TETRI_GUARDED_BY(mu_);
};

/** Producer-written, planner-read record of one submission. */
struct Slot {
  std::atomic<std::int64_t> id{-1};
  std::atomic<double> submit_sec{0.0};
  std::atomic<bool> delivered{true};
};

/** Submit-to-complete latency buckets: 1 us to 100 s, 0.8% wide. */
metrics::Histogram
LatencyHistogram()
{
  return metrics::Histogram::LogSpaced(1.0, 1e8, 2400);
}

/** Optional instrumentation for one phase. */
struct Probes {
  serving::Scheduler* scheduler = nullptr;
  trace::TraceSink* sink = nullptr;
  audit::AuditSink* audit = nullptr;
};

struct Phase {
  std::uint64_t submitted = 0;
  double measured_s = 0.0;
  std::vector<double> segment_rates;
  std::vector<double> submit_us;
  // Written by the planner thread (on_complete); read after Drain. A
  // histogram keeps memory flat however many requests complete.
  metrics::Histogram latency_us = LatencyHistogram();
  double latency_sum_us = 0.0;
  std::uint64_t measured_terminal = 0;
  std::uint64_t measured_met = 0;
  std::uint64_t delivered = 0;
  std::uint64_t misdelivered = 0;
  // Producer-side failures.
  std::uint64_t refused = 0;
  std::uint64_t id_mismatch = 0;
  std::uint64_t ring_overruns = 0;
  runtime::RuntimeStats stats;
  std::vector<runtime::TenantRuntimeStats> tenants;
  metrics::Histogram plan_latency_us;
  /** Process CPU time (every thread, the producer included) from
   * runtime construction to the end of Drain. */
  double cpu_us = 0.0;
};

Phase
RunPhase(RtSystem& sys, std::uint64_t seed, double seconds,
         const Probes& probes)
{
  Phase phase;
  core::TetriScheduler tetri(&sys.table);
  serving::Scheduler* scheduler =
      probes.scheduler != nullptr ? probes.scheduler : &tetri;

  Window window(kWindow);
  std::vector<Slot> ring(kRingSize);
  std::atomic<std::int64_t> measure_from{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::uint64_t> completions{0};

  runtime::RuntimeOptions options;
  options.queue_capacity = 2 * kWindow;
  options.overflow = runtime::OverflowPolicy::kBlock;
  options.num_workers = 2;
  options.execution_time_scale = 0.0;
  options.trace = probes.sink;
  options.audit = probes.audit;
  options.on_complete = [&](const runtime::Completion& c) {
    const double now = NowSec();
    Slot& slot = ring[static_cast<std::size_t>(c.id) % kRingSize];
    if (slot.id.load(std::memory_order_acquire) != c.id ||
        slot.delivered.exchange(true, std::memory_order_acq_rel)) {
      ++phase.misdelivered;
    } else {
      ++phase.delivered;
      if (c.id >= measure_from.load(std::memory_order_acquire)) {
        ++phase.measured_terminal;
        if (c.outcome == metrics::Outcome::kCompleted) {
          if (c.finished_us - c.admitted_us <= kAmpleBudgetUs) {
            ++phase.measured_met;
          }
          const double us =
              (now - slot.submit_sec.load(std::memory_order_acquire)) * 1e6;
          phase.latency_us.Add(us);
          phase.latency_sum_us += us;
        }
      }
    }
    completions.fetch_add(1, std::memory_order_release);
    window.Release();
  };

  Rng rng(seed);
  const workload::ResolutionMix mix = workload::ResolutionMix::Skewed();
  {
    const double cpu0 = ProcessCpuUs();
    runtime::ServingRuntime rt(scheduler, &sys.topology, &sys.table,
                               options);
    const double start = NowSec();
    double measure_start = -1.0, segment_start = 0.0;
    std::uint64_t segment_completions = 0;
    for (std::int64_t k = 0;; ++k) {
      const double now = NowSec();
      if (measure_start < 0.0 && now - start >= kWarmupSec) {
        measure_start = segment_start = now;
        segment_completions = completions.load(std::memory_order_acquire);
        measure_from.store(k, std::memory_order_release);
      }
      if (measure_start >= 0.0 && now - segment_start >= kSegmentSec) {
        const std::uint64_t c = completions.load(std::memory_order_acquire);
        phase.segment_rates.push_back(
            static_cast<double>(c - segment_completions) /
            (now - segment_start));
        segment_completions = c;
        segment_start = now;
        if (now - measure_start >= seconds) {
          phase.measured_s = now - measure_start;
          break;
        }
      }

      const costmodel::Resolution res = mix.Sample(rng);
      window.Acquire();
      Slot& slot = ring[static_cast<std::size_t>(k) % kRingSize];
      if (!slot.delivered.load(std::memory_order_acquire)) {
        ++phase.ring_overruns;
      }
      slot.delivered.store(false, std::memory_order_relaxed);
      slot.id.store(k, std::memory_order_relaxed);
      const double t0 = NowSec();
      slot.submit_sec.store(t0, std::memory_order_release);
      RequestId id = kInvalidRequest;
      const runtime::AdmitOutcome outcome =
          rt.Submit(res, kSteps, kAmpleBudgetUs, &id);
      if (measure_start >= 0.0) {
        phase.submit_us.push_back((NowSec() - t0) * 1e6);
      }
      ++phase.submitted;
      if (outcome != runtime::AdmitOutcome::kAdmitted) {
        ++phase.refused;
        slot.delivered.store(true, std::memory_order_release);
        window.Release();
      } else if (id != k) {
        ++phase.id_mismatch;
      }
    }
    rt.Drain();
    phase.cpu_us = ProcessCpuUs() - cpu0;
    phase.stats = rt.stats();
    phase.tenants = rt.tenant_stats();
    phase.plan_latency_us = rt.plan_latency_us().Snapshot();
  }
  return phase;
}

/** Measured time of a phase given @p budget_s for it, warm-up
 * included. */
double
MeasureSec(double budget_s)
{
  return std::max(kSegmentSec, budget_s - kWarmupSec);
}

/** Checks the runtime's conservation and delivery contract. Returns
 * the number of requests without a valid terminal delivery. */
std::uint64_t
VerifyPhase(const Phase& p, Report* report)
{
  const runtime::RuntimeStats& s = p.stats;
  const std::uint64_t admitted = s.admission.admitted;
  std::uint64_t bad = p.refused + p.id_mismatch + p.misdelivered +
                      p.ring_overruns + s.failed;
  if (admitted != p.submitted) {
    report->Fail("admitted " + std::to_string(admitted) +
                 " != submitted " + std::to_string(p.submitted));
  }
  if (s.completed + s.dropped + s.failed != admitted || s.active != 0) {
    report->Fail("completed + dropped + failed != admitted");
  }
  if (p.delivered != admitted || p.misdelivered != 0 ||
      p.id_mismatch != 0 || p.ring_overruns != 0) {
    report->Fail("ids not delivered exactly once: delivered " +
                 std::to_string(p.delivered) + " of " +
                 std::to_string(admitted) + ", misdelivered " +
                 std::to_string(p.misdelivered));
    if (admitted > p.delivered) bad += admitted - p.delivered;
  }
  if (s.failed != 0) {
    report->Fail(std::to_string(s.failed) + " requests failed");
  }
  return bad;
}

void
RunTimed(const Args& args, Report* report)
{
  std::vector<double> setup_s;
  std::unique_ptr<RtSystem> sys;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSec();
    sys = std::make_unique<RtSystem>();
    core::TetriScheduler scheduler(&sys->table);
    runtime::ServingRuntime rt(&scheduler, &sys->topology, &sys->table,
                               runtime::RuntimeOptions{});
    setup_s.push_back(NowSec() - t0);
    rt.Drain();
  }

  // Four fresh runtimes rather than one long-lived one, so the state
  // a single runtime happens to build up (queues, caches, allocator)
  // does not set the figure alone.
  std::vector<double> rates, cpu_us_per_request;
  metrics::Histogram latency_us = LatencyHistogram();
  double latency_sum_us = 0.0;
  std::uint64_t submitted = 0, failed = 0, admitted = 0, completed = 0;
  std::uint64_t measured_terminal = 0, measured_met = 0;
  for (int e = 0; e < kEpochs; ++e) {
    const Phase p = RunPhase(*sys, DeriveSeed(args.seed, e),
                             MeasureSec(args.seconds / kEpochs), Probes{});
    failed += VerifyPhase(p, report);
    cpu_us_per_request.push_back(
        p.cpu_us / static_cast<double>(
                       std::max<std::uint64_t>(p.stats.completed, 1)));
    submitted += p.submitted;
    admitted += p.stats.admission.admitted;
    completed += p.stats.completed;
    measured_terminal += p.measured_terminal;
    measured_met += p.measured_met;
    rates.insert(rates.end(), p.segment_rates.begin(), p.segment_rates.end());
    latency_us.Merge(p.latency_us);
    latency_sum_us += p.latency_sum_us;
  }
  report->attempted = submitted;
  report->failed = failed;
  report->Info("window", kWindow);
  report->Info("epochs", kEpochs);
  report->Info("segments", static_cast<double>(rates.size()));
  const double samples = static_cast<double>(latency_us.count());
  report->Info("latency_samples", samples);
  report->Info("latency_p50_ms", latency_us.Percentile(50) / 1e3);

  report->Metric("requests_per_s", Median(rates), "1/s");
  report->Metric("cpu_us_per_request", Median(cpu_us_per_request), "us");
  report->Metric("slo_attainment",
                 static_cast<double>(measured_met) /
                     static_cast<double>(
                         std::max<std::uint64_t>(measured_terminal, 1)),
                 "ratio");
  report->Metric("latency_mean_ms",
                 latency_sum_us / std::max(samples, 1.0) / 1e3, "ms");
  report->Metric("latency_p99_ms", latency_us.Percentile(99) / 1e3, "ms");
  report->Metric("completion_rate",
                 static_cast<double>(completed) /
                     static_cast<double>(std::max<std::uint64_t>(admitted, 1)),
                 "ratio");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

/** Per-layer metrics: an untraced, a Plan-timed and a traced + audited
 * phase, each a third of the time budget. */
void
RunTraced(const Args& args, Report* report)
{
  std::vector<double> profile_ms;
  std::unique_ptr<RtSystem> sys;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowSec();
    sys = std::make_unique<RtSystem>();
    profile_ms.push_back((NowSec() - t0) * 1e3);
  }
  const double third = MeasureSec(args.seconds / 3.0);

  const Phase plain = RunPhase(*sys, args.seed, third, Probes{});

  core::TetriScheduler tetri(&sys->table);
  TimedScheduler timed(&tetri);
  const Phase d = RunPhase(*sys, args.seed, third, Probes{&timed});

  core::TetriScheduler tetri_traced(&sys->table);
  TimedScheduler timed_traced(&tetri_traced);
  CountingSink sink;
  audit::Auditor auditor;
  auditor.AddChecker(std::make_unique<audit::RuntimeConservationChecker>());
  const Phase t = RunPhase(*sys, args.seed, third,
                           Probes{&timed_traced, &sink, &auditor});

  std::uint64_t failed = 0;
  for (const Phase* p : {&plain, &d, &t}) failed += VerifyPhase(*p, report);
  if (!auditor.clean()) {
    report->Fail("audit: " + auditor.Summary());
  }
  report->attempted = plain.submitted + d.submitted + t.submitted;
  report->failed = failed;

  const double completed =
      static_cast<double>(std::max<std::uint64_t>(d.stats.completed, 1));
  const double plan_ms = timed.total_plan_us() / 1e3;
  const metrics::Histogram& delay = d.tenants.at(0).queue_delay_us;

  auto layer = [&](const char* name, double value) {
    report->Metric(name, value, LayerUnit(name));
  };
  layer("core.plan_calls", static_cast<double>(timed.calls()));
  layer("core.plan_ms", plan_ms);
  layer("core.plan_share",
        plan_ms / ((d.measured_s + kWarmupSec) * 1e3));
  layer("core.plan_p50_us", Percentile(timed.plan_us(), 50));
  layer("core.plan_p99_us", Percentile(timed.plan_us(), 99));
  layer("core.queue_depth_mean", timed.mean_queue_depth());
  layer("core.queue_depth_max",
        static_cast<double>(timed.max_queue_depth()));
  layer("core.useful_plan_ratio",
        timed.calls() > 0 ? static_cast<double>(timed.useful_calls()) /
                                static_cast<double>(timed.calls())
                          : 0.0);
  layer("core.shed",
        static_cast<double>(sink.count(trace::TraceEventKind::kShed)));
  layer("core.pack_utilization_mean", sink.mean_pack_utilization());
  layer("runtime.submit_p50_us", Percentile(d.submit_us, 50));
  layer("runtime.submit_p99_us", Percentile(d.submit_us, 99));
  layer("runtime.queue_delay_p50_us", delay.Percentile(50));
  layer("runtime.queue_delay_p99_us", delay.Percentile(99));
  layer("runtime.rounds", static_cast<double>(d.stats.rounds));
  layer("runtime.rounds_per_request",
        static_cast<double>(d.stats.rounds) / completed);
  layer("runtime.plan_p50_us", d.plan_latency_us.Percentile(50));
  layer("runtime.requeues", static_cast<double>(d.stats.requeues));
  layer("costmodel.profile_ms", Median(profile_ms));
  layer("trace.events", static_cast<double>(sink.total()));
  layer("trace.overhead_share",
        Median(plain.segment_rates) / Median(t.segment_rates) - 1.0);
}

}  // namespace

void
RunRtClosedFlux(const Args& args, Report* report)
{
  report->Info("workload", "rt-closed-flux");
  if (args.trace) {
    RunTraced(args, report);
  } else {
    RunTimed(args, report);
  }
}

}  // namespace tetri::e2e
