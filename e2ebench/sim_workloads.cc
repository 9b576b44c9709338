/**
 * @file
 * Simulator workloads: serving::ServingSystem replaying generated
 * traces under core::TetriScheduler. Arrivals are open-loop in
 * simulated time; the host clock times each Run().
 *
 * A run builds a fixed set of traces from the workload seed, so the
 * simulated metrics and the records digest depend on the seed alone.
 * It then replays that set in cycles until the requested host time is
 * spent; every replay must reproduce the first replay's digest.
 */
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_set>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "cluster/topology.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/system.h"
#include "workload/trace.h"
#include "workloads.h"

namespace tetri::e2e {
namespace {

struct SimSpec {
  const char* name = "";
  bool sd3 = false;
  workload::TraceSpec trace;
  /** Traces per cycle, seeded by TraceSeed. */
  int num_traces = 1;
  /** Set-up repetitions; setup_s is their median. */
  int setups = 15;
};

/** Seed of trace @p index: the workload seed itself for a single
 * trace, so its one-tenth probe trace is a prefix of it. */
std::uint64_t
TraceSeed(const SimSpec& spec, std::uint64_t seed, int index)
{
  return spec.num_traces == 1 ? seed : DeriveSeed(seed, index);
}

/** Everything one set-up builds, kept alive for the timed runs. */
struct SimSetup {
  explicit SimSetup(bool sd3)
      : model(sd3 ? costmodel::ModelConfig::Sd3Medium()
                  : costmodel::ModelConfig::FluxDev()),
        topology(sd3 ? cluster::Topology::A40Node(4)
                     : cluster::Topology::H100Node(8))
  {
  }
  costmodel::ModelConfig model;
  cluster::Topology topology;
  std::unique_ptr<serving::ServingSystem> system;
  std::vector<workload::Trace> traces;
  std::unique_ptr<core::TetriScheduler> scheduler;
  double profile_ms = 0.0;
  double build_trace_ms = 0.0;
  double total_s = 0.0;
};

std::unique_ptr<SimSetup>
Setup(const SimSpec& spec, std::uint64_t seed,
      const serving::ServingConfig& config)
{
  const double t0 = NowSec();
  auto s = std::make_unique<SimSetup>(spec.sd3);
  const double t1 = NowSec();
  s->system = std::make_unique<serving::ServingSystem>(&s->topology,
                                                       &s->model, config);
  const double t2 = NowSec();
  for (int i = 0; i < spec.num_traces; ++i) {
    workload::TraceSpec ts = spec.trace;
    ts.seed = TraceSeed(spec, seed, i);
    s->traces.push_back(workload::BuildTrace(ts));
  }
  const double t3 = NowSec();
  s->scheduler =
      std::make_unique<core::TetriScheduler>(&s->system->table());
  const double t4 = NowSec();
  s->profile_ms = (t2 - t1) * 1e3;
  s->build_trace_ms = (t3 - t2) * 1e3;
  s->total_s = t4 - t0;
  return s;
}

/** Check one Run()'s records against its trace. */
void
VerifyRecords(const workload::Trace& trace,
              const serving::ServingResult& result, Report* report,
              std::uint64_t* failed)
{
  if (result.records.size() != trace.requests.size()) {
    report->Fail("record count " + std::to_string(result.records.size()) +
                 " != trace size " +
                 std::to_string(trace.requests.size()));
    *failed += trace.requests.size();
    return;
  }
  std::unordered_set<RequestId> ids;
  ids.reserve(trace.requests.size());
  for (const auto& req : trace.requests) ids.insert(req.id);
  std::uint64_t bad = 0;
  for (const metrics::RequestRecord& rec : result.records) {
    const bool terminal = rec.outcome != metrics::Outcome::kUnfinished;
    const bool consistent =
        (rec.outcome == metrics::Outcome::kCompleted) == rec.Completed();
    if (!terminal || !consistent || ids.erase(rec.id) != 1) ++bad;
  }
  if (bad > 0) {
    report->Fail(std::to_string(bad) +
                 " records not terminal, inconsistent or duplicated");
    *failed += bad;
  }
}

/** Outcome of one cycle: every trace replayed once. */
struct Cycle {
  double run_s = 0.0;
  /** CPU time of the Run() calls (they run on this thread). */
  double cpu_us = 0.0;
  std::vector<serving::ServingResult> results;
};

Cycle
RunCycle(SimSetup& s, serving::Scheduler* scheduler)
{
  Cycle cycle;
  for (const workload::Trace& trace : s.traces) {
    const double t0 = NowSec();
    const double c0 = ThreadCpuUs();
    cycle.results.push_back(s.system->Run(scheduler, trace));
    cycle.cpu_us += ThreadCpuUs() - c0;
    cycle.run_s += NowSec() - t0;
  }
  return cycle;
}

std::uint64_t
CycleRequests(const SimSetup& s)
{
  std::uint64_t n = 0;
  for (const auto& t : s.traces) n += t.requests.size();
  return n;
}

std::string
Hex(std::uint64_t v)
{
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/** Verifies a cycle and folds its digests into @p digests (first
 * cycle) or compares against them (later cycles). */
void
CheckCycle(const SimSetup& s, const Cycle& cycle,
           std::vector<std::uint64_t>* digests, Report* report,
           std::uint64_t* failed)
{
  const bool first = digests->empty();
  for (std::size_t i = 0; i < cycle.results.size(); ++i) {
    VerifyRecords(s.traces[i], cycle.results[i], report, failed);
    const std::uint64_t d = RecordsDigest(cycle.results[i].records);
    if (first) {
      digests->push_back(d);
    } else if ((*digests)[i] != d) {
      report->Fail("replay of trace " + std::to_string(i) +
                   " changed its records digest");
    }
  }
}

std::uint64_t
CombinedDigest(const std::vector<std::uint64_t>& digests)
{
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint64_t d : digests) h = (h ^ d) * 0x100000001B3ULL;
  return h;
}

/** End-to-end metrics: simulated ones from one cycle, host ones from
 * every cycle until the time budget is spent. */
void
RunTimed(const SimSpec& spec, const Args& args, Report* report)
{
  std::vector<double> setup_s;
  std::unique_ptr<SimSetup> s;
  for (int i = 0; i < spec.setups; ++i) {
    s = Setup(spec, args.seed, serving::ServingConfig{});
    setup_s.push_back(s->total_s);
  }
  const std::uint64_t per_cycle = CycleRequests(*s);

  std::vector<std::uint64_t> digests;
  std::vector<double> rates, cpu_us_per_request;
  std::uint64_t failed = 0;
  Cycle first;
  const double start = NowSec();
  double cycle_s = 0.0;
  do {
    const double cycle_start = NowSec();
    Cycle cycle = RunCycle(*s, s->scheduler.get());
    CheckCycle(*s, cycle, &digests, report, &failed);
    rates.push_back(static_cast<double>(per_cycle) / cycle.run_s);
    cpu_us_per_request.push_back(cycle.cpu_us /
                                 static_cast<double>(per_cycle));
    if (first.results.empty()) first = std::move(cycle);
    cycle_s = NowSec() - cycle_start;
    // Stop before a cycle that would overrun the time budget.
  } while (NowSec() - start + cycle_s <= args.seconds);

  std::uint64_t total = 0, met = 0, completed = 0;
  std::vector<double> latency_ms;
  for (const serving::ServingResult& r : first.results) {
    for (const metrics::RequestRecord& rec : r.records) {
      ++total;
      if (rec.MetSlo()) ++met;
      if (rec.Completed()) {
        ++completed;
        latency_ms.push_back(static_cast<double>(rec.LatencyUs()) / 1e3);
      }
    }
  }
  report->attempted = per_cycle * rates.size();
  report->failed = failed;
  report->Info("cycles", static_cast<double>(rates.size()));
  report->Info("cycle_rate_min",
               *std::min_element(rates.begin(), rates.end()));
  report->Info("cycle_rate_max",
               *std::max_element(rates.begin(), rates.end()));
  report->Info("requests_per_cycle", static_cast<double>(per_cycle));
  report->Info("latency_samples", static_cast<double>(latency_ms.size()));
  report->Info("latency_p50_ms", Percentile(latency_ms, 50));
  report->Info("records_digest", Hex(CombinedDigest(digests)));

  const double n = static_cast<double>(std::max<std::uint64_t>(total, 1));
  report->Metric("requests_per_s", Median(rates), "1/s");
  report->Metric("cpu_us_per_request", Median(cpu_us_per_request), "us");
  report->Metric("slo_attainment", static_cast<double>(met) / n, "ratio");
  report->Metric("latency_mean_ms", Mean(latency_ms), "ms");
  report->Metric("latency_p99_ms", Percentile(latency_ms, 99), "ms");
  report->Metric("completion_rate", static_cast<double>(completed) / n,
                 "ratio");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
}

/** Self (non-Plan) host microseconds per request of one trace. */
double
SelfUsPerRequest(SimSetup& s, const workload::Trace& trace)
{
  TimedScheduler timed(s.scheduler.get());
  const double t0 = NowSec();
  s.system->Run(&timed, trace);
  const double run_us = (NowSec() - t0) * 1e6;
  return (run_us - timed.total_plan_us()) /
         static_cast<double>(trace.requests.size());
}

/** Per-layer metrics: one untraced, one Plan-timed and one traced +
 * audited cycle, plus the trace-length scaling probe. */
void
RunTraced(const SimSpec& spec, const Args& args, Report* report)
{
  std::vector<double> profile_ms, build_ms;
  std::unique_ptr<SimSetup> s;
  for (int i = 0; i < spec.setups; ++i) {
    s = Setup(spec, args.seed, serving::ServingConfig{});
    profile_ms.push_back(s->profile_ms);
    build_ms.push_back(s->build_trace_ms);
  }
  const std::uint64_t per_cycle = CycleRequests(*s);
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> digests;

  // Alternate untraced cycles (the tracing-overhead baseline) with
  // cycles whose Plan() calls are timed from outside, for two thirds
  // of the time budget; the traced cycle and the probe follow. Every
  // cycle yields identical results (CheckCycle), so only the first
  // timed cycle's are kept, for the counters.
  std::vector<double> plain_s;
  std::vector<std::pair<double, std::unique_ptr<TimedScheduler>>> timed_runs;
  Cycle timed_cycle;
  const double start = NowSec();
  double pair_s = 0.0;
  do {
    const double pair_start = NowSec();
    const Cycle plain = RunCycle(*s, s->scheduler.get());
    CheckCycle(*s, plain, &digests, report, &failed);
    plain_s.push_back(plain.run_s);
    auto timer = std::make_unique<TimedScheduler>(s->scheduler.get());
    Cycle cycle = RunCycle(*s, timer.get());
    CheckCycle(*s, cycle, &digests, report, &failed);
    timed_runs.emplace_back(cycle.run_s, std::move(timer));
    if (timed_cycle.results.empty()) timed_cycle = std::move(cycle);
    pair_s = NowSec() - pair_start;
  } while (NowSec() - start + pair_s <= args.seconds * 2 / 3);
  // Report the timed cycle with the median Run() time, whole.
  std::sort(timed_runs.begin(), timed_runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const double run_ms = timed_runs[timed_runs.size() / 2].first * 1e3;
  const TimedScheduler& timed = *timed_runs[timed_runs.size() / 2].second;

  // Traced + audited: event counts and zero audit violations.
  CountingSink sink;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < s->traces.size(); ++i) {
    audit::Auditor auditor;
    audit::InstallStandardCheckers(auditor);
    serving::ServingConfig config;
    config.trace = &sink;
    config.auditor = &auditor;
    serving::ServingSystem traced_system(&s->topology, &s->model, config);
    const double t0 = NowSec();
    const serving::ServingResult r =
        traced_system.Run(s->scheduler.get(), s->traces[i]);
    traced_s += NowSec() - t0;
    VerifyRecords(s->traces[i], r, report, &failed);
    if (RecordsDigest(r.records) != digests[i]) {
      report->Fail("tracing changed the records of trace " +
                   std::to_string(i));
    }
    if (r.audit_violations != 0) {
      report->Fail("audit: " + std::to_string(r.audit_violations) +
                   " violations: " + r.audit_summary);
    }
  }

  // Scaling probe: self cost per request at full length vs. the first
  // trace's spec at one tenth of the length (median of 5 short runs).
  workload::TraceSpec short_spec = spec.trace;
  short_spec.num_requests = std::max(1, spec.trace.num_requests / 10);
  short_spec.seed = TraceSeed(spec, args.seed, 0);
  const workload::Trace short_trace = workload::BuildTrace(short_spec);
  std::vector<double> short_self;
  for (int i = 0; i < 5; ++i) {
    short_self.push_back(SelfUsPerRequest(*s, short_trace));
  }

  report->attempted = per_cycle * (plain_s.size() * 2 + 1) +
                      short_spec.num_requests * 5;
  report->Info("cycles", static_cast<double>(plain_s.size()));
  report->failed = failed;
  report->Info("records_digest", Hex(CombinedDigest(digests)));

  const double plan_ms = timed.total_plan_us() / 1e3;
  const double self_ms = run_ms - plan_ms;
  const double n = static_cast<double>(per_cycle);
  const std::uint64_t fired =
      sink.count(trace::TraceEventKind::kEventFired);
  double busy = 0.0, makespan = 0.0;
  std::uint64_t assignments = 0, reconfigs = 0, transfers = 0;
  for (const serving::ServingResult& r : timed_cycle.results) {
    assignments += r.num_assignments;
    reconfigs += r.num_reconfigs;
    transfers += r.num_latent_transfers;
    busy += r.busy_gpu_us;
    makespan += static_cast<double>(r.makespan_us);
  }
  const double gpus = s->topology.num_gpus();

  auto layer = [&](const char* name, double value) {
    report->Metric(name, value, LayerUnit(name));
  };
  layer("serving.run_ms", run_ms);
  layer("serving.self_ms", self_ms);
  layer("serving.us_per_request", run_ms * 1e3 / n);
  layer("serving.cost_growth",
        (self_ms * 1e3 / n) / std::max(Median(short_self), 1e-9));
  layer("sim.events_fired", static_cast<double>(fired));
  layer("sim.self_us_per_event",
        fired > 0 ? self_ms * 1e3 / static_cast<double>(fired) : 0.0);
  layer("core.plan_calls", static_cast<double>(timed.calls()));
  layer("core.plan_ms", plan_ms);
  layer("core.plan_share", plan_ms / run_ms);
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
  layer("serving.assignments", static_cast<double>(assignments));
  layer("serving.reconfigs", static_cast<double>(reconfigs));
  layer("serving.latent_transfers", static_cast<double>(transfers));
  layer("serving.gpu_utilization",
        makespan > 0 ? busy / (makespan * gpus) : 0.0);
  layer("costmodel.profile_ms", Median(profile_ms));
  layer("workload.build_trace_ms", Median(build_ms));
  layer("trace.events", static_cast<double>(sink.total()));
  layer("trace.overhead_share", traced_s / Median(plain_s) - 1.0);
}

void
RunSim(const SimSpec& spec, const Args& args, Report* report)
{
  report->Info("workload", spec.name);
  if (args.trace) {
    RunTraced(spec, args, report);
  } else {
    RunTimed(spec, args, report);
  }
}

}  // namespace

void
RunSimSteadyFlux(const Args& args, Report* report)
{
  SimSpec spec;
  spec.name = "sim-steady-flux";
  spec.trace.num_requests = 20000;
  spec.trace.arrival_rate_per_min = 12.0;
  spec.trace.slo_scale = 1.0;
  spec.trace.mix = workload::ResolutionMix::Skewed();
  RunSim(spec, args, report);
}

void
RunSimBurstSd3(const Args& args, Report* report)
{
  SimSpec spec;
  spec.name = "sim-burst-sd3";
  spec.sd3 = true;
  spec.trace.num_requests = 2000;
  spec.trace.arrival_rate_per_min = 40.0;
  spec.trace.slo_scale = 2.0;
  spec.trace.bursty = true;
  spec.trace.mix = workload::ResolutionMix::Uniform();
  spec.num_traces = 32;
  RunSim(spec, args, report);
}

}  // namespace tetri::e2e
