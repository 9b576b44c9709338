/**
 * @file
 * Microbenchmarks of TetriServe's control plane: the group-knapsack DP
 * (Algorithm 1), deadline-aware allocation, round-aware planning, and
 * a full Plan() invocation at varying queue depths — substantiating
 * the paper's claim of millisecond control-plane latency (§5, Table 6).
 *
 * Two modes:
 *  - default: google-benchmark micro suite (BM_*).
 *  - `--json=PATH [--smoke]`: the scheduler regression harness. For a
 *    (queue depth x GPU count) matrix it times the PlanScratch fast
 *    path against the seed reference path (TetriOptions::
 *    reference_plan), cross-checks that both emit identical plans,
 *    and writes p50/p99 latencies plus the median speedup to PATH
 *    (BENCH_scheduler.json). `--smoke` shrinks the sample counts for
 *    CI.
 *
 * `--packers` (with `--json=`) appends a packer-matrix block: for each
 * registered Stage-2 packer (dp, staircase, progressive) it measures
 * Plan() p50 latency at a fixed (depth 64, 8 GPU) cell and SLO
 * attainment on a fragmentation-heavy scenario (one GPU failed for
 * the whole run, 7 healthy; the progressive packer runs with an
 * extended-degree table and non-pow2 placement). bench_gate checks
 * the recorded invariant: progressive attainment >= dp attainment on
 * the fragmented node.
 *
 * Chaos knobs (compose with either mode): `--chaos-seed=N` runs one
 * deterministic failure/recovery serving cycle before the benchmark
 * proper, injecting `--fail-gpus=K` (default 1) seeded GPU failures
 * through tetri::chaos, and reports the recovery accounting (a
 * "chaos" block in the JSON when `--json=` is active). CI's
 * bench-smoke job uses this to exercise the recovery path end to end.
 *
 * The chaos cycle always runs fully traced (tetri::trace): the JSON
 * gains a "trace" block of virtual-time percentiles (step latency,
 * pack utilization, admission slack) that is bit-identical across
 * identical runs, and `--trace-out=PATH` additionally writes the
 * cycle's Perfetto/Chrome timeline JSON for inspection.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.h"
#include "packers/packer.h"
#include "serving/system.h"
#include "trace/perfetto.h"
#include "trace/summary.h"
#include "trace/trace.h"

#include "core/allocation.h"
#include "packers/dp_packer.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/slo.h"

namespace tetri {
namespace {

struct Fixture {
  Fixture()
      : model(costmodel::ModelConfig::FluxDev()),
        topo(cluster::Topology::H100Node()),
        cost(&model, &topo),
        table(costmodel::LatencyTable::Profile(cost, 4, 20, 5))
  {
  }
  costmodel::ModelConfig model;
  cluster::Topology topo;
  costmodel::StepCostModel cost;
  costmodel::LatencyTable table;
};

Fixture& F()
{
  static Fixture fixture;
  return fixture;
}

std::vector<packers::PackGroup>
RandomGroups(int count, Rng& rng)
{
  std::vector<packers::PackGroup> groups;
  for (int g = 0; g < count; ++g) {
    packers::PackGroup group;
    group.id = g;
    group.survives_if_idle = rng.NextDouble() < 0.5;
    for (int o = 0; o < 2; ++o) {
      packers::PackOption opt;
      opt.degree = 1 << rng.NextBelow(4);
      opt.steps = 1 + static_cast<int>(rng.NextBelow(8));
      opt.survives = rng.NextDouble() < 0.7;
      opt.work = rng.NextDouble();
      group.options.push_back(opt);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

void
BM_PackRound(benchmark::State& state)
{
  Rng rng(7);
  auto groups = RandomGroups(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(packers::PackRound(groups, 8));
  }
}
BENCHMARK(BM_PackRound)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_PackRoundScratch(benchmark::State& state)
{
  Rng rng(7);
  auto groups = RandomGroups(static_cast<int>(state.range(0)), rng);
  packers::PackScratch scratch;
  packers::PackResult result;
  for (auto _ : state) {
    packers::PackRoundInto(groups.data(), static_cast<int>(groups.size()),
                           8, &scratch, &result);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PackRoundScratch)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_FindPlan(benchmark::State& state)
{
  const auto& table = F().table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FindPlan(
        table, costmodel::Resolution::k2048, 50, 4.5e6));
  }
}
BENCHMARK(BM_FindPlan);

void
BM_RoundAwarePlan(benchmark::State& state)
{
  const auto& table = F().table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RoundAwarePlan(
        table, costmodel::Resolution::k2048, 50, 4.5e6, 3e5));
  }
}
BENCHMARK(BM_RoundAwarePlan);

/** Shared queue construction for BM_FullPlan and the regression
 * harness: `depth` mixed-resolution requests with randomized SLO
 * scales, all pending at t=0. */
void
FillQueue(serving::RequestTracker* tracker, int depth)
{
  Rng rng(depth);
  for (int i = 0; i < depth; ++i) {
    workload::TraceRequest meta;
    meta.id = i;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us = 0;
    meta.deadline_us = static_cast<TimeUs>(
        workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
        rng.NextRange(0.9, 1.5));
    meta.num_steps = 50;
    tracker->Admit(meta);
  }
}

void
BM_FullPlan(benchmark::State& state)
{
  const int depth = static_cast<int>(state.range(0));
  auto& fixture = F();
  core::TetriScheduler sched(&fixture.table);

  serving::RequestTracker tracker;
  FillQueue(&tracker, depth);
  auto schedulable = tracker.Schedulable(0);
  serving::ScheduleContext ctx;
  ctx.now = 0;
  ctx.round_end = sched.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(8);
  ctx.schedulable = &schedulable;
  ctx.topology = &fixture.topo;
  ctx.table = &fixture.table;

  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.Plan(ctx));
  }
}
BENCHMARK(BM_FullPlan)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------
// Chaos cycle (--chaos-seed=N [--fail-gpus=K])
// ---------------------------------------------------------------

struct ChaosCycle {
  std::uint64_t seed = 0;
  int fail_gpus = 0;
  int gpu_failures = 0;
  int gpu_recoveries = 0;
  int aborted = 0;
  int requeues = 0;
  int dropped = 0;
  int cancelled = 0;
  double lost_gpu_us = 0.0;
  std::size_t trace_events = 0;
  /** Virtual-time percentile summary of the cycle's decision trace. */
  trace::TraceSummary summary;
};

/** One deterministic failure/recovery serving cycle through
 * tetri::chaos: seeded GPU failures against a short FLUX trace on the
 * fixture node, with the recovery accounting surfaced for CI. The
 * cycle runs fully traced; @p trace_out, when non-empty, receives the
 * Perfetto timeline JSON. */
ChaosCycle
RunChaosCycle(std::uint64_t seed, int fail_gpus,
              const std::string& trace_out)
{
  chaos::ChaosConfig config;
  config.seed = seed;
  config.gpu_failures = fail_gpus;
  config.mean_time_to_recover_sec = 1.0;
  chaos::ChaosController controller(config);

  trace::Tracer tracer;
  trace::PerfettoSink perfetto;
  tracer.AddSink(&perfetto);

  serving::ServingConfig sc;
  sc.on_run_setup = controller.Hook();
  sc.trace = &tracer;
  serving::ServingSystem system(&F().topo, &F().model, sc);
  core::TetriScheduler scheduler(&system.table());

  workload::TraceSpec spec;
  spec.num_requests = 40;
  spec.slo_scale = 1.5;
  spec.seed = seed + 1;
  const auto result = system.Run(&scheduler, workload::BuildTrace(spec));

  const auto events = perfetto.events();
  if (!trace_out.empty()) {
    TETRI_CHECK_MSG(trace::WritePerfettoFile(events,
                                             F().topo.num_gpus(),
                                             trace_out),
                    "cannot write trace JSON to " << trace_out);
    std::printf("chaos cycle trace: %zu events -> %s\n", events.size(),
                trace_out.c_str());
  }

  ChaosCycle cycle;
  cycle.summary = trace::Summarize(events);
  cycle.seed = seed;
  cycle.fail_gpus = fail_gpus;
  cycle.gpu_failures = result.recovery.gpu_failures;
  cycle.gpu_recoveries = result.recovery.gpu_recoveries;
  cycle.aborted = result.recovery.aborted_assignments;
  cycle.requeues = result.recovery.requeues;
  cycle.dropped = result.num_dropped;
  cycle.cancelled = result.num_cancelled;
  cycle.lost_gpu_us = result.recovery.lost_gpu_us;
  cycle.trace_events = controller.trace().size();
  TETRI_CHECK_MSG(cycle.gpu_failures >= 1,
                  "chaos cycle injected no GPU failure");
  std::printf("chaos cycle: seed=%llu failures=%d recoveries=%d "
              "aborted=%d requeues=%d dropped=%d cancelled=%d "
              "lost_gpu_us=%.0f events=%zu\n",
              static_cast<unsigned long long>(cycle.seed),
              cycle.gpu_failures, cycle.gpu_recoveries, cycle.aborted,
              cycle.requeues, cycle.dropped, cycle.cancelled,
              cycle.lost_gpu_us, cycle.trace_events);
  return cycle;
}

// ---------------------------------------------------------------
// Regression harness (--json=PATH [--smoke])
// ---------------------------------------------------------------

struct CellResult {
  int depth = 0;
  int gpus = 0;
  int samples = 0;
  double fast_p50_us = 0.0;
  double fast_p99_us = 0.0;
  double ref_p50_us = 0.0;
  double ref_p99_us = 0.0;
  double speedup_p50 = 0.0;
};

double
Percentile(std::vector<double>* samples, double p)
{
  std::sort(samples->begin(), samples->end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples->size() - 1));
  return (*samples)[idx];
}

/** Time `iters` steady-state Plan() calls, returning per-call wall
 * microseconds. The first `warmup` calls are discarded so the fast
 * path is measured with a warm arena (its contract) and both paths
 * with warm caches of the underlying tables. */
std::vector<double>
TimePlans(core::TetriScheduler* sched, serving::ScheduleContext* ctx,
          int warmup, int iters)
{
  using clock = std::chrono::steady_clock;
  std::vector<double> out;
  out.reserve(iters);
  for (int i = 0; i < warmup + iters; ++i) {
    const auto start = clock::now();
    auto plan = sched->Plan(*ctx);
    const auto stop = clock::now();
    benchmark::DoNotOptimize(plan);
    if (i >= warmup) {
      out.push_back(
          std::chrono::duration<double, std::micro>(stop - start)
              .count());
    }
  }
  return out;
}

CellResult
RunCell(int depth, int gpus, int warmup, int iters)
{
  auto& fixture = F();
  core::TetriOptions ref_opts;
  ref_opts.reference_plan = true;
  core::TetriScheduler fast(&fixture.table);
  core::TetriScheduler ref(&fixture.table, ref_opts);

  serving::RequestTracker tracker;
  FillQueue(&tracker, depth);
  auto schedulable = tracker.Schedulable(0);
  serving::ScheduleContext ctx;
  ctx.now = 0;
  ctx.round_end = fast.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(gpus);
  ctx.schedulable = &schedulable;
  ctx.topology = &fixture.topo;
  ctx.table = &fixture.table;

  // Guard: both paths must produce identical plans before their
  // latencies are comparable at all.
  const auto fast_plan = fast.Plan(ctx);
  const auto ref_plan = ref.Plan(ctx);
  TETRI_CHECK_MSG(fast_plan.assignments.size() ==
                      ref_plan.assignments.size(),
                  "fast/reference plan divergence at depth " << depth);
  for (std::size_t i = 0; i < fast_plan.assignments.size(); ++i) {
    const auto& a = fast_plan.assignments[i];
    const auto& b = ref_plan.assignments[i];
    TETRI_CHECK_MSG(a.requests == b.requests && a.mask == b.mask &&
                        a.max_steps == b.max_steps,
                    "fast/reference assignment divergence at depth "
                        << depth << " index " << i);
  }

  auto fast_samples = TimePlans(&fast, &ctx, warmup, iters);
  auto ref_samples = TimePlans(&ref, &ctx, warmup, iters);

  CellResult cell;
  cell.depth = depth;
  cell.gpus = gpus;
  cell.samples = iters;
  cell.fast_p50_us = Percentile(&fast_samples, 0.50);
  cell.fast_p99_us = Percentile(&fast_samples, 0.99);
  cell.ref_p50_us = Percentile(&ref_samples, 0.50);
  cell.ref_p99_us = Percentile(&ref_samples, 0.99);
  cell.speedup_p50 = cell.ref_p50_us / cell.fast_p50_us;
  return cell;
}

// ---------------------------------------------------------------
// Packer matrix (--packers, with --json=)
// ---------------------------------------------------------------

struct PackerCell {
  std::string packer;
  double plan_p50_us = 0.0;
  int frag_met = 0;
  int frag_total = 0;
};

/** SLO attainment of one packer on the fragmentation scenario: GPU 7
 * down for the whole run, so every round packs into 7 GPUs. The
 * progressive packer runs with non-pow2 degrees (its reason to
 * exist); the DP packers keep the pow2 discipline. Power-of-two
 * latency cells are bit-identical across the two tables by the
 * extended-profile stream design, so the comparison is fair. */
PackerCell
RunPackerCell(const std::string& name, bool smoke)
{
  const packers::PackerKind kind =
      *packers::PackerKindFromName(name);
  const bool non_pow2 = kind == packers::PackerKind::kProgressive;

  // Plan latency at the fixed (depth 64, 8 GPUs) cell, pow2 table —
  // the packer swap is what is being timed, not the table shape.
  core::TetriOptions opts;
  opts.packer = kind;
  core::TetriScheduler sched(&F().table, opts);
  serving::RequestTracker tracker;
  FillQueue(&tracker, 64);
  auto schedulable = tracker.Schedulable(0);
  serving::ScheduleContext ctx;
  ctx.now = 0;
  ctx.round_end = sched.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(8);
  ctx.schedulable = &schedulable;
  ctx.topology = &F().topo;
  ctx.table = &F().table;
  auto samples =
      TimePlans(&sched, &ctx, smoke ? 5 : 20, smoke ? 40 : 400);

  // Fragmentation attainment: 60 tight-SLO requests on 7 healthy GPUs.
  chaos::ChaosConfig chaos_config;
  chaos::ScriptedFailure failure;
  failure.at_us = 0;
  failure.gpu = 7;
  failure.recover_after_us = UsFromSec(10000.0);
  chaos_config.scripted.push_back(failure);
  chaos::ChaosController controller(chaos_config);

  serving::ServingConfig sc;
  sc.extended_degrees = non_pow2;
  sc.on_run_setup = controller.Hook();
  serving::ServingSystem system(&F().topo, &F().model, sc);
  core::TetriOptions run_opts;
  run_opts.packer = kind;
  run_opts.allow_non_pow2 = non_pow2;
  core::TetriScheduler scheduler(&system.table(), run_opts);

  workload::TraceSpec spec;
  spec.num_requests = 60;
  spec.slo_scale = 1.1;
  const auto sar =
      system.Run(&scheduler, workload::BuildTrace(spec)).Sar();

  PackerCell cell;
  cell.packer = name;
  cell.plan_p50_us = Percentile(&samples, 0.50);
  cell.frag_met = sar.met;
  cell.frag_total = sar.total;
  return cell;
}

std::vector<PackerCell>
RunPackerMatrix(bool smoke)
{
  std::vector<PackerCell> cells;
  std::printf("%12s %12s %10s %12s\n", "packer", "plan_p50",
              "frag_met", "frag_total");
  for (std::string_view name : packers::RegisteredPackerNames()) {
    auto cell = RunPackerCell(std::string(name), smoke);
    std::printf("%12s %10.1fus %10d %12d\n", cell.packer.c_str(),
                cell.plan_p50_us, cell.frag_met, cell.frag_total);
    cells.push_back(std::move(cell));
  }
  return cells;
}

int
RunRegression(const std::string& json_path, bool smoke,
              const ChaosCycle* chaos,
              const std::vector<PackerCell>* packers)
{
  const int warmup = smoke ? 5 : 20;
  const int iters = smoke ? 40 : 400;
  const int depths[] = {8, 16, 32, 64, 128, 256};
  const int gpu_counts[] = {2, 4, 8};

  std::vector<CellResult> cells;
  std::printf("%8s %6s %12s %12s %12s %12s %9s\n", "depth", "gpus",
              "fast_p50", "fast_p99", "ref_p50", "ref_p99", "speedup");
  for (int gpus : gpu_counts) {
    for (int depth : depths) {
      auto cell = RunCell(depth, gpus, warmup, iters);
      std::printf("%8d %6d %10.1fus %10.1fus %10.1fus %10.1fus %8.2fx\n",
                  cell.depth, cell.gpus, cell.fast_p50_us,
                  cell.fast_p99_us, cell.ref_p50_us, cell.ref_p99_us,
                  cell.speedup_p50);
      cells.push_back(cell);
    }
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"tetri_scheduler_plan\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::fprintf(out,
                 "    {\"queue_depth\": %d, \"num_gpus\": %d, "
                 "\"samples\": %d, \"fast_p50_us\": %.3f, "
                 "\"fast_p99_us\": %.3f, \"ref_p50_us\": %.3f, "
                 "\"ref_p99_us\": %.3f, \"speedup_p50\": %.3f}%s\n",
                 c.depth, c.gpus, c.samples, c.fast_p50_us,
                 c.fast_p99_us, c.ref_p50_us, c.ref_p99_us,
                 c.speedup_p50, i + 1 < cells.size() ? "," : "");
  }
  const bool has_packers = packers != nullptr && !packers->empty();
  const bool has_chaos = chaos != nullptr;
  std::fprintf(out, "  ]%s\n",
               has_packers || has_chaos ? "," : "");
  if (has_packers) {
    std::fprintf(out, "  \"packers\": [\n");
    for (std::size_t i = 0; i < packers->size(); ++i) {
      const PackerCell& c = (*packers)[i];
      std::fprintf(out,
                   "    {\"packer\": \"%s\", \"plan_p50_us\": %.3f, "
                   "\"frag_met\": %d, \"frag_total\": %d}%s\n",
                   c.packer.c_str(), c.plan_p50_us, c.frag_met,
                   c.frag_total,
                   i + 1 < packers->size() ? "," : "");
    }
    std::fprintf(out, "  ]%s\n", has_chaos ? "," : "");
  }
  if (has_chaos) {
    std::fprintf(out,
                 "  \"chaos\": {\"seed\": %llu, \"fail_gpus\": %d, "
                 "\"gpu_failures\": %d, \"gpu_recoveries\": %d, "
                 "\"aborted\": %d, \"requeues\": %d, \"dropped\": %d, "
                 "\"cancelled\": %d, \"lost_gpu_us\": %.1f, "
                 "\"trace_events\": %zu},\n",
                 static_cast<unsigned long long>(chaos->seed),
                 chaos->fail_gpus, chaos->gpu_failures,
                 chaos->gpu_recoveries, chaos->aborted, chaos->requeues,
                 chaos->dropped, chaos->cancelled, chaos->lost_gpu_us,
                 chaos->trace_events);
    // Every field below is derived from virtual-time trace events, so
    // this block is bit-identical across identical runs — a regression
    // test pins that stability.
    const trace::TraceSummary& s = chaos->summary;
    std::fprintf(
        out,
        "  \"trace\": {\"events\": %llu, \"rounds\": %d, "
        "\"dispatches\": %d, \"steps\": %d, \"drops\": %d, "
        "\"aborts\": %d, \"gpu_failures\": %d, "
        "\"step_p50_us\": %.3f, \"step_p90_us\": %.3f, "
        "\"step_p99_us\": %.3f, \"pack_util_p50\": %.6f, "
        "\"admission_slack_p50_us\": %.3f}\n",
        static_cast<unsigned long long>(s.num_events), s.rounds,
        s.dispatches, s.steps, s.drops, s.aborts, s.gpu_failures,
        s.step_latency_us.Percentile(50),
        s.step_latency_us.Percentile(90),
        s.step_latency_us.Percentile(99),
        s.pack_utilization.Percentile(50),
        s.admission_slack_us.Percentile(50));
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tetri

int
main(int argc, char** argv)
{
  std::string json_path;
  std::string trace_out;
  bool smoke = false;
  bool chaos = false;
  bool packers = false;
  std::uint64_t chaos_seed = 1;
  int fail_gpus = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--packers") == 0) {
      packers = true;
    } else if (std::strncmp(argv[i], "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--fail-gpus=", 12) == 0) {
      chaos = true;
      fail_gpus = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    }
  }
  tetri::ChaosCycle cycle;
  if (chaos) {
    cycle = tetri::RunChaosCycle(chaos_seed, fail_gpus, trace_out);
  }
  std::vector<tetri::PackerCell> packer_cells;
  if (packers) {
    packer_cells = tetri::RunPackerMatrix(smoke);
  }
  if (!json_path.empty()) {
    return tetri::RunRegression(json_path, smoke,
                                chaos ? &cycle : nullptr,
                                packers ? &packer_cells : nullptr);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
