/**
 * @file
 * e2ebench — one end-to-end run of one serving workload.
 *
 *   e2ebench --workload sim-steady-flux|sim-burst-sd3|rt-closed-flux
 *            --seed N --seconds S --trace 0|1
 *
 * Prints context lines, then one JSON line with the verdict, the
 * metrics (end-to-end with --trace 0, per-layer with --trace 1) and an
 * info block. Exits 0 when every output check passed, 1 when one
 * failed, 2 on a usage error. run.py builds and drives this binary.
 */
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace tetri::e2e {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/** Every per-layer metric with its unit, in BENCHMARK.json order. */
const LayerMetric kLayerMetrics[] = {
    {"serving.run_ms", "ms"},
    {"serving.self_ms", "ms"},
    {"serving.us_per_request", "us"},
    {"serving.cost_growth", "ratio"},
    {"sim.events_fired", "count"},
    {"sim.self_us_per_event", "us"},
    {"core.plan_calls", "count"},
    {"core.plan_ms", "ms"},
    {"core.plan_share", "ratio"},
    {"core.plan_p50_us", "us"},
    {"core.plan_p99_us", "us"},
    {"core.queue_depth_mean", "count"},
    {"core.queue_depth_max", "count"},
    {"core.useful_plan_ratio", "ratio"},
    {"core.shed", "count"},
    {"core.pack_utilization_mean", "ratio"},
    {"serving.assignments", "count"},
    {"serving.reconfigs", "count"},
    {"serving.latent_transfers", "count"},
    {"serving.gpu_utilization", "ratio"},
    {"runtime.submit_p50_us", "us"},
    {"runtime.submit_p99_us", "us"},
    {"runtime.queue_delay_p50_us", "us"},
    {"runtime.queue_delay_p99_us", "us"},
    {"runtime.rounds", "count"},
    {"runtime.rounds_per_request", "ratio"},
    {"runtime.plan_p50_us", "us"},
    {"runtime.requeues", "count"},
    {"costmodel.profile_ms", "ms"},
    {"workload.build_trace_ms", "ms"},
    {"trace.events", "count"},
    {"trace.overhead_share", "ratio"},
};

}  // namespace

const char*
LayerUnit(const std::string& name)
{
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) return m.unit;
  }
  std::fprintf(stderr, "unknown per-layer metric '%s'\n", name.c_str());
  std::abort();
}

}  // namespace tetri::e2e

namespace {

/**
 * Pin the process, and so every thread it starts, to the highest CPU it
 * may run on. The runtime workload hands each request between four
 * threads; spread over the CPUs of a shared VM its throughput follows
 * the host's vCPU scheduling (2.7k to 10.7k requests/s in interleaved
 * runs), while on one CPU it tracks the work done. Returns the CPU, or
 * -1 when the affinity cannot be read or set.
 */
int
PinToOneCpu()
{
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

bool
ParseArgs(int argc, char** argv, tetri::e2e::Args* args)
{
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int
main(int argc, char** argv)
{
  using namespace tetri::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n",
                 argv[0]);
    return 2;
  }

  Report report;
  report.Info("pinned_cpu", PinToOneCpu());
  report.Info("build_type", E2E_BUILD_TYPE);
  report.Info("compiler", E2E_COMPILER);
  report.Info("seed", static_cast<double>(args.seed));
  if (args.workload == "sim-steady-flux") {
    RunSimSteadyFlux(args, &report);
  } else if (args.workload == "sim-burst-sd3") {
    RunSimBurstSd3(args, &report);
  } else if (args.workload == "rt-closed-flux") {
    RunRtClosedFlux(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    // Layers a workload does not exercise read 0.
    for (const LayerMetric& m : kLayerMetrics) {
      if (!report.HasMetric(m.name)) report.Metric(m.name, 0.0, m.unit);
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
