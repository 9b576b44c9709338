/**
 * @file
 * tetrisim — the command-line front end to the TetriServe simulator.
 *
 * Runs one serving experiment from flags and prints a summary table;
 * optionally dumps per-request records and the generated trace as CSV
 * for external analysis. Examples:
 *
 *   tetrisim --policy tetri --scale 1.0 --rate 12
 *   tetrisim --policy sp8 --mix skewed --requests 500 --records out.csv
 *   tetrisim --model sd3 --topology a40 --policy rssp
 *   tetrisim --save-trace trace.csv
 *   tetrisim --load-trace trace.csv --policy tetri
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "baselines/edf.h"
#include "baselines/fixed_sp.h"
#include "baselines/rssp.h"
#include "cluster/gpu_set.h"
#include "core/tetri_scheduler.h"
#include "serving/system.h"
#include "trace/perfetto.h"
#include "trace/summary.h"
#include "trace/trace.h"
#include "util/table.h"
#include "workload/trace_io.h"

namespace tetri::tools {
namespace {

struct Options {
  std::string model = "flux";
  std::string topology = "h100";
  int gpus = 0;  // 0 = topology default
  std::string policy = "tetri";
  std::string mix = "uniform";
  int requests = 300;
  double rate = 12.0;
  double scale = 1.0;
  std::uint64_t seed = 1;
  bool bursty = false;
  int granularity = 5;
  bool no_placement = false;
  bool no_elastic = false;
  bool no_batching = false;
  std::string records_csv;
  std::string save_trace;
  std::string load_trace;
  std::string trace_out;
};

void
PrintUsage()
{
  std::printf(
      "tetrisim — TetriServe serving simulator\n\n"
      "  --model flux|sd3         DiT model (default flux)\n"
      "  --topology h100|a40      node fabric (default h100)\n"
      "  --gpus N                 override node size (power of two)\n"
      "  --policy tetri|sp1|sp2|sp4|sp8|rssp|rssp-backfill|edf\n"
      "  --mix uniform|skewed|256|512|1024|2048\n"
      "  --requests N             trace length (default 300)\n"
      "  --rate R                 arrivals per minute (default 12)\n"
      "  --scale S                SLO scale (default 1.0)\n"
      "  --seed S                 trace/jitter seed (default 1)\n"
      "  --bursty                 MMPP arrivals instead of Poisson\n"
      "  --granularity G          TetriServe round steps (default 5)\n"
      "  --no-placement           disable placement preservation\n"
      "  --no-elastic             disable elastic scale-up\n"
      "  --no-batching            disable selective batching\n"
      "  --records FILE           dump per-request records as CSV\n"
      "  --save-trace FILE        write the generated trace and exit\n"
      "  --load-trace FILE        replay a saved trace\n"
      "  --trace-out FILE         write a Perfetto/Chrome trace JSON\n");
}

bool
ParseArgs(int argc, char** argv, Options* opts)
{
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    } else if (arg == "--model") {
      const char* v = next();
      if (!v) return false;
      opts->model = v;
    } else if (arg == "--topology") {
      const char* v = next();
      if (!v) return false;
      opts->topology = v;
    } else if (arg == "--gpus") {
      const char* v = next();
      if (!v) return false;
      opts->gpus = std::atoi(v);
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return false;
      opts->policy = v;
    } else if (arg == "--mix") {
      const char* v = next();
      if (!v) return false;
      opts->mix = v;
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return false;
      opts->requests = std::atoi(v);
    } else if (arg == "--rate") {
      const char* v = next();
      if (!v) return false;
      opts->rate = std::atof(v);
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opts->scale = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--bursty") {
      opts->bursty = true;
    } else if (arg == "--granularity") {
      const char* v = next();
      if (!v) return false;
      opts->granularity = std::atoi(v);
    } else if (arg == "--no-placement") {
      opts->no_placement = true;
    } else if (arg == "--no-elastic") {
      opts->no_elastic = true;
    } else if (arg == "--no-batching") {
      opts->no_batching = true;
    } else if (arg == "--records") {
      const char* v = next();
      if (!v) return false;
      opts->records_csv = v;
    } else if (arg == "--save-trace") {
      const char* v = next();
      if (!v) return false;
      opts->save_trace = v;
    } else if (arg == "--load-trace") {
      const char* v = next();
      if (!v) return false;
      opts->load_trace = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      opts->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      PrintUsage();
      return false;
    }
  }
  return true;
}

workload::ResolutionMix
MixFromName(const std::string& name)
{
  if (name == "uniform") return workload::ResolutionMix::Uniform();
  if (name == "skewed") return workload::ResolutionMix::Skewed();
  for (costmodel::Resolution res : costmodel::kAllResolutions) {
    if (name == std::to_string(costmodel::Pixels(res))) {
      return workload::ResolutionMix::Homogeneous(res);
    }
  }
  TETRI_FATAL("unknown mix '" << name << "'");
}

std::unique_ptr<serving::Scheduler>
MakePolicy(const Options& opts, const serving::ServingSystem& system)
{
  if (opts.policy == "tetri") {
    core::TetriOptions tetri;
    tetri.step_granularity = opts.granularity;
    tetri.placement_preservation = !opts.no_placement;
    tetri.elastic_scale_up = !opts.no_elastic;
    tetri.selective_batching = !opts.no_batching;
    return std::make_unique<core::TetriScheduler>(&system.table(),
                                                  tetri);
  }
  if (opts.policy.rfind("sp", 0) == 0) {
    const std::string digits = opts.policy.substr(2);
    const int num_gpus = system.topology().num_gpus();
    const int degree =
        !digits.empty() && digits.size() <= 3 &&
                digits.find_first_not_of("0123456789") == std::string::npos
            ? std::stoi(digits)
            : 0;
    if (degree < 1 || degree > num_gpus || !cluster::IsPow2(degree)) {
      TETRI_FATAL("policy '" << opts.policy << "' needs a power-of-two "
                  "SP degree in [1, " << num_gpus << "] on this topology");
    }
    return std::make_unique<baselines::FixedSpScheduler>(degree);
  }
  if (opts.policy == "rssp") {
    return std::make_unique<baselines::RsspScheduler>(&system.table());
  }
  if (opts.policy == "rssp-backfill") {
    return std::make_unique<baselines::RsspScheduler>(&system.table(),
                                                      50, true);
  }
  if (opts.policy == "edf") {
    return std::make_unique<baselines::EdfScheduler>(&system.table());
  }
  TETRI_FATAL("unknown policy '" << opts.policy << "'");
}

void
DumpRecords(const serving::ServingResult& result,
            const std::string& path)
{
  std::ofstream out(path);
  if (!out) TETRI_FATAL("cannot write records to '" << path << "'");
  out << "id,resolution,arrival_us,deadline_us,completion_us,"
         "latency_s,met_slo,steps,avg_degree,gpu_seconds\n";
  for (const auto& rec : result.records) {
    out << rec.id << ',' << costmodel::ResolutionName(rec.resolution)
        << ',' << rec.arrival_us << ',' << rec.deadline_us << ','
        << rec.completion_us << ','
        << (rec.Completed() ? SecFromUs(rec.LatencyUs()) : -1.0) << ','
        << (rec.MetSlo() ? 1 : 0) << ',' << rec.steps_executed << ','
        << (rec.steps_executed > 0
                ? rec.degree_step_sum / rec.steps_executed
                : 0.0)
        << ',' << rec.gpu_time_us / 1e6 << '\n';
  }
}

int
Run(const Options& opts)
{
  auto model = opts.model == "sd3" ? costmodel::ModelConfig::Sd3Medium()
                                   : costmodel::ModelConfig::FluxDev();
  cluster::Topology topology =
      opts.topology == "a40"
          ? cluster::Topology::A40Node(opts.gpus > 0 ? opts.gpus : 4)
          : cluster::Topology::H100Node(opts.gpus > 0 ? opts.gpus : 8);

  workload::Trace trace;
  if (!opts.load_trace.empty()) {
    trace = workload::LoadTrace(opts.load_trace);
  } else {
    workload::TraceSpec spec;
    spec.num_requests = opts.requests;
    spec.arrival_rate_per_min = opts.rate;
    spec.slo_scale = opts.scale;
    spec.seed = opts.seed;
    spec.bursty = opts.bursty;
    spec.mix = MixFromName(opts.mix);
    trace = workload::BuildTrace(spec);
  }

  if (!opts.save_trace.empty()) {
    if (!workload::SaveTrace(trace, opts.save_trace)) {
      TETRI_FATAL("cannot write trace to '" << opts.save_trace << "'");
    }
    std::printf("wrote %zu requests to %s\n", trace.requests.size(),
                opts.save_trace.c_str());
    return 0;
  }

  trace::Tracer tracer;
  trace::PerfettoSink perfetto;
  serving::ServingConfig config;
  if (!opts.trace_out.empty()) {
    tracer.AddSink(&perfetto);
    config.trace = &tracer;
  }

  serving::ServingSystem system(&topology, &model, config);
  auto policy = MakePolicy(opts, system);
  auto result = system.Run(policy.get(), trace);
  auto sar = result.Sar();
  auto dist = metrics::LatencyDistributionSec(result.records);

  std::printf("%s | %s on %s | %zu requests | seed %llu\n",
              policy->Name().c_str(), model.name.c_str(),
              topology.name().c_str(), trace.requests.size(),
              static_cast<unsigned long long>(opts.seed));
  Table table({"metric", "value"});
  table.AddRow({"SLO attainment", FormatDouble(sar.overall, 3)});
  for (costmodel::Resolution res : costmodel::kAllResolutions) {
    const int idx = costmodel::ResolutionIndex(res);
    if (sar.counts[idx] == 0) continue;
    table.AddRow({"  SAR " + costmodel::ResolutionName(res),
                  FormatDouble(sar.per_resolution[idx], 3) + "  (n=" +
                      std::to_string(sar.counts[idx]) + ")"});
  }
  table.AddRow({"mean latency (s)", FormatDouble(dist.Mean(), 2)});
  table.AddRow({"p99 latency (s)",
                FormatDouble(dist.Percentile(99), 2)});
  table.AddRow(
      {"GPU utilization",
       FormatPercent(result.GpuUtilization(topology.num_gpus()), 1)});
  table.AddRow({"GPU hours",
                FormatDouble(metrics::TotalGpuHours(result.records), 3)});
  table.AddRow({"dropped", std::to_string(result.num_dropped)});
  table.AddRow({"scheduler calls",
                std::to_string(result.num_scheduler_calls)});
  table.AddRow({"max plan time (us)",
                FormatDouble(result.scheduler_wall_us_max, 0)});
  table.Print();

  if (!opts.records_csv.empty()) {
    DumpRecords(result, opts.records_csv);
    std::printf("per-request records written to %s\n",
                opts.records_csv.c_str());
  }
  if (!opts.trace_out.empty()) {
    const auto events = perfetto.events();
    if (!trace::WritePerfettoFile(events, topology.num_gpus(),
                                  opts.trace_out)) {
      TETRI_FATAL("cannot write trace to '" << opts.trace_out << "'");
    }
    const trace::TraceSummary summary = trace::Summarize(events);
    std::printf(
        "trace: %zu events (%d rounds, %d dispatches, %d steps) "
        "step p50/p99 %.0f/%.0f us -> %s\n",
        events.size(), summary.rounds, summary.dispatches, summary.steps,
        summary.step_latency_us.Percentile(50),
        summary.step_latency_us.Percentile(99), opts.trace_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace tetri::tools

int
main(int argc, char** argv)
{
  tetri::tools::Options opts;
  if (!tetri::tools::ParseArgs(argc, argv, &opts)) return 1;
  return tetri::tools::Run(opts);
}
