/**
 * @file
 * Benchmark regression gate for the scheduler fast path.
 *
 * Compares a fresh `bench_micro_scheduler --json` report against the
 * committed baseline (BENCH_scheduler.json at the repo root), matching
 * configs by (queue_depth, num_gpus). The gate fails when the geometric
 * mean of the per-config fast_p50_us ratios (current / baseline)
 * exceeds the threshold — the geomean absorbs per-cell CI noise while
 * still catching an across-the-board slowdown.
 *
 * Usage:
 *   bench_gate <baseline.json> <current.json>
 *              [--threshold=1.20]
 *              [--append-trajectory=<path> --label=<text>]
 *
 * --append-trajectory appends one JSONL record per invocation to the
 * tracked trajectory file so per-PR plan latency is an auditable
 * series, not a single overwritten number.
 *
 * Exit codes: 0 within threshold, 1 regression, 2 usage/parse error.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Config {
  int queue_depth = 0;
  int num_gpus = 0;
  double fast_p50_us = 0.0;
  double fast_p99_us = 0.0;
};

struct PackerRow {
  std::string packer;
  double plan_p50_us = 0.0;
  int frag_met = 0;
  int frag_total = 0;
};

struct Report {
  std::string mode;
  std::vector<Config> configs;
  std::vector<PackerRow> packers;  // optional "packers" block
};

/** Extract the number following "<key>": in @p obj, or NAN. */
double
NumberField(const std::string& obj, const std::string& key)
{
  const std::string needle = "\"" + key + "\":";
  const auto pos = obj.find(needle);
  if (pos == std::string::npos) return NAN;
  return std::strtod(obj.c_str() + pos + needle.size(), nullptr);
}

/** Extract the string following "<key>": " in @p obj, or "". */
std::string
StringField(const std::string& obj, const std::string& key)
{
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = obj.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = obj.find('"', start);
  if (end == std::string::npos) return "";
  return obj.substr(start, end - start);
}

/**
 * Minimal parse of the bench_micro_scheduler JSON shape: pull the
 * "mode" string and every {...} object inside the "configs" array
 * (plus the optional "packers" array, when present).
 * Deliberately not a general JSON parser — the producer is ours and
 * writes flat objects with no nested braces inside configs.
 */
bool
ParseReport(const std::string& path, Report* out)
{
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_gate: cannot read '" << path << "'\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const auto mode_pos = text.find("\"mode\": \"");
  if (mode_pos != std::string::npos) {
    const auto start = mode_pos + 9;
    const auto end = text.find('"', start);
    if (end != std::string::npos) {
      out->mode = text.substr(start, end - start);
    }
  }

  const auto configs_pos = text.find("\"configs\"");
  if (configs_pos == std::string::npos) {
    std::cerr << "bench_gate: no \"configs\" array in '" << path
              << "'\n";
    return false;
  }
  const auto open = text.find('[', configs_pos);
  const auto close = text.find(']', configs_pos);
  if (open == std::string::npos || close == std::string::npos) {
    std::cerr << "bench_gate: malformed \"configs\" array in '" << path
              << "'\n";
    return false;
  }
  std::size_t pos = open;
  while (true) {
    const auto obj_open = text.find('{', pos);
    if (obj_open == std::string::npos || obj_open > close) break;
    const auto obj_close = text.find('}', obj_open);
    if (obj_close == std::string::npos) break;
    const std::string obj =
        text.substr(obj_open, obj_close - obj_open + 1);
    Config c;
    c.queue_depth = static_cast<int>(NumberField(obj, "queue_depth"));
    c.num_gpus = static_cast<int>(NumberField(obj, "num_gpus"));
    c.fast_p50_us = NumberField(obj, "fast_p50_us");
    c.fast_p99_us = NumberField(obj, "fast_p99_us");
    if (c.queue_depth > 0 && c.num_gpus > 0 &&
        std::isfinite(c.fast_p50_us)) {
      out->configs.push_back(c);
    }
    pos = obj_close + 1;
  }
  if (out->configs.empty()) {
    std::cerr << "bench_gate: no configs parsed from '" << path
              << "'\n";
    return false;
  }

  // Optional packer-matrix block (bench_micro_scheduler --packers).
  // Older reports predate it, so absence is not an error.
  const auto packers_pos = text.find("\"packers\"", close);
  if (packers_pos != std::string::npos) {
    const auto popen = text.find('[', packers_pos);
    const auto pclose = text.find(']', packers_pos);
    if (popen != std::string::npos && pclose != std::string::npos) {
      std::size_t ppos = popen;
      while (true) {
        const auto obj_open = text.find('{', ppos);
        if (obj_open == std::string::npos || obj_open > pclose) break;
        const auto obj_close = text.find('}', obj_open);
        if (obj_close == std::string::npos) break;
        const std::string obj =
            text.substr(obj_open, obj_close - obj_open + 1);
        PackerRow row;
        row.packer = StringField(obj, "packer");
        row.plan_p50_us = NumberField(obj, "plan_p50_us");
        row.frag_met = static_cast<int>(NumberField(obj, "frag_met"));
        row.frag_total =
            static_cast<int>(NumberField(obj, "frag_total"));
        if (!row.packer.empty() && std::isfinite(row.plan_p50_us)) {
          out->packers.push_back(row);
        }
        ppos = obj_close + 1;
      }
    }
  }
  return true;
}

int
Usage()
{
  std::cerr << "usage: bench_gate <baseline.json> <current.json> "
               "[--threshold=R] "
               "[--append-trajectory=PATH --label=TEXT]\n";
  return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
  std::string baseline_path;
  std::string current_path;
  std::string trajectory_path;
  std::string label;
  double threshold = 1.20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
      if (!(threshold > 0)) return Usage();
    } else if (arg.rfind("--append-trajectory=", 0) == 0) {
      trajectory_path = arg.substr(20);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return Usage();
    }
  }
  if (baseline_path.empty() || current_path.empty()) return Usage();
  if (!trajectory_path.empty() && label.empty()) {
    std::cerr << "bench_gate: --append-trajectory requires --label\n";
    return Usage();
  }

  Report baseline;
  Report current;
  if (!ParseReport(baseline_path, &baseline) ||
      !ParseReport(current_path, &current)) {
    return 2;
  }

  std::map<std::pair<int, int>, Config> by_key;
  for (const Config& c : baseline.configs) {
    by_key[{c.queue_depth, c.num_gpus}] = c;
  }

  std::printf("%8s %6s %14s %14s %8s\n", "depth", "gpus",
              "base_p50_us", "cur_p50_us", "ratio");
  double log_sum = 0.0;
  int matched = 0;
  for (const Config& cur : current.configs) {
    const auto it = by_key.find({cur.queue_depth, cur.num_gpus});
    if (it == by_key.end()) continue;
    const Config& base = it->second;
    if (!(base.fast_p50_us > 0) || !(cur.fast_p50_us > 0)) continue;
    const double ratio = cur.fast_p50_us / base.fast_p50_us;
    std::printf("%8d %6d %14.3f %14.3f %7.2fx\n", cur.queue_depth,
                cur.num_gpus, base.fast_p50_us, cur.fast_p50_us,
                ratio);
    log_sum += std::log(ratio);
    ++matched;
  }
  if (matched == 0) {
    std::cerr << "bench_gate: no configs matched between '"
              << baseline_path << "' and '" << current_path << "'\n";
    return 2;
  }
  const double geomean = std::exp(log_sum / matched);
  std::printf(
      "bench_gate: %d config(s), geomean fast_p50 ratio %.3f "
      "(threshold %.2f, current mode '%s')\n",
      matched, geomean, threshold, current.mode.c_str());

  // Packer matrix (when the current report carries one): print the
  // rows and enforce the recorded invariant — the progressive
  // packer's SLO attainment on the fragmented-node scenario must be
  // at least the DP's. Reports without the block (older baselines,
  // runs without --packers) skip the check.
  if (!current.packers.empty()) {
    const PackerRow* dp = nullptr;
    const PackerRow* progressive = nullptr;
    std::printf("%12s %14s %10s %12s\n", "packer", "plan_p50_us",
                "frag_met", "frag_total");
    for (const PackerRow& row : current.packers) {
      std::printf("%12s %14.3f %10d %12d\n", row.packer.c_str(),
                  row.plan_p50_us, row.frag_met, row.frag_total);
      if (row.packer == "dp") dp = &row;
      if (row.packer == "progressive") progressive = &row;
    }
    if (dp != nullptr && progressive != nullptr &&
        progressive->frag_met < dp->frag_met) {
      std::cerr << "bench_gate: FAIL — progressive packer met "
                << progressive->frag_met << "/"
                << progressive->frag_total
                << " SLOs on the fragmented node vs dp's "
                << dp->frag_met << "\n";
      return 1;
    }
  }

  if (!trajectory_path.empty()) {
    // Idempotent append: a re-run with the same label (same commit)
    // replaces its own entry instead of duplicating it, so CI retries
    // and local reruns keep the trajectory one-line-per-label.
    const std::string label_key = "\"label\": \"" + label + "\"";
    std::vector<std::string> kept;
    bool replaced = false;
    {
      std::ifstream in(trajectory_path);
      std::string existing;
      while (std::getline(in, existing)) {
        if (existing.find(label_key) != std::string::npos) {
          replaced = true;
          continue;
        }
        if (!existing.empty()) kept.push_back(existing);
      }
    }
    std::ofstream out(trajectory_path, std::ios::trunc);
    if (!out) {
      std::cerr << "bench_gate: cannot write '" << trajectory_path
                << "'\n";
      return 2;
    }
    for (const std::string& existing : kept) out << existing << "\n";
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"label\": \"%s\", \"mode\": \"%s\", "
                  "\"configs\": %d, \"geomean_fast_p50_ratio\": %.4f, "
                  "\"threshold\": %.2f, \"pass\": %s}",
                  label.c_str(), current.mode.c_str(), matched,
                  geomean, threshold,
                  geomean <= threshold ? "true" : "false");
    out << line << "\n";
    std::printf("bench_gate: %s '%s' in %s\n",
                replaced ? "replaced" : "appended", label.c_str(),
                trajectory_path.c_str());
  }

  if (geomean > threshold) {
    std::cerr << "bench_gate: FAIL — plan latency regressed "
              << std::fixed << geomean << "x geomean vs baseline\n";
    return 1;
  }
  std::printf("bench_gate: OK\n");
  return 0;
}
