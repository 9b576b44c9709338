#include "probes.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace tetri::e2e {

double
NowSec()
{
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t
DeriveSeed(std::uint64_t seed, int index)
{
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double
Mean(const std::vector<double>& values)
{
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double
Median(std::vector<double> values)
{
  return Percentile(std::move(values), 50.0);
}

double
Percentile(std::vector<double> values, double p)
{
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double
ThreadCpuUs()
{
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double
ProcessCpuUs()
{
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double
PeakRssMb()
{
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

serving::RoundPlan
TimedScheduler::Plan(const serving::ScheduleContext& ctx)
{
  const double start = NowSec();
  serving::RoundPlan plan = inner_->Plan(ctx);
  const double us = (NowSec() - start) * 1e6;
  plan_us_.push_back(us);
  total_plan_us_ += us;
  if (!plan.assignments.empty()) ++useful_calls_;
  const std::size_t depth = ctx.schedulable->size();
  depth_sum_ += depth;
  max_depth_ = std::max(max_depth_, depth);
  return plan;
}

double
TimedScheduler::mean_queue_depth() const
{
  if (plan_us_.empty()) return 0.0;
  return static_cast<double>(depth_sum_) /
         static_cast<double>(plan_us_.size());
}

void
CountingSink::OnEvent(const trace::TraceEvent& event)
{
  counts_[static_cast<int>(event.kind)].fetch_add(
      1, std::memory_order_relaxed);
  if (event.kind == trace::TraceEventKind::kRoundEnd) {
    utilization_ppb_.fetch_add(
        static_cast<std::uint64_t>(std::llround(event.value * 1e9)),
        std::memory_order_relaxed);
  }
}

std::uint64_t
CountingSink::total() const
{
  std::uint64_t sum = 0;
  for (const auto& c : counts_) sum += c.load(std::memory_order_relaxed);
  return sum;
}

double
CountingSink::mean_pack_utilization() const
{
  const std::uint64_t rounds = count(trace::TraceEventKind::kRoundEnd);
  if (rounds == 0) return 0.0;
  return static_cast<double>(
             utilization_ppb_.load(std::memory_order_relaxed)) /
         1e9 / static_cast<double>(rounds);
}

namespace {

void
Mix(std::uint64_t* h, const void* data, std::size_t n)
{
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= bytes[i];
    *h *= 0x100000001B3ULL;
  }
}

template <typename T>
void
MixValue(std::uint64_t* h, T value)
{
  Mix(h, &value, sizeof(value));
}

std::string
JsonString(const std::string& s)
{
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string
JsonNumber(double value)
{
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::uint64_t
RecordsDigest(const std::vector<metrics::RequestRecord>& records)
{
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const metrics::RequestRecord& r : records) {
    MixValue(&h, r.id);
    MixValue(&h, static_cast<int>(r.resolution));
    MixValue(&h, r.arrival_us);
    MixValue(&h, r.deadline_us);
    MixValue(&h, r.completion_us);
    MixValue(&h, r.gpu_time_us);
    MixValue(&h, r.degree_step_sum);
    MixValue(&h, r.steps_executed);
    MixValue(&h, static_cast<int>(r.outcome));
    MixValue(&h, static_cast<int>(r.drop_reason));
    MixValue(&h, r.failure_retries);
  }
  return h;
}

void
Report::Metric(const std::string& name, double value,
               const std::string& unit)
{
  metrics_.push_back({name, value, unit});
}

bool
Report::HasMetric(const std::string& name) const
{
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Entry& m) { return m.name == name; });
}

void
Report::Info(const std::string& key, const std::string& value)
{
  info_.emplace_back(key, JsonString(value));
}

void
Report::Info(const std::string& key, double value)
{
  info_.emplace_back(key, JsonNumber(value));
}

void
Report::Fail(const std::string& what)
{
  failures_.push_back(what);
}

void
Report::Print() const
{
  for (const auto& [key, value] : info_) {
    std::printf("  %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const Entry& m : metrics_) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::printf("  VERIFY FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics_[i].name) + ": {\"value\": " +
            JsonNumber(metrics_[i].value) +
            ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  json += "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(info_[i].first) + ": " + info_[i].second;
  }
  json += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(failures_[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace tetri::e2e
