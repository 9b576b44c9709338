#include "costmodel/latency_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/stats.h"

namespace tetri::costmodel {

namespace {

/**
 * Mean and CV of @p samples draws of one cell. Each draw is exactly
 * StepCostModel::SampleStepTimeUs, with the cell's deterministic mean
 * and jitter CV computed once instead of once per draw, so the
 * profile stays bit-identical to sampling through that function.
 */
LatencyCell
ProfileCell(const StepCostModel& cost, Resolution res, int degree,
            int batch, int samples, Rng& rng)
{
  const double mean = cost.StepTimeUs(res, degree, batch);
  const double cv = cost.JitterCv(res, degree);
  RunningStat stat;
  for (int s = 0; s < samples; ++s) {
    stat.Add(mean * std::max(0.5, rng.NextGaussian(1.0, cv)));
  }
  return LatencyCell{stat.mean(), stat.Cv()};
}

}  // namespace

LatencyTable
LatencyTable::Profile(const StepCostModel& cost, int max_batch,
                      int samples, std::uint64_t seed,
                      bool extended_degrees)
{
  TETRI_CHECK(max_batch >= 1 && samples >= 2);
  LatencyTable table;
  table.max_batch_ = max_batch;
  table.degrees_ = cost.topology().FeasibleDegrees();
  const int num_pow2 = static_cast<int>(table.degrees_.size());

  Rng rng(seed);
  table.cells_.resize(kNumResolutions);
  for (Resolution res : kAllResolutions) {
    table.vae_us_[ResolutionIndex(res)] = cost.VaeDecodeUs(res);
  }
  for (Resolution res : kAllResolutions) {
    auto& by_degree = table.cells_[ResolutionIndex(res)];
    by_degree.resize(num_pow2);
    for (int di = 0; di < num_pow2; ++di) {
      const int degree = table.degrees_[di];
      auto& by_batch = by_degree[di];
      by_batch.resize(max_batch);
      for (int bs = 1; bs <= max_batch; ++bs) {
        by_batch[bs - 1] = ProfileCell(cost, res, degree, bs, samples, rng);
      }
    }
  }

  if (extended_degrees) {
    // Non-pow2 cells draw from an independent derived stream so the
    // pow2 cells above stay bit-identical to a non-extended profile
    // (plan goldens and equivalence suites depend on that).
    const int num_gpus = cost.topology().num_gpus();
    Rng ext_rng(seed ^ 0x7e7269334e505332ULL);
    table.extended_ = true;
    table.ext_cells_.resize(kNumResolutions);
    for (Resolution res : kAllResolutions) {
      auto& by_degree = table.ext_cells_[ResolutionIndex(res)];
      by_degree.resize(num_gpus + 1);
      for (int degree = 1; degree <= num_gpus; ++degree) {
        if (cluster::IsPow2(degree)) continue;
        auto& by_batch = by_degree[degree];
        by_batch.resize(max_batch);
        for (int bs = 1; bs <= max_batch; ++bs) {
          by_batch[bs - 1] =
              ProfileCell(cost, res, degree, bs, samples, ext_rng);
        }
      }
    }
    table.degrees_.clear();
    for (int degree = 1; degree <= num_gpus; ++degree) {
      table.degrees_.push_back(degree);
    }
  }
  return table;
}

const LatencyCell&
LatencyTable::Cell(Resolution res, int degree, int batch) const
{
  TETRI_CHECK_MSG(batch >= 1 && batch <= max_batch_, "batch " << batch);
  if (cluster::IsPow2(degree) && degree <= max_degree()) {
    const int di = std::countr_zero(static_cast<unsigned>(degree));
    return cells_[ResolutionIndex(res)][di][batch - 1];
  }
  TETRI_CHECK_MSG(extended_ && degree >= 1 && degree <= max_degree(),
                  "degree " << degree);
  return ext_cells_[ResolutionIndex(res)][degree][batch - 1];
}

double
LatencyTable::StepTimeUs(Resolution res, int degree, int batch) const
{
  return Cell(res, degree, batch).mean_us;
}

double
LatencyTable::StepCv(Resolution res, int degree, int batch) const
{
  return Cell(res, degree, batch).cv;
}

double
LatencyTable::GpuTimeUs(Resolution res, int degree, int batch) const
{
  return degree * StepTimeUs(res, degree, batch);
}

double
LatencyTable::MinStepTimeUs(Resolution res) const
{
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) best = std::min(best, StepTimeUs(res, k));
  return best;
}

int
LatencyTable::FastestDegree(Resolution res) const
{
  int best_k = 1;
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) {
    const double t = StepTimeUs(res, k);
    if (t < best) {
      best = t;
      best_k = k;
    }
  }
  return best_k;
}

int
LatencyTable::MostEfficientDegree(Resolution res) const
{
  int best_k = 1;
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) {
    const double g = GpuTimeUs(res, k);
    if (g < best) {
      best = g;
      best_k = k;
    }
  }
  return best_k;
}

double
LatencyTable::VaeDecodeUs(Resolution res) const
{
  return vae_us_[ResolutionIndex(res)];
}

std::string
LatencyTable::ToCsv() const
{
  std::ostringstream oss;
  oss << "resolution,degree,step_ms,cv\n";
  for (Resolution res : kAllResolutions) {
    for (int k : degrees_) {
      oss << ResolutionName(res) << ',' << k << ','
          << StepTimeUs(res, k) / 1e3 << ',' << StepCv(res, k) << '\n';
    }
  }
  return oss.str();
}

}  // namespace tetri::costmodel
