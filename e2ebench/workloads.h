/**
 * @file
 * The three benchmark workloads. Each entry point builds its inputs
 * from the workload seed, measures for the requested host time,
 * verifies the program's outputs, and fills a Report.
 *
 * With trace off a run reports the end-to-end metrics; with trace on
 * it reports the per-layer metrics (METRICS.md lists both). A metric
 * whose layer the workload does not exercise reads 0 in traced runs.
 */
#ifndef TETRI_E2EBENCH_WORKLOADS_H
#define TETRI_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <string>

#include "probes.h"

namespace tetri::e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/** Unit of a per-layer metric (aborts on an unknown name). */
const char* LayerUnit(const std::string& name);

void RunSimSteadyFlux(const Args& args, Report* report);
void RunSimBurstSd3(const Args& args, Report* report);
void RunRtClosedFlux(const Args& args, Report* report);

}  // namespace tetri::e2e

#endif  // TETRI_E2EBENCH_WORKLOADS_H
