#ifndef MINOS_PERFBENCH_PROBES_H_
#define MINOS_PERFBENCH_PROBES_H_

// Layer probes: each times one public primitive directly, at a fixed
// size, and reports it as a per-layer metric.

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

/// Runs every probe (about two seconds in all) and adds its metrics.
void RunProbes(std::map<std::string, Metric>* out);

}  // namespace perfbench

#endif  // MINOS_PERFBENCH_PROBES_H_
