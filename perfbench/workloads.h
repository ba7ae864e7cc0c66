#ifndef VZ_PERFBENCH_WORKLOADS_H_
#define VZ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace vz::perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span logs.
  std::string out_dir = ".";
};

/// Runs one workload end to end and prints the report; the process exit
/// code (0 once a report with a verdict is printed).
int RunWorkload(const RunArgs& args);

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_WORKLOADS_H_
