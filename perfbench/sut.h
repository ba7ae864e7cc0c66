#ifndef VZ_PERFBENCH_SUT_H_
#define VZ_PERFBENCH_SUT_H_

#include <string>

namespace vz::perfbench {

/// Entry point of the system-under-test process (`vzbench sut <workload>`).
/// A non-empty `trace_path` records the process's decorator spans there.
int RunSut(const std::string& workload, const std::string& trace_path);

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_SUT_H_
