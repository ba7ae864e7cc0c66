// The run's result: named metrics with units, operation counts, answer-check
// failures, and the final one-line JSON object the benchmark contract asks
// for (always the last line of stdout).
#ifndef VZ_PERFBENCH_REPORT_H_
#define VZ_PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace vz::perfbench {

class Report {
 public:
  /// Adds one metric; `detail` (percentile, sample count, ...) is printed on
  /// the human-readable line only.
  void Add(const std::string& name, const std::string& unit, double value,
           const std::string& detail = "") {
    metrics_.push_back({name, unit, value, detail});
  }

  /// Counts attempted operations and failed ones (failed, refused, degraded
  /// or mismatched); the first few failure reasons are printed.
  void Attempt(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& reason) {
    ++failed_;
    ++attempted_;
    Note(reason);
  }
  /// Records a failure reason without counting an operation (the operation
  /// was already counted through `Attempt`).
  void Note(const std::string& reason) {
    if (reasons_.size() < 10) reasons_.push_back(reason);
  }
  /// A check that is not an operation (self-test, harness error) failed.
  void Invalidate(const std::string& reason) {
    correct_ = false;
    Note(reason);
  }

  uint64_t attempted() const { return attempted_; }

  void Print() const {
    for (const std::string& reason : reasons_) {
      std::printf("failure: %s\n", reason.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.c_str());
    }
    std::printf("operations attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    const bool correct = correct_ && failed_ == 0 && attempted_ > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_ > 0 ? attempted_ : 1),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string detail;
  };

  std::vector<Metric> metrics_;
  std::vector<std::string> reasons_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_REPORT_H_
