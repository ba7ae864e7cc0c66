// vzbench: the end-to-end benchmark's load generator, system under test and
// self-test in one binary.
//
//   vzbench selftest
//   vzbench run --workload ingest|direct --seed N --seconds S --trace 0|1
//               [--out DIR]
//   vzbench sut ingest|direct [--trace-out FILE]   (spawned by `run`)
//
// perfbench/run.py builds it, records the run's conditions, runs the
// self-test and then one workload.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common.h"
#include "core/omd.h"
#include "sim/dataset.h"
#include "sut.h"
#include "workloads.h"

namespace vz::perfbench {
namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::printf("selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

/// Percentile and tail selection on known arrays, and the answer checker
/// against perturbed replies.
int SelfTest() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Near(Percentile(hundred, 0.5), 50), "p50 of 1..100 is 50");
  Expect(Near(Percentile(hundred, 0.99), 99), "p99 of 1..100 is 99");
  Expect(Near(Percentile(hundred, 1.0), 100), "p100 of 1..100 is 100");
  Expect(Near(Percentile(hundred, 0.0), 1), "p0 of 1..100 is 1");
  Expect(Near(Percentile({3.0}, 0.99), 3), "any percentile of one sample");
  Expect(Near(Percentile({}, 0.5), 0), "empty input reads 0");
  std::vector<double> reversed(hundred.rbegin(), hundred.rend());
  Expect(Near(Percentile(reversed, 0.9), 90), "input order does not matter");

  Expect(SamplesBeyond(100, 0.9) == 10, "10 of 100 samples lie beyond p90");
  Expect(SamplesBeyond(100, 0.95) == 5, "5 of 100 samples lie beyond p95");
  Expect(TailAt(hundred, 0.9).valid, "p90 of 100 samples has 10 beyond");
  Expect(!TailAt(hundred, 0.95).valid, "p95 of 100 samples has only 5 beyond");
  Expect(!TailAt(hundred, 0.99).valid, "p99 of 100 samples has only 1 beyond");
  Expect(TailAt(std::vector<double>(1000, 1.0), 0.99).valid,
         "p99 of 1000 samples has 10 beyond");
  Expect(!TailAt(std::vector<double>(1000, 1.0), 0.995).valid,
         "p99.5 of 1000 samples has only 5 beyond");
  Expect(!TailAt(std::vector<double>(5, 1.0), 0.5).valid,
         "no percentile of 5 samples has 10 beyond");

  // Two modes, as ingest acks have: 900 fast acks and 100 stalls. A tail
  // fixed at p95 lands inside the stall mode with 50 samples beyond it; one
  // at p85 lands in the fast mode.
  std::vector<double> bimodal;
  for (int i = 0; i < 900; ++i) bimodal.push_back(3.0 + i * 1e-4);
  for (int i = 0; i < 100; ++i) bimodal.push_back(1000.0 + i);
  const Tail stall = TailAt(bimodal, 0.95);
  Expect(stall.valid && stall.beyond == 50, "p95 of 1000 has 50 beyond");
  Expect(stall.value >= 1000.0, "p95 sits inside the stall mode");
  Expect(TailAt(bimodal, 0.85).value < 4.0, "p85 sits inside the fast mode");

  Answer want;
  want.candidates = {7, 3, 1LL << 40};
  want.matched = {3};
  want.bottleneck_gpu_ms = 70.0;
  Answer same = want;
  same.candidates = {1LL << 40, 3, 7};  // order is not part of the answer
  Expect(CompareAnswers(want, same).empty(), "a reordered answer matches");
  Answer extra = want;
  extra.candidates.push_back(9);
  Expect(!CompareAnswers(want, extra).empty(), "an extra candidate is caught");
  Answer missing = want;
  missing.matched.clear();
  Expect(!CompareAnswers(want, missing).empty(), "a missing match is caught");
  Answer gpu = want;
  gpu.bottleneck_gpu_ms += 35.0;
  Expect(!CompareAnswers(want, gpu).empty(), "a different GPU charge is caught");
  Answer shard = want;
  shard.candidates[2] = 1LL << 41;
  Expect(!CompareAnswers(want, shard).empty(), "a wrong shard id is caught");
  Answer degraded = want;
  degraded.degraded = true;
  Expect(!CompareAnswers(want, degraded).empty(), "a degraded reply fails");
  Answer timed_out = want;
  timed_out.timed_out = true;
  Expect(!CompareAnswers(want, timed_out).empty(), "a timed-out reply fails");

  std::printf("selftest %s (%d failures)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

/// A fixed CPU workload (exact OMD solves on a fixed synthetic dataset),
/// best of three: a host-speed reading recorded with every run's
/// conditions, so a slow or contended host shows in the report.
void Calibrate() {
  sim::SyntheticDatasetOptions options;
  options.num_svs = 8;
  options.vectors_per_svs = 64;
  options.dim = 48;
  const sim::SyntheticDataset data = sim::MakeSyntheticDataset(options);
  core::OmdOptions exact;
  exact.mode = core::OmdMode::kExact;
  exact.threshold_alpha = 1.0;
  core::OmdCalculator calculator(exact);
  double best_ms = 0.0;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i + 1 < data.svss.size(); ++i) {
      (void)calculator.Distance(data.svss[i], data.svss[i + 1]);
    }
    const double ms = MsSince(start, Clock::now());
    if (round == 0 || ms < best_ms) best_ms = ms;
  }
  std::printf("calibration_ms %.4f\n", best_ms);
}

int Usage() {
  std::fprintf(stderr,
               "usage: vzbench selftest\n"
               "       vzbench run --workload ingest|direct --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n"
               "       vzbench sut ingest|direct [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace vz::perfbench

int main(int argc, char** argv) {
  using namespace vz::perfbench;
  // A serving process that died mid-write must not kill the load generator.
  ::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "selftest") {
    const int code = SelfTest();
    Calibrate();
    return code;
  }
  if (mode == "sut") {
    if (argc < 3) return Usage();
    std::string trace_path;
    if (argc == 5 && std::string(argv[3]) == "--trace-out") {
      trace_path = argv[4];
    }
    return RunSut(argv[2], trace_path);
  }
  if (mode != "run") return Usage();
  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.seconds <= 0) return Usage();
  return RunWorkload(args);
}
