// Shared pieces of the end-to-end benchmark: the fixed fleet and index
// configuration both processes derive independently, spans, /proc readers,
// and the child-process handle of the system under test.
#ifndef VZ_PERFBENCH_COMMON_H_
#define VZ_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/frame.h"
#include "core/videozilla.h"
#include "sim/dataset.h"

namespace vz::perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double UsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Dataset seed of the fixed fleet. Chosen once, before any measurement,
/// and never re-picked: set-up and ingest cost vary several-fold across
/// fleet seeds, so a new seed would be a new benchmark. `--seed` drives only
/// the request stream.
inline constexpr uint64_t kFleetSeed = 1;

/// The fixed fleet of `ingest`: 24 cameras (4 cities x 3 downtown, 8
/// highway, 2 train stations, 2 harbors), 4 simulated minutes at 0.5 fps,
/// 48-d features — 2880 frames. Large enough that the inter-camera rebuild
/// and the OMD solver dominate index building: on `direct`'s 11-camera fleet
/// the rebuild is 2% of the in-process ingest replay and 100 OMD solves are
/// made per SVS; on this one, 49% and ~6000 (NOTES.md).
inline sim::DeploymentOptions IngestFleetOptions() {
  sim::DeploymentOptions options;
  options.cities = 4;
  options.downtown_per_city = 3;
  options.highway_cameras = 8;
  options.train_stations = 2;
  options.harbors = 2;
  options.feed_duration_ms = 4LL * 60 * 1000;
  options.fps = 0.5;
  options.feature_dim = 48;
  options.seed = kFleetSeed;
  return options;
}

/// The fixed fleet of `direct`, split over two edges: 11 cameras (2 cities x
/// 2 downtown, 3 highway, 2 train stations, 2 harbors), 4 simulated minutes
/// at 0.5 fps, 48-d features — 1320 frames. Smaller than `ingest`'s so that a
/// full set-up (both shards ingested and flushed) can be repeated in a run.
inline sim::DeploymentOptions DirectFleetOptions() {
  sim::DeploymentOptions options = IngestFleetOptions();
  options.cities = 2;
  options.downtown_per_city = 2;
  options.highway_cameras = 3;
  return options;
}

/// Index configuration of every Video-zilla instance in the benchmark
/// (edges, the ingest server, and the in-process references): the paper
/// figures' bench scale — 2-minute t_max, 64-vector OMD subsampling.
inline core::VideoZillaOptions IndexOptions() {
  core::VideoZillaOptions options;
  options.segmenter.t_max_ms = 2LL * 60 * 1000;
  options.segmenter.t_split_ms = options.segmenter.t_max_ms / 10;
  options.segmenter.min_novel_features = 4;
  options.segmenter.novelty_check_stride = 2;
  options.omd.max_vectors = 64;
  options.intra.recluster_interval = 3;
  options.boundary_scale = 1.8;
  options.enable_keyframe_selection = false;
  options.seed = 11;
  return options;
}

/// The fleet's frames in global timestamp order (ties keep camera order), as
/// a fleet of live cameras would deliver them.
inline std::vector<core::FrameObservation> GlobalOrder(
    sim::Deployment* deployment) {
  std::vector<core::FrameObservation> frames = deployment->observations();
  std::stable_sort(frames.begin(), frames.end(),
                   [](const core::FrameObservation& a,
                      const core::FrameObservation& b) {
                     return a.timestamp_ms < b.timestamp_ms;
                   });
  return frames;
}

// --- Spans. ---

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` is the span that caused this one (0 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// In-memory span log, written out once when the run ends. Disabled (every
/// call a no-op) in untraced runs.
class SpanLog {
 public:
  void Enable() { enabled_ = true; }

  /// Records [start, end] and returns the span's id (0 when disabled).
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent, uint64_t request) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.start_ns = Ns(start);
    span.end_ns = Ns(end);
    span.id = ++next_id_;
    span.parent = parent;
    span.request = request;
    spans_.push_back(span);
    return span.id;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(out) == 0;
  }

 private:
  static int64_t Ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 0;
};

// --- /proc readers for the serving process. ---

struct ProcSample {
  bool ok = false;
  uint64_t threads = 0;
  uint64_t vm_hwm_kb = 0;
  /// utime + stime of the whole thread group, in clock ticks.
  uint64_t cpu_ticks = 0;
};

/// Threads, peak RSS and CPU time of `pid` from /proc/<pid>/{status,stat}.
ProcSample ReadProc(pid_t pid);

// --- The system under test as a child process. ---

/// A spawned `vzbench sut ...` process with line-oriented pipes on its
/// stdin/stdout. The destructor kills and reaps a child that was not shut
/// down, so no path leaves it running.
class SutProcess {
 public:
  struct Exit {
    bool clean = false;
    /// The STATS line the child printed before exiting (JSON), if any.
    std::string stats;
  };

  SutProcess() = default;
  ~SutProcess();
  SutProcess(const SutProcess&) = delete;
  SutProcess& operator=(const SutProcess&) = delete;

  /// Spawns this binary with `args`; false on failure.
  bool Start(const std::vector<std::string>& args);
  /// The next line of the child's stdout without the newline; empty on EOF.
  std::string ReadLine();
  /// The child's context switches so far, as it reports them itself
  /// (getrusage, exited threads included; /proc has no process-wide count).
  uint64_t ContextSwitches();
  /// Asks the child to shut down, collects its STATS line, and reaps it.
  Exit Stop();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  FILE* to_child_ = nullptr;
  FILE* from_child_ = nullptr;
};

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_COMMON_H_
