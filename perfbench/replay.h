// In-process work of the benchmark: the fleet both workloads serve, the
// answer reference the load generator checks replies against, and the
// per-layer replays of the traced run (ingest, inter-camera rebuild, solver,
// lower bounds, clustering). Nothing here goes over the wire.
#ifndef VZ_PERFBENCH_REPLAY_H_
#define VZ_PERFBENCH_REPLAY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_stats.h"
#include "common.h"
#include "core/query.h"
#include "core/videozilla.h"
#include "sim/dataset.h"
#include "sim/evaluation.h"
#include "sim/verifier.h"

namespace vz::perfbench {

/// Timing and counting decorator of the heavy-model verifier, installed
/// through `VideoZilla::SetVerifier`.
class TimedVerifier final : public core::ObjectVerifier {
 public:
  TimedVerifier(core::ObjectVerifier* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  Verification Verify(const core::Svs& svs,
                      const FeatureVector& query_feature) override;

  uint64_t calls() const { return calls_.load(); }
  uint64_t frames() const { return frames_.load(); }

 private:
  core::ObjectVerifier* inner_;
  SpanLog* spans_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> frames_{0};
};

/// A fixed fleet with the simulated heavy model (the paper's YOLO-class
/// ground-truth CNN) and its verifier.
struct Fleet {
  Fleet(const sim::DeploymentOptions& options, SpanLog* spans);

  sim::Deployment deployment;
  sim::HeavyModel heavy;
  sim::SimObjectVerifier sim_verifier;
  TimedVerifier verifier;
};

inline constexpr size_t kShards = 2;

/// What an in-process ingest replay observed.
struct IngestTrace {
  /// IngestFrame wall time of frames that closed no segment.
  std::vector<double> frame_us;
  /// IngestFrame wall time of frames that closed at least one segment,
  /// without the shadow rebuild the replay itself added.
  std::vector<double> close_ms;
  /// Shadow `InterCameraIndex::UpdateCamera` calls (the rebuild replay).
  std::vector<double> rebuild_ms;
  /// IngestFrame wall time of every frame, in replay order.
  std::vector<double> per_frame_ms;
  double ingest_ms_total = 0.0;
  double rebuild_ms_total = 0.0;
  /// Shadow `GroupOfNearest` lookups over sampled SVSs.
  std::vector<double> nn_us;
  size_t inter_entries = 0;
  /// SVS id -> index (in the replayed sequence) of the frame whose ingest
  /// finalized it; frames.size() for SVSs finalized by the closing Flush.
  std::unordered_map<core::SvsId, size_t> svs_frame;
};

/// Starts `cameras` on `system`, then feeds `frames` through IngestFrame in
/// order, timing each call; `flush` ends with Flush(). Equivalent to
/// `Deployment::IngestShard` when `frames` is the shard's observations. With
/// `shadow`, every representative change is also applied to a shadow
/// inter-camera index and timed, and nearest-group lookups are timed at the
/// end.
Status ReplayIngest(core::VideoZilla* system,
                    const std::vector<core::CameraId>& cameras,
                    const std::vector<core::FrameObservation>& frames,
                    bool flush, bool shadow, IngestTrace* trace);

/// The fleet's observations restricted to `cameras`, in the order
/// `Deployment::IngestShard` feeds them.
std::vector<core::FrameObservation> ShardFrames(
    sim::Deployment* deployment, const std::vector<core::CameraId>& cameras);

/// Seeded query features, equal numbers of the paper's three query classes
/// (fire hydrant, boat, train), in a seeded order.
struct QueryPool {
  std::vector<FeatureVector> features;
  std::vector<int> classes;
};
QueryPool MakeQueryPool(const sim::Deployment& deployment, uint64_t seed,
                        size_t per_class);

/// The expected answer to every pool feature: the union of the edges'
/// in-process answers in the coordinator's global id space (edge i is shard
/// i; a single edge's ids are unchanged), with its frame-level evaluation
/// and the in-process work it took.
struct DirectReference {
  std::vector<Answer> answers;
  std::vector<sim::QueryEvaluation> evals;
  /// In-process DirectQuery wall time per feature per edge.
  std::vector<std::vector<double>> edge_us;
  std::vector<double> cameras_searched;
  std::vector<double> verify_calls;
  std::vector<double> verify_frames;
};
DirectReference BuildDirectReference(
    Fleet* fleet, const std::vector<core::VideoZilla*>& edges,
    const QueryPool& pool);

/// Solver and lower-bound timings over SVS pairs sampled from a store.
struct SolverProbe {
  std::vector<double> exact_us;
  std::vector<double> thresholded_us;
  std::vector<double> ground_us;
  std::vector<double> ocd_us;
  std::vector<double> quantized_us;
  /// max(OCD, quantized bound) / exact OMD per pair with exact > 0.
  std::vector<double> tightness;
};
SolverProbe ProbeSolver(const core::SvsStore& store, size_t pairs);

/// In-process ClusteringQuery wall time (ms) over sampled stored targets.
std::vector<double> ProbeClustering(core::VideoZilla* system, size_t queries);

double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_REPLAY_H_
