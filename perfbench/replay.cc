#include "replay.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "core/inter_camera_index.h"
#include "core/omd.h"
#include "net/coordinator.h"
#include "sim/object_class.h"

namespace vz::perfbench {

core::ObjectVerifier::Verification TimedVerifier::Verify(
    const core::Svs& svs, const FeatureVector& query_feature) {
  const Clock::time_point start = Clock::now();
  Verification verification = inner_->Verify(svs, query_feature);
  calls_.fetch_add(1, std::memory_order_relaxed);
  frames_.fetch_add(verification.frames_processed, std::memory_order_relaxed);
  spans_->Record("verifier.verify", start, Clock::now(), 0, 0);
  return verification;
}

Fleet::Fleet(const sim::DeploymentOptions& options, SpanLog* spans)
    : deployment(options),
      heavy(0.97, 0.05, 31),
      sim_verifier(&deployment.space(), &deployment.log(), &heavy),
      verifier(&sim_verifier, spans) {}

Status ReplayIngest(core::VideoZilla* system,
                    const std::vector<core::CameraId>& cameras,
                    const std::vector<core::FrameObservation>& frames,
                    bool flush, bool shadow, IngestTrace* trace) {
  for (const core::CameraId& camera : cameras) {
    VZ_RETURN_IF_ERROR(system->CameraStart(camera));
  }
  core::OmdCalculator shadow_omd(IndexOptions().omd);
  core::InterCameraIndex shadow_inter(&shadow_omd, IndexOptions().inter,
                                      Rng(IndexOptions().seed));
  std::unordered_map<core::CameraId, uint64_t> synced_versions;
  size_t current_frame = 0;
  double frame_rebuild_ms = 0.0;
  Status shadow_status = Status::OK();
  system->SetSegmentObserver([&](const core::Svs& svs) {
    trace->svs_frame[svs.id()] = current_frame;
    if (!shadow) return;
    auto intra = system->intra_index(svs.camera());
    if (!intra.ok()) return;
    uint64_t& synced = synced_versions[svs.camera()];
    if ((*intra)->representative_version() == synced) return;
    synced = (*intra)->representative_version();
    const Clock::time_point start = Clock::now();
    Status status = shadow_inter.UpdateCamera(**intra);
    const double ms = MsSince(start, Clock::now());
    if (!status.ok() && shadow_status.ok()) shadow_status = status;
    trace->rebuild_ms.push_back(ms);
    frame_rebuild_ms += ms;
  });

  Status status = Status::OK();
  for (current_frame = 0; current_frame < frames.size(); ++current_frame) {
    const uint64_t before = system->ingest_stats().svs_created;
    frame_rebuild_ms = 0.0;
    const Clock::time_point start = Clock::now();
    status = system->IngestFrame(frames[current_frame]);
    const double ms = MsSince(start, Clock::now()) - frame_rebuild_ms;
    if (!status.ok()) break;
    trace->per_frame_ms.push_back(ms);
    trace->ingest_ms_total += ms;
    trace->rebuild_ms_total += frame_rebuild_ms;
    if (system->ingest_stats().svs_created != before) {
      trace->close_ms.push_back(ms);
    } else {
      trace->frame_us.push_back(ms * 1e3);
    }
  }
  if (status.ok() && flush) {
    current_frame = frames.size();
    frame_rebuild_ms = 0.0;
    const Clock::time_point start = Clock::now();
    status = system->Flush();
    trace->ingest_ms_total += MsSince(start, Clock::now()) - frame_rebuild_ms;
    trace->rebuild_ms_total += frame_rebuild_ms;
  }
  system->SetSegmentObserver(nullptr);
  VZ_RETURN_IF_ERROR(status);
  VZ_RETURN_IF_ERROR(shadow_status);

  if (shadow) {
    trace->inter_entries = shadow_inter.size();
    const std::vector<core::SvsId> ids = system->svs_store().AllIds();
    const size_t stride = std::max<size_t>(1, ids.size() / 64);
    for (size_t i = 0; i < ids.size(); i += stride) {
      auto svs = system->svs_store().Get(ids[i]);
      if (!svs.ok() || (*svs)->features().empty()) continue;
      const Clock::time_point start = Clock::now();
      auto group = shadow_inter.GroupOfNearest((*svs)->features());
      const double us = UsSince(start, Clock::now());
      if (group.ok()) trace->nn_us.push_back(us);
    }
  }
  return Status::OK();
}

std::vector<core::FrameObservation> ShardFrames(
    sim::Deployment* deployment, const std::vector<core::CameraId>& cameras) {
  const std::unordered_set<core::CameraId> wanted(cameras.begin(),
                                                  cameras.end());
  std::vector<core::FrameObservation> frames;
  for (const core::FrameObservation& obs : deployment->observations()) {
    if (wanted.count(obs.camera) != 0) frames.push_back(obs);
  }
  return frames;
}

QueryPool MakeQueryPool(const sim::Deployment& deployment, uint64_t seed,
                        size_t per_class) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::vector<int> classes = {sim::kFireHydrant, sim::kBoat,
                                    sim::kTrain};
  std::vector<std::pair<FeatureVector, int>> items;
  for (int object_class : classes) {
    for (size_t i = 0; i < per_class; ++i) {
      items.emplace_back(deployment.MakeQueryFeature(object_class, &rng),
                         object_class);
    }
  }
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.UniformUint64(i)]);
  }
  QueryPool pool;
  for (auto& [feature, object_class] : items) {
    pool.features.push_back(std::move(feature));
    pool.classes.push_back(object_class);
  }
  return pool;
}

DirectReference BuildDirectReference(
    Fleet* fleet, const std::vector<core::VideoZilla*>& edges,
    const QueryPool& pool) {
  std::vector<int64_t> universe;
  for (const core::FrameObservation& obs : fleet->deployment.observations()) {
    universe.push_back(obs.frame_id);
  }
  DirectReference ref;
  for (size_t q = 0; q < pool.features.size(); ++q) {
    Answer answer;
    std::vector<double> edge_us(edges.size(), 0.0);
    std::vector<int64_t> examined;
    double cameras = 0.0;
    const uint64_t calls_before = fleet->verifier.calls();
    const uint64_t frames_before = fleet->verifier.frames();
    for (size_t shard = 0; shard < edges.size(); ++shard) {
      const Clock::time_point start = Clock::now();
      auto result = edges[shard]->DirectQuery(pool.features[q]);
      edge_us[shard] = UsSince(start, Clock::now());
      if (!result.ok()) {
        // No reply can match a reference that is itself incomplete.
        answer.degraded = true;
        continue;
      }
      for (core::SvsId id : result->candidate_svss) {
        answer.candidates.push_back(net::GlobalSvsId(shard, id));
        auto svs = edges[shard]->svs_store().Get(id);
        if (svs.ok()) {
          examined.insert(examined.end(), (*svs)->frame_ids().begin(),
                          (*svs)->frame_ids().end());
        }
      }
      for (core::SvsId id : result->matched_svss) {
        answer.matched.push_back(net::GlobalSvsId(shard, id));
      }
      answer.bottleneck_gpu_ms = std::max(answer.bottleneck_gpu_ms,
                                          result->bottleneck_camera_gpu_ms);
      answer.total_gpu_ms += result->total_gpu_ms;
      answer.degraded = answer.degraded || result->degraded;
      answer.timed_out = answer.timed_out || result->timed_out;
      cameras += static_cast<double>(result->cameras_searched);
    }
    ref.answers.push_back(answer);
    ref.evals.push_back(sim::EvaluateFrameQuery(
        examined, universe, pool.classes[q], fleet->deployment.log(),
        fleet->heavy));
    ref.edge_us.push_back(edge_us);
    ref.cameras_searched.push_back(cameras);
    ref.verify_calls.push_back(
        static_cast<double>(fleet->verifier.calls() - calls_before));
    ref.verify_frames.push_back(
        static_cast<double>(fleet->verifier.frames() - frames_before));
  }
  return ref;
}

SolverProbe ProbeSolver(const core::SvsStore& store, size_t pairs) {
  SolverProbe probe;
  std::vector<const core::Svs*> svss;
  for (core::SvsId id : store.AllIds()) {
    auto svs = store.Get(id);
    if (svs.ok() && !(*svs)->features().empty()) svss.push_back(*svs);
  }
  if (svss.size() < 2) return probe;
  const core::OmdOptions thresholded = IndexOptions().omd;
  core::OmdOptions exact = thresholded;
  exact.mode = core::OmdMode::kExact;
  exact.threshold_alpha = 1.0;
  core::OmdCalculator calculator(thresholded);
  // A fixed sampler: the same pairs on every run, whatever the seed.
  Rng rng(2022);
  for (size_t i = 0; i < pairs; ++i) {
    const FeatureMap& a =
        svss[rng.UniformUint64(svss.size())]->features();
    const FeatureMap& b =
        svss[rng.UniformUint64(svss.size())]->features();
    Clock::time_point start = Clock::now();
    auto exact_distance = calculator.DistanceWithOptions(a, b, exact, nullptr);
    probe.exact_us.push_back(UsSince(start, Clock::now()));
    start = Clock::now();
    auto fast_distance =
        calculator.DistanceWithOptions(a, b, thresholded, nullptr);
    probe.thresholded_us.push_back(UsSince(start, Clock::now()));
    start = Clock::now();
    auto ground = calculator.ComputeGroundMatrix(a, b);
    probe.ground_us.push_back(UsSince(start, Clock::now()));
    start = Clock::now();
    const double ocd = ObjectCentroidDistance(a, b);
    probe.ocd_us.push_back(UsSince(start, Clock::now()));
    start = Clock::now();
    const double quantized = core::QuantizedOmdLowerBound(a, b, exact);
    probe.quantized_us.push_back(UsSince(start, Clock::now()));
    if (exact_distance.ok() && *exact_distance > 0.0 && fast_distance.ok() &&
        ground.ok()) {
      probe.tightness.push_back(std::max(ocd, quantized) / *exact_distance);
    }
  }
  return probe;
}

std::vector<double> ProbeClustering(core::VideoZilla* system, size_t queries) {
  std::vector<double> ms;
  const std::vector<core::SvsId> ids = system->svs_store().AllIds();
  if (ids.empty()) return ms;
  const size_t stride = std::max<size_t>(1, ids.size() / queries);
  for (size_t i = 0; i < ids.size() && ms.size() < queries; i += stride) {
    const Clock::time_point start = Clock::now();
    auto result = system->ClusteringQuery(ids[i]);
    if (result.ok()) ms.push_back(MsSince(start, Clock::now()));
  }
  return ms;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace vz::perfbench
