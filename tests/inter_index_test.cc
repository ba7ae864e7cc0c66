#include "core/inter_camera_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "test_util.h"

namespace vz::core {
namespace {

using ::vz::testing::MakeMap;

class InterIndexTest : public ::testing::Test {
 protected:
  InterIndexTest() : metric_(&store_, &calc_) {}

  // Builds an intra-camera index for `camera` with SVSs around the given
  // centers, one SVS per center, reclustered every insert.
  std::unique_ptr<IntraCameraIndex> MakeIntra(
      const CameraId& camera, const std::vector<double>& centers,
      uint64_t seed) {
    IntraIndexOptions options;
    options.recluster_interval = 1;
    auto intra = std::make_unique<IntraCameraIndex>(camera, &store_, &metric_,
                                                    options, Rng(seed));
    for (size_t i = 0; i < centers.size(); ++i) {
      AddSvs(intra.get(), centers[i], seed * 100 + i);
    }
    return intra;
  }

  // Stores one more SVS of `intra`'s camera around `center` and inserts it.
  void AddSvs(IntraCameraIndex* intra, double center, uint64_t seed) {
    const int64_t start = next_time_;
    next_time_ += 10;
    const SvsId id = store_.Create(intra->camera(), start, next_time_,
                                   MakeMap(10, 4, center, 0.3, seed));
    EXPECT_TRUE(intra->Insert(id).ok());
  }

  // A cold index with `inter`'s options, built from `inter`'s entries by
  // one SetEntries under the calculator's current settings, must hold the
  // same tree for every cluster count.
  void ExpectSameTreeAsFreshBuild(const InterCameraIndex& inter,
                                  const InterIndexOptions& options) {
    InterCameraIndex fresh(&calc_, options, Rng(99));
    ASSERT_TRUE(fresh.SetEntries(inter.entries()).ok());
    ASSERT_EQ(fresh.size(), inter.size());
    for (size_t k = 1; k <= inter.size(); ++k) {
      EXPECT_EQ(fresh.tree().ExtractClusters(k),
                inter.tree().ExtractClusters(k))
          << "k=" << k;
    }
  }

  SvsStore store_;
  OmdCalculator calc_;
  SvsMetric metric_;
  int64_t next_time_ = 0;
};

TEST_F(InterIndexTest, UpdateCameraImportsRepresentatives) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(1));
  auto intra = MakeIntra("cam-a", {0.0, 0.0, 10.0, 10.0}, 2);
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  EXPECT_EQ(inter.size(), intra->clusters().size());
  EXPECT_GT(inter.representative_bytes_received(), 0u);
}

TEST_F(InterIndexTest, UpdateReplacesPreviousEntries) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(3));
  auto intra = MakeIntra("cam-a", {0.0, 10.0}, 4);
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  const size_t first = inter.size();
  ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  EXPECT_EQ(inter.size(), first);  // replaced, not duplicated
}

TEST_F(InterIndexTest, RemoveCameraDropsEntries) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(5));
  auto a = MakeIntra("cam-a", {0.0, 10.0}, 6);
  auto b = MakeIntra("cam-b", {0.0, 10.0}, 7);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*b).ok());
  const size_t both = inter.size();
  ASSERT_TRUE(inter.RemoveCamera("cam-a").ok());
  EXPECT_LT(inter.size(), both);
  for (const auto& entry : inter.entries()) {
    EXPECT_EQ(entry.camera, "cam-b");
  }
}

TEST_F(InterIndexTest, GroupsClusterSimilarCamerasTogether) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(8));
  // Two "parking lot"-like cameras (around 0) and two "harbor"-like ones
  // (around 10): their representatives should group by content, not camera.
  auto a = MakeIntra("lot-a", {0.0, 0.2}, 9);
  auto b = MakeIntra("lot-b", {0.1, 0.3}, 10);
  auto c = MakeIntra("harbor-a", {10.0, 10.2}, 11);
  auto d = MakeIntra("harbor-b", {10.1, 10.3}, 12);
  for (auto* intra : {a.get(), b.get(), c.get(), d.get()}) {
    ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
  }
  ASSERT_EQ(inter.groups().size(), 2u);
  for (const auto& group : inter.groups()) {
    bool has_lot = false;
    bool has_harbor = false;
    for (size_t idx : group.entry_indices) {
      const auto& camera = inter.entries()[idx].camera;
      (camera.rfind("lot", 0) == 0 ? has_lot : has_harbor) = true;
    }
    EXPECT_FALSE(has_lot && has_harbor);
  }
}

TEST_F(InterIndexTest, FeatureSearchPrunesByContent) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(13));
  auto a = MakeIntra("lot-a", {0.0}, 14);
  auto c = MakeIntra("harbor-a", {10.0}, 15);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*c).ok());
  FeatureVector near_lot(4);
  for (size_t d = 0; d < 4; ++d) near_lot[d] = 0.05f;
  const auto hits = inter.FeatureSearch(near_lot, 1.5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->camera, "lot-a");
}

TEST_F(InterIndexTest, GroupOfNearestFindsRightGroup) {
  InterIndexOptions options;
  options.forced_num_groups = 2;
  InterCameraIndex inter(&calc_, options, Rng(16));
  auto a = MakeIntra("lot-a", {0.0}, 17);
  auto c = MakeIntra("harbor-a", {10.0}, 18);
  ASSERT_TRUE(inter.UpdateCamera(*a).ok());
  ASSERT_TRUE(inter.UpdateCamera(*c).ok());
  const FeatureMap query = MakeMap(8, 4, 9.8, 0.3, 19);
  auto group = inter.GroupOfNearest(query);
  ASSERT_TRUE(group.ok());
  bool found_harbor = false;
  for (size_t idx : (*group)->entry_indices) {
    found_harbor |= inter.entries()[idx].camera == "harbor-a";
  }
  EXPECT_TRUE(found_harbor);
}

TEST_F(InterIndexTest, EmptyIndexQueriesFail) {
  InterCameraIndex inter(&calc_, InterIndexOptions{}, Rng(20));
  const FeatureMap query = MakeMap(4, 4, 0.0, 0.3, 21);
  EXPECT_FALSE(inter.GroupOfNearest(query).ok());
  FeatureVector f(4);
  EXPECT_TRUE(inter.FeatureSearch(f).empty());
}

TEST_F(InterIndexTest, IncrementalRebuildsMatchFreshBuild) {
  for (bool pruned : {true, false}) {
    SCOPED_TRACE(pruned ? "pruned" : "unpruned");
    InterIndexOptions options;
    options.perch.enable_pruned_nn = pruned;
    InterCameraIndex inter(&calc_, options, Rng(30));
    std::vector<std::unique_ptr<IntraCameraIndex>> cameras;
    for (uint64_t c = 0; c < 5; ++c) {
      cameras.push_back(MakeIntra("cam-" + std::to_string(c),
                                  {0.0, 3.0 * static_cast<double>(c), 10.0},
                                  31 + c));
    }
    Rng ops(32);
    for (int step = 0; step < 24; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      IntraCameraIndex* intra =
          cameras[ops.UniformUint64(cameras.size())].get();
      switch (ops.UniformUint64(4)) {
        case 0:
        case 1:  // new content: representatives change in place
          AddSvs(intra, ops.UniformDouble(-5.0, 20.0), 1'000 + step);
          ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
          break;
        case 2:  // unchanged content: every key survives
          ASSERT_TRUE(inter.UpdateCamera(*intra).ok());
          break;
        default:
          ASSERT_TRUE(inter.RemoveCamera(intra->camera()).ok());
          break;
      }
      ExpectSameTreeAsFreshBuild(inter, options);
    }
  }
}

TEST_F(InterIndexTest, RebuildSolvesOnlyPairsTouchingNewEntries) {
  // Unpruned insertion measures every leaf, so each build solves (or finds
  // in the memo) every pair of its entries — whatever the insertion order.
  InterIndexOptions options;
  options.perch.enable_pruned_nn = false;
  InterCameraIndex inter(&calc_, options, Rng(33));
  std::vector<std::unique_ptr<IntraCameraIndex>> cameras;
  for (uint64_t c = 0; c < 4; ++c) {
    cameras.push_back(MakeIntra("cam-" + std::to_string(c),
                                {0.0, 2.0 * static_cast<double>(c), 9.0},
                                34 + c));
    ASSERT_TRUE(inter.UpdateCamera(*cameras.back()).ok());
  }

  // Re-importing an unchanged camera keeps every key and solves nothing.
  std::vector<uint64_t> keys_before;
  for (const auto& entry : inter.entries()) keys_before.push_back(entry.key);
  calc_.ResetCounter();
  ASSERT_TRUE(inter.UpdateCamera(*cameras[1]).ok());
  EXPECT_EQ(calc_.num_computations(), 0u);
  std::vector<uint64_t> keys_after;
  for (const auto& entry : inter.entries()) keys_after.push_back(entry.key);
  std::sort(keys_before.begin(), keys_before.end());
  std::sort(keys_after.begin(), keys_after.end());
  EXPECT_EQ(keys_after, keys_before);

  // New content on one camera: only pairs with a fresh entry are solved,
  // each at most once.
  AddSvs(cameras[2].get(), 5.0, 35);
  AddSvs(cameras[2].get(), 7.0, 36);
  calc_.ResetCounter();
  ASSERT_TRUE(inter.UpdateCamera(*cameras[2]).ok());
  size_t fresh = 0;
  for (const auto& entry : inter.entries()) {
    fresh += !std::binary_search(keys_before.begin(), keys_before.end(),
                                 entry.key);
  }
  const size_t n = inter.size();
  ASSERT_GT(fresh, 0u);
  EXPECT_LE(calc_.num_computations(),
            fresh * (n - fresh) + fresh * (fresh - 1) / 2);
}

TEST_F(InterIndexTest, OmdSettingChangesNeverServeStaleDistances) {
  const InterIndexOptions options;
  InterCameraIndex inter(&calc_, options, Rng(37));
  std::vector<std::unique_ptr<IntraCameraIndex>> cameras;
  for (uint64_t c = 0; c < 3; ++c) {
    cameras.push_back(MakeIntra("cam-" + std::to_string(c),
                                {0.0, 4.0 * static_cast<double>(c), 11.0},
                                38 + c));
    ASSERT_TRUE(inter.UpdateCamera(*cameras.back()).ok());
  }
  // Exact alpha, then exact mode: each new setting re-solves the unchanged
  // entries (the memo is keyed on mode and alpha) and builds the tree a
  // cold index builds under it; a repeat under the same setting is free.
  auto set_alpha = [this] { calc_.set_threshold_alpha(1.0); };
  auto set_exact = [this] { calc_.set_mode(OmdMode::kExact); };
  for (const auto& change : {std::function<void()>(set_alpha),
                             std::function<void()>(set_exact)}) {
    change();
    calc_.ResetCounter();
    ASSERT_TRUE(inter.UpdateCamera(*cameras[0]).ok());
    EXPECT_GT(calc_.num_computations(), 0u);
    ExpectSameTreeAsFreshBuild(inter, options);
    calc_.ResetCounter();
    ASSERT_TRUE(inter.UpdateCamera(*cameras[0]).ok());
    EXPECT_EQ(calc_.num_computations(), 0u);
  }
}

TEST_F(InterIndexTest, BackToBackNearestQueriesMatchBruteForce) {
  // Unpruned search measures the query against every entry, so a scratch
  // slot that read or wrote the memo would hand each query the previous
  // one's distances; the pruned search must agree as well.
  for (bool pruned : {false, true}) {
    SCOPED_TRACE(pruned ? "pruned" : "unpruned");
    InterIndexOptions options;
    options.forced_num_groups = 3;
    options.perch.enable_pruned_nn = pruned;
    InterCameraIndex inter(&calc_, options, Rng(41));
    std::vector<std::unique_ptr<IntraCameraIndex>> cameras;
    for (uint64_t c = 0; c < 4; ++c) {
      cameras.push_back(MakeIntra("cam-" + std::to_string(c),
                                  {1.0 + 3.0 * static_cast<double>(c),
                                   2.0 + 3.0 * static_cast<double>(c)},
                                  42 + c));
      ASSERT_TRUE(inter.UpdateCamera(*cameras.back()).ok());
    }
    const std::vector<double> centers = {0.5, 11.5, 6.0, 0.5, 3.5, 9.0, 11.5};
    for (size_t q = 0; q < centers.size(); ++q) {
      SCOPED_TRACE(::testing::Message() << "query " << q);
      const FeatureMap query = MakeMap(6, 4, centers[q], 0.3, 50 + q);
      size_t nearest = 0;
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < inter.size(); ++i) {
        auto d = calc_.Distance(query, inter.entries()[i].map);
        ASSERT_TRUE(d.ok());
        if (*d < best) {
          best = *d;
          nearest = i;
        }
      }
      auto group = inter.GroupOfNearest(query);
      ASSERT_TRUE(group.ok());
      const auto& members = (*group)->entry_indices;
      EXPECT_NE(std::find(members.begin(), members.end(), nearest),
                members.end());
    }
  }
}

}  // namespace
}  // namespace vz::core
