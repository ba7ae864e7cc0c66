#include "clustering/silhouette.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "clustering/kmeans.h"

#include "test_util.h"

namespace vz::clustering {
namespace {

TEST(SilhouetteTest, PerfectClusteringScoresHigh) {
  auto data = testing::MakeClusteredPoints(2, 20, 4, 20.0, 0.3, 1);
  std::vector<size_t> assignments;
  for (int label : data.labels) {
    assignments.push_back(static_cast<size_t>(label));
  }
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.9);
}

TEST(SilhouetteTest, RandomClusteringScoresLow) {
  auto data = testing::MakeClusteredPoints(2, 20, 4, 20.0, 0.3, 2);
  std::vector<size_t> assignments(data.points.size());
  Rng rng(3);
  for (auto& a : assignments) a = rng.UniformUint64(2);
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_LT(*score, 0.3);
}

TEST(SilhouetteTest, SingleClusterScoresZero) {
  auto data = testing::MakeClusteredPoints(2, 10, 4, 20.0, 0.3, 4);
  std::vector<size_t> assignments(data.points.size(), 0);
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(*score, 0.0);
}

TEST(SilhouetteTest, RejectsMismatchedSizes) {
  std::vector<FeatureVector> pts = {FeatureVector({0.0f})};
  EXPECT_FALSE(SilhouetteScore(pts, {0, 1}).ok());
}

TEST(SilhouetteTest, ScoreBoundedByOne) {
  auto data = testing::MakeClusteredPoints(3, 15, 4, 10.0, 1.0, 5);
  std::vector<size_t> assignments;
  for (int label : data.labels) {
    assignments.push_back(static_cast<size_t>(label));
  }
  auto score = SilhouetteScore(data.points, assignments);
  ASSERT_TRUE(score.ok());
  EXPECT_LE(*score, 1.0);
  EXPECT_GE(*score, -1.0);
}

TEST(ChooseKTest, RecoversTrueClusterCount) {
  auto data = testing::MakeClusteredPoints(4, 20, 8, 25.0, 0.5, 6);
  Rng rng(7);
  auto sweep = ChooseKBySilhouette(data.points, 2, 8, &rng);
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->best_k, 4u);
  EXPECT_GT(sweep->best_score, 0.8);
  EXPECT_EQ(sweep->scores.size(), 7u);
}

// The sweep as a loop of KMeans + SilhouetteScore per k: the reference the
// one-pass sweep must match bit for bit, consuming `rng` the same way.
SilhouetteSweepResult ReferenceSweep(const std::vector<FeatureVector>& points,
                                     size_t min_k, size_t max_k, Rng* rng) {
  min_k = std::max<size_t>(2, min_k);
  max_k = std::min(max_k, points.size() - 1);
  if (min_k > max_k) max_k = min_k;
  SilhouetteSweepResult sweep;
  sweep.best_score = -std::numeric_limits<double>::infinity();
  for (size_t k = min_k; k <= max_k; ++k) {
    KMeansOptions options;
    options.k = k;
    auto km = KMeans(points, options, rng);
    EXPECT_TRUE(km.ok());
    auto score = SilhouetteScore(points, km->assignments);
    EXPECT_TRUE(score.ok());
    sweep.scores.emplace_back(k, *score);
    if (*score > sweep.best_score) {
      sweep.best_score = *score;
      sweep.best_k = k;
    }
  }
  return sweep;
}

void ExpectSweepMatchesReference(const std::vector<FeatureVector>& points,
                                 size_t min_k, size_t max_k, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << points.size() << " k=["
                                    << min_k << "," << max_k << "] seed="
                                    << seed);
  Rng rng(seed);
  Rng reference_rng = rng;
  auto sweep = ChooseKBySilhouette(points, min_k, max_k, &rng);
  ASSERT_TRUE(sweep.ok());
  const SilhouetteSweepResult reference =
      ReferenceSweep(points, min_k, max_k, &reference_rng);
  ASSERT_EQ(sweep->scores.size(), reference.scores.size());
  for (size_t i = 0; i < reference.scores.size(); ++i) {
    EXPECT_EQ(sweep->scores[i].first, reference.scores[i].first);
    EXPECT_EQ(sweep->scores[i].second, reference.scores[i].second);
  }
  EXPECT_EQ(sweep->best_k, reference.best_k);
  EXPECT_EQ(sweep->best_score, reference.best_score);
  // Both consumed the random stream identically.
  EXPECT_EQ(rng.NextUint64(), reference_rng.NextUint64());
}

TEST(ChooseKTest, MatchesPerKReferenceBitForBit) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    auto data = testing::MakeClusteredPoints(2 + seed % 4, 5 + 3 * seed,
                                             4 + seed, 6.0, 1.0, seed);
    ExpectSweepMatchesReference(data.points, 2, 10, seed * 31);
  }
}

TEST(ChooseKTest, MatchesReferenceOnTinyInputs) {
  // n = 2 and 3: the range collapses to k = 2 (max_k clamps to n - 1).
  for (size_t n : {2u, 3u}) {
    auto data = testing::MakeClusteredPoints(1, n, 3, 1.0, 0.5, 40 + n);
    ExpectSweepMatchesReference(data.points, 2, 10, 41);
    ExpectSweepMatchesReference(data.points, 5, 3, 42);
  }
}

TEST(ChooseKTest, MatchesReferenceWithClampedMaxK) {
  auto data = testing::MakeClusteredPoints(3, 3, 4, 10.0, 0.3, 50);
  ExpectSweepMatchesReference(data.points, 2, 100, 51);  // clamps to 8
  ExpectSweepMatchesReference(data.points, 4, 6, 52);
}

TEST(ChooseKTest, MatchesReferenceWithDuplicatePoints) {
  // Zero distances: a(i) = b(i) = 0 takes the max(a, b) == 0 branch.
  std::vector<FeatureVector> points(6, FeatureVector({1.0f, 2.0f, 3.0f}));
  for (int i = 0; i < 6; ++i) {
    points.push_back(FeatureVector({5.0f, 5.0f, 5.0f}));
  }
  points.push_back(FeatureVector({1.0f, 2.0f, 3.5f}));
  ExpectSweepMatchesReference(points, 2, 6, 60);
}

TEST(ChooseKTest, MatchesReferenceWithSingletonClusters) {
  // Far outliers end up alone: singletons contribute s(i) = 0.
  auto data = testing::MakeClusteredPoints(2, 8, 4, 5.0, 0.5, 70);
  data.points.push_back(FeatureVector({90.0f, 0.0f, 0.0f, 0.0f}));
  data.points.push_back(FeatureVector({0.0f, -90.0f, 0.0f, 0.0f}));
  data.points.push_back(FeatureVector({0.0f, 0.0f, 0.0f, 90.0f}));
  ExpectSweepMatchesReference(data.points, 2, 8, 71);
}

TEST(ChooseKTest, RejectsTinyInput) {
  Rng rng(8);
  std::vector<FeatureVector> one = {FeatureVector({0.0f})};
  EXPECT_FALSE(ChooseKBySilhouette(one, 2, 5, &rng).ok());
}

}  // namespace
}  // namespace vz::clustering
