#include "clustering/silhouette.h"

#include <algorithm>
#include <limits>

#include "clustering/kmeans.h"

namespace vz::clustering {

namespace {

// Members per cluster id; ids run to the largest assignment.
std::vector<size_t> ClusterSizes(const std::vector<size_t>& assignments) {
  size_t num_clusters = 0;
  for (size_t a : assignments) num_clusters = std::max(num_clusters, a + 1);
  std::vector<size_t> sizes(num_clusters, 0);
  for (size_t a : assignments) sizes[a]++;
  return sizes;
}

bool FewerThanTwoPopulated(const std::vector<size_t>& sizes) {
  return std::count_if(sizes.begin(), sizes.end(),
                       [](size_t s) { return s > 0; }) < 2;
}

// The mean silhouette given each item's summed distance to every cluster:
// row i of `sums` (`sizes.size()` wide) for every non-singleton item i.
double MeanSilhouette(const std::vector<size_t>& assignments,
                      const std::vector<size_t>& sizes,
                      const std::vector<double>& sums) {
  if (FewerThanTwoPopulated(sizes)) return 0.0;
  const size_t width = sizes.size();
  double total = 0.0;
  for (size_t i = 0; i < assignments.size(); ++i) {
    const size_t ci = assignments[i];
    if (sizes[ci] <= 1) continue;  // singleton contributes s(i) = 0
    const double* sum_to = &sums[i * width];
    const double a = sum_to[ci] / static_cast<double>(sizes[ci] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < width; ++c) {
      if (c == ci || sizes[c] == 0) continue;
      b = std::min(b, sum_to[c] / static_cast<double>(sizes[c]));
    }
    const double denom = std::max(a, b);
    if (denom > 0.0) total += (b - a) / denom;
  }
  return total / static_cast<double>(assignments.size());
}

}  // namespace

StatusOr<double> SilhouetteScore(size_t num_items,
                                 const std::vector<size_t>& assignments,
                                 const ItemDistanceFn& distance) {
  if (assignments.size() != num_items) {
    return Status::InvalidArgument("assignments size mismatch");
  }
  if (num_items == 0) return Status::InvalidArgument("no items");
  const std::vector<size_t> sizes = ClusterSizes(assignments);
  if (FewerThanTwoPopulated(sizes)) return 0.0;
  const size_t width = sizes.size();
  std::vector<double> sums(num_items * width, 0.0);
  for (size_t i = 0; i < num_items; ++i) {
    if (sizes[assignments[i]] <= 1) continue;  // s(i) = 0 needs no sums
    for (size_t j = 0; j < num_items; ++j) {
      if (j == i) continue;
      sums[i * width + assignments[j]] += distance(i, j);
    }
  }
  return MeanSilhouette(assignments, sizes, sums);
}

StatusOr<double> SilhouetteScore(const std::vector<FeatureVector>& points,
                                 const std::vector<size_t>& assignments) {
  return SilhouetteScore(points.size(), assignments,
                         [&points](size_t i, size_t j) {
                           return EuclideanDistance(points[i], points[j]);
                         });
}

StatusOr<SilhouetteSweepResult> ChooseKBySilhouette(
    const std::vector<FeatureVector>& points, size_t min_k, size_t max_k,
    Rng* rng) {
  if (points.size() < 2) {
    return Status::InvalidArgument("silhouette sweep needs >= 2 points");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("silhouette sweep requires an Rng");
  }
  min_k = std::max<size_t>(2, min_k);
  max_k = std::min(max_k, points.size() - 1);
  if (min_k > max_k) max_k = min_k;

  // Fit every candidate k first, in ascending k on the one random stream.
  struct Fit {
    size_t k = 0;
    std::vector<size_t> assignments;
    std::vector<size_t> sizes;
    std::vector<double> sums;  // n x sizes.size(): item i's sum to cluster c
  };
  const size_t n = points.size();
  std::vector<Fit> fits;
  fits.reserve(max_k - min_k + 1);
  for (size_t k = min_k; k <= max_k; ++k) {
    KMeansOptions options;
    options.k = k;
    VZ_ASSIGN_OR_RETURN(KMeansResult km, KMeans(points, options, rng));
    Fit fit;
    fit.k = k;
    fit.sizes = ClusterSizes(km.assignments);
    fit.sums.assign(n * fit.sizes.size(), 0.0);
    fit.assignments = std::move(km.assignments);
    fits.push_back(std::move(fit));
  }

  // One pass over the unordered pairs feeds every fit's sums. Item x
  // receives d(i, x) for i < x (earlier outer rounds) and then d(x, j) for
  // j > x, i.e. in ascending partner order exactly as `SilhouetteScore`
  // adds them; and d(i, j) == d(j, i) bit for bit (the kernel squares
  // a - b and b - a alike), so every score matches the reference exactly.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = EuclideanDistance(points[i], points[j]);
      for (Fit& fit : fits) {
        const size_t width = fit.sizes.size();
        fit.sums[i * width + fit.assignments[j]] += d;
        fit.sums[j * width + fit.assignments[i]] += d;
      }
    }
  }

  SilhouetteSweepResult sweep;
  sweep.best_score = -std::numeric_limits<double>::infinity();
  for (const Fit& fit : fits) {
    const double score = MeanSilhouette(fit.assignments, fit.sizes, fit.sums);
    sweep.scores.emplace_back(fit.k, score);
    if (score > sweep.best_score) {
      sweep.best_score = score;
      sweep.best_k = fit.k;
    }
  }
  return sweep;
}

}  // namespace vz::clustering
