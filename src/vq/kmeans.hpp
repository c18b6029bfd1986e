// Lloyd's k-means with k-means++ seeding over flat float vectors.
//
// Used to train the per-parameter-group codebooks of the paper's vector
// quantization (Sec. III-C).
//
// Contract: the output is bit-identical to the brute-force reference —
// k-means++ seeding, then Lloyd steps that assign every point to the first
// strict minimum of nearest_centroid()'s distance and move each centroid to
// the mean of its points — with the same centroids, assignments and
// iters_run, at every pool width. Assignments are per-point decisions, and
// the centroid update and the seeding total and pick scans run serially in
// index order, so none depends on the thread count. The pool width enters
// only the inertia behind the `tol` stop, summed per chunk of
// ceil(n / parallelism()) points in chunk order exactly as the reference
// sums it; results differ between widths only where a stop decision sits
// within rounding of its threshold (tests/test_vq.cpp pins the goldens at
// widths 1 and 4).
//
// The nearest-centroid searches are exact and pruned. Every distance that
// decides an assignment is the same scalar double sum over dimensions in
// index order, ties go to the lowest centroid index, and a centroid is
// skipped only when a bound shows it strictly worse:
//   dim <= 4 (the scale, rotation and DC books): a centroid grid whose
//     per-axis cell boundaries are quantiles of the centroid coordinates,
//     searched branch-and-bound from the query's cell. Its bounds are built
//     from the centroids' own coordinates with the distance's own
//     operations, so by monotone rounding they never exceed it.
//   dim > 4 (the 45-D SH book): Hamerly upper/lower bounds, carried from
//     one Lloyd step to the next, keep points whose assignment provably
//     cannot change (with a 1e-9 relative margin on the Euclidean bounds);
//     the rest are rescanned four centroids at a time, starting from the
//     previous nearest and runner-up, abandoning a block once every
//     partial sum exceeds the running second-best.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sgs::vq {

struct KMeansConfig {
  std::uint32_t k = 256;
  int max_iters = 10;
  // Training subsample cap: k-means++ and Lloyd run on at most this many
  // points (the final assignment always covers all points). 0 = no cap.
  std::size_t max_train_samples = 65536;
  double tol = 1e-5;  // relative inertia improvement to keep iterating
  std::uint64_t seed = 42;
};

struct KMeansResult {
  std::size_t dim = 0;
  std::vector<float> centroids;           // k * dim
  std::vector<std::uint32_t> assignment;  // one per input point
  double inertia = 0.0;                   // sum of squared distances
  int iters_run = 0;
};

// data.size() must be a multiple of dim. Requires at least one point.
KMeansResult kmeans(std::span<const float> data, std::size_t dim,
                    const KMeansConfig& config);

// kmeans() followed by `refine_passes` full-data Lloyd passes (move every
// centroid to the mean of its points, then reassign all points), the
// quantization-aware refinement of QuantizedModel::build. The search state
// of the final assignment carries into the passes. `inertia` is that of the
// returned assignment; iters_run counts the training iterations only.
KMeansResult kmeans_refined(std::span<const float> data, std::size_t dim,
                            const KMeansConfig& config, int refine_passes);

// Nearest centroid index for a single vector (brute force).
std::uint32_t nearest_centroid(std::span<const float> centroids, std::size_t dim,
                               std::span<const float> v);

// Nearest centroid for every vector of `points`: one assignment step of the
// pruned Lloyd engine (no bounds from an earlier step yet), parallel over
// points. out[i] equals nearest_centroid(centroids, dim, point i).
void assign_nearest(std::span<const float> centroids, std::size_t dim,
                    std::span<const float> points,
                    std::span<std::uint32_t> out);

}  // namespace sgs::vq
