#include "vq/kmeans.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace sgs::vq {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoCentroid = std::numeric_limits<std::uint32_t>::max();

// Relative margin on the Euclidean Hamerly bounds: far above the
// ~dim * 2^-53 rounding of a double distance, far below any gap worth
// pruning on.
constexpr double kBoundMargin = 1e-9;

// The grid search serves dims up to this; higher dims take Hamerly.
constexpr std::size_t kGridMaxDim = 4;

// Target centroids per grid cell.
constexpr double kGridFill = 2.0;

// Below this many coordinates per k-means++ round, one pool dispatch per
// centroid costs more than the min-d² update it would split.
constexpr std::size_t kSerialSeedCoords = 64 * 1024;

// Points per parallel work item (seeding update and assignment steps).
constexpr std::size_t kPointBlock = 512;

double sq_dist(const float* a, const float* b, std::size_t dim) {
  double d = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double t = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    d += t * t;
  }
  return d;
}

bool all_finite(const float* v, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}

// Brute-force nearest centroid and its distance: the reference every pruned
// search must equal, and the path for inputs they leave alone (non-finite
// coordinates, whose distances do not order).
std::uint32_t brute_nearest(const float* centroids, std::size_t k,
                            std::size_t dim, const float* v, double& d) {
  const std::uint32_t c = nearest_centroid({centroids, k * dim}, dim, {v, dim});
  d = sq_dist(v, centroids + static_cast<std::size_t>(c) * dim, dim);
  return c;
}

void for_each_block(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(0, (n + kPointBlock - 1) / kPointBlock, [&](std::size_t blk) {
    const std::size_t b = blk * kPointBlock;
    fn(b, std::min(n, b + kPointBlock));
  });
}

// k-means++ seeding over the (possibly subsampled) training set. The
// min-d² update is elementwise, so it may run in parallel; the total and
// the pick stay serial scans in index order.
std::vector<float> seed_centroids(const float* data, std::size_t n,
                                  std::size_t dim, std::uint32_t k, Rng& rng) {
  std::vector<float> centroids(static_cast<std::size_t>(k) * dim);
  std::vector<double> min_d2(n, kInf);
  const bool fused = n * dim < kSerialSeedCoords;

  std::size_t first = rng.uniform_index(n);
  std::copy_n(data + first * dim, dim, centroids.begin());
  for (std::uint32_t c = 1; c < k; ++c) {
    const float* prev = centroids.data() + static_cast<std::size_t>(c - 1) * dim;
    double total = 0.0;
    if (fused) {
      for (std::size_t i = 0; i < n; ++i) {
        min_d2[i] = std::min(min_d2[i], sq_dist(data + i * dim, prev, dim));
        total += min_d2[i];
      }
    } else {
      for_each_block(n, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          min_d2[i] = std::min(min_d2[i], sq_dist(data + i * dim, prev, dim));
        }
      });
      for (std::size_t i = 0; i < n; ++i) total += min_d2[i];
    }
    // Sample proportional to squared distance; degenerate data falls back
    // to uniform.
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.uniform_index(n);
    }
    std::copy_n(data + pick * dim, dim,
                centroids.begin() + static_cast<std::size_t>(c) * dim);
  }
  return centroids;
}

// Update step: every centroid with points moves to their mean, summed in
// double in point order; dead centroids stay where they are.
void update_centroids(const float* points, std::size_t n, std::size_t dim,
                      const std::uint32_t* assignment, std::size_t k,
                      float* centroids) {
  std::vector<double> sums(k * dim, 0.0);
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t c = assignment[i];
    ++counts[c];
    double* s = sums.data() + static_cast<std::size_t>(c) * dim;
    const float* p = points + i * dim;
    for (std::size_t d = 0; d < dim; ++d) s[d] += p[d];
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    float* ctr = centroids + c * dim;
    const double* s = sums.data() + c * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      ctr[d] = static_cast<float>(s[d] / static_cast<double>(counts[c]));
    }
  }
}

// ------------------------------------------------------------ grid search --

// Exact nearest-centroid search for dim <= kGridMaxDim. Centroids are
// bucketed into a grid whose per-axis cell boundaries are quantiles of the
// centroid coordinates, so skewed books (log-normal scales) still spread
// over the cells. The search walks outward from the query's cell axis by
// axis, branch-and-bound on a partial lower bound.
//
// Every bound comes from the centroids' own float coordinates, not from
// the nominal cell geometry, and is summed with the distance's own
// operations in the same dimension order: for a centroid c in a pruned
// region, fl(c_d - v_d) is at least the bound's gap on each axis (rounding
// is monotone), so each squared term, and each partial sum, is at least the
// bound's. A region is skipped only when that bound is strictly greater
// than the best distance so far, so no winner and no tie is ever skipped.
class CentroidGrid {
 public:
  CentroidGrid(const float* centroids, std::size_t k, std::size_t dim)
      : dim_(dim) {
    assert(dim >= 1 && dim <= kGridMaxDim && k >= 1);
    const auto per_axis = static_cast<std::size_t>(std::max(
        1.0, std::round(std::pow(static_cast<double>(k) / kGridFill,
                                 1.0 / static_cast<double>(dim)))));
    std::vector<float> xs(k);
    std::size_t cells = 1;
    for (std::size_t a = 0; a < dim; ++a) {
      for (std::size_t c = 0; c < k; ++c) xs[c] = centroids[c * dim + a];
      std::sort(xs.begin(), xs.end());
      auto& bounds = bounds_[a];
      for (std::size_t j = 1; j < per_axis; ++j) {
        const float b = xs[j * k / per_axis];
        if (b > xs.front() && (bounds.empty() || b > bounds.back())) {
          bounds.push_back(b);
        }
      }
      stride_[a] = cells;
      cells *= bounds.size() + 1;
    }

    // Cells in CSR order; a stable fill keeps each cell's ids ascending.
    std::vector<std::size_t> cell_of(k, 0);
    cell_start_.assign(cells + 1, 0);
    for (std::size_t a = 0; a < dim; ++a) {
      const std::size_t slabs = bounds_[a].size() + 1;
      slab_lo_[a].assign(slabs, std::numeric_limits<float>::infinity());
      slab_hi_[a].assign(slabs, -std::numeric_limits<float>::infinity());
    }
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t a = 0; a < dim; ++a) {
        const float x = centroids[c * dim + a];
        const std::size_t s = slab(a, x);
        slab_lo_[a][s] = std::min(slab_lo_[a][s], x);
        slab_hi_[a][s] = std::max(slab_hi_[a][s], x);
        cell_of[c] += s * stride_[a];
      }
      ++cell_start_[cell_of[c] + 1];
    }
    for (std::size_t i = 0; i < cells; ++i) cell_start_[i + 1] += cell_start_[i];
    ids_.resize(k);
    coords_.resize(k * dim);
    std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
    for (std::size_t c = 0; c < k; ++c) {
      const std::uint32_t at = fill[cell_of[c]]++;
      ids_[at] = static_cast<std::uint32_t>(c);
      std::copy_n(centroids + c * dim, dim, coords_.begin() + at * dim);
    }

    // Bounds over whole sides: above_lo_[a][s] is the least coordinate in
    // slabs >= s, below_hi_[a][s] the greatest in slabs < s.
    for (std::size_t a = 0; a < dim; ++a) {
      const std::size_t slabs = bounds_[a].size() + 1;
      above_lo_[a].assign(slabs + 1, std::numeric_limits<float>::infinity());
      below_hi_[a].assign(slabs + 1, -std::numeric_limits<float>::infinity());
      for (std::size_t s = slabs; s-- > 0;) {
        above_lo_[a][s] = std::min(above_lo_[a][s + 1], slab_lo_[a][s]);
      }
      for (std::size_t s = 0; s < slabs; ++s) {
        below_hi_[a][s + 1] = std::max(below_hi_[a][s], slab_hi_[a][s]);
      }
    }
  }

  // Nearest centroid to the finite vector v and its sq_dist. `hint` (an
  // index, or kNoCentroid) only seeds the best distance so far.
  std::uint32_t nearest(const float* v, const float* centroids,
                        std::uint32_t hint, double& best_d) const {
    Query q{v, {}, kNoCentroid, kInf};
    if (hint != kNoCentroid) {
      q.best = hint;
      q.best_d = sq_dist(centroids + static_cast<std::size_t>(hint) * dim_, v, dim_);
    }
    for (std::size_t a = 0; a < dim_; ++a) q.home[a] = slab(a, v[a]);
    search(q, 0, 0, 0.0);
    best_d = q.best_d;
    return q.best;
  }

 private:
  struct Query {
    const float* v;
    std::array<std::size_t, kGridMaxDim> home;
    std::uint32_t best;
    double best_d;
  };

  std::size_t slab(std::size_t a, float x) const {
    return static_cast<std::size_t>(
        std::upper_bound(bounds_[a].begin(), bounds_[a].end(), x) -
        bounds_[a].begin());
  }

  // Adds one axis's squared gap to a partial bound, in distance order.
  static double extend(double partial, double gap) { return partial + gap * gap; }

  void search(Query& q, std::size_t a, std::size_t cell, double partial) const {
    if (a == dim_) {
      for (std::uint32_t j = cell_start_[cell]; j < cell_start_[cell + 1]; ++j) {
        const double d = sq_dist(coords_.data() + static_cast<std::size_t>(j) * dim_,
                                 q.v, dim_);
        if (d < q.best_d || (d == q.best_d && ids_[j] < q.best)) {
          q.best_d = d;
          q.best = ids_[j];
        }
      }
      return;
    }
    const double x = q.v[a];
    const std::size_t slabs = bounds_[a].size() + 1;
    const std::size_t home = q.home[a];
    visit(q, a, cell, partial, home);
    // Outward on both sides, alternating, until everything left on a side
    // is bounded strictly beyond the best distance.
    std::size_t up = home + 1, down = home;
    bool up_open = up < slabs, down_open = down > 0;
    while (up_open || down_open) {
      if (up_open) {
        if (extend(partial, static_cast<double>(above_lo_[a][up]) - x) > q.best_d) {
          up_open = false;
        } else {
          visit(q, a, cell, partial, up);
          up_open = ++up < slabs;
        }
      }
      if (down_open) {
        if (extend(partial, x - static_cast<double>(below_hi_[a][down])) > q.best_d) {
          down_open = false;
        } else {
          visit(q, a, cell, partial, --down);
          down_open = down > 0;
        }
      }
    }
  }

  void visit(Query& q, std::size_t a, std::size_t cell, double partial,
             std::size_t s) const {
    const double x = q.v[a];
    const double lo = slab_lo_[a][s], hi = slab_hi_[a][s];
    if (lo > hi) return;  // empty slab
    const double gap = x < lo ? lo - x : (x > hi ? x - hi : 0.0);
    const double bound = extend(partial, gap);
    if (bound > q.best_d) return;
    search(q, a + 1, cell + s * stride_[a], bound);
  }

  std::size_t dim_;
  // Strictly ascending; slab s of an axis holds bounds[s-1] <= x < bounds[s].
  std::array<std::vector<float>, kGridMaxDim> bounds_;
  std::array<std::size_t, kGridMaxDim> stride_{};
  // Actual coordinate range of each slab's centroids (lo > hi when empty).
  std::array<std::vector<float>, kGridMaxDim> slab_lo_, slab_hi_;
  std::array<std::vector<float>, kGridMaxDim> above_lo_, below_hi_;
  std::vector<std::uint32_t> cell_start_;  // CSR offsets, cells + 1
  std::vector<std::uint32_t> ids_;         // centroid ids in cell order
  std::vector<float> coords_;              // their coordinates, same order
};

// -------------------------------------------------------------- full scan --

// Nearest and second-nearest of a scan. Candidates are ranked by
// (distance, index), so the nearest is brute force's first strict minimum
// in any offer order; second_d bounds every other centroid from below.
struct ScanResult {
  std::uint32_t best = kNoCentroid;
  double best_d = kInf;
  std::uint32_t second = kNoCentroid;
  double second_d = kInf;

  void offer(double d, std::uint32_t c) {
    if (d < best_d || (d == best_d && c < best)) {
      second = best;
      second_d = best_d;
      best = c;
      best_d = d;
    } else if (d < second_d) {
      second = c;
      second_d = d;
    }
  }
};

// Dims between early-abandon checks of the full scan.
constexpr std::size_t kAbandonStride = 9;

// Offers every centroid except the (at most two) already in `r` — whose
// distances the caller measured with sq_dist — to `r`. Four centroids run
// in independent accumulators, each the same scalar sum in dimension order
// as sq_dist. Partial sums of squares never decrease, so a block is
// abandoned once every partial sum exceeds the running second-best: none
// of its centroids can be nearest or second. Seeding `r` with the previous
// nearest and second-nearest makes that bound tight from the first block.
void scan_nearest(const float* centroids, std::size_t k, std::size_t dim,
                  const float* v, ScanResult& r) {
  const std::uint32_t seeded_a = r.best, seeded_b = r.second;
  const auto offer = [&](double d, std::size_t c) {
    const auto id = static_cast<std::uint32_t>(c);
    if (id != seeded_a && id != seeded_b) r.offer(d, id);
  };
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    const float* c0 = centroids + c * dim;
    const float* c1 = c0 + dim;
    const float* c2 = c1 + dim;
    const float* c3 = c2 + dim;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    bool abandoned = false;
    for (std::size_t i = 0; i < dim;) {
      const std::size_t end = std::min(dim, i + kAbandonStride);
      for (; i < end; ++i) {
        const double x = v[i];
        const double t0 = static_cast<double>(c0[i]) - x;
        const double t1 = static_cast<double>(c1[i]) - x;
        const double t2 = static_cast<double>(c2[i]) - x;
        const double t3 = static_cast<double>(c3[i]) - x;
        s0 += t0 * t0;
        s1 += t1 * t1;
        s2 += t2 * t2;
        s3 += t3 * t3;
      }
      if (i < dim && s0 > r.second_d && s1 > r.second_d && s2 > r.second_d &&
          s3 > r.second_d) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    offer(s0, c);
    offer(s1, c + 1);
    offer(s2, c + 2);
    offer(s3, c + 3);
  }
  for (; c < k; ++c) offer(sq_dist(centroids + c * dim, v, dim), c);
}

// ------------------------------------------------------------ Lloyd steps --

// Lloyd's assignment and update steps over one point set, carrying the
// search state from step to step: the previous assignment seeds the grid
// search, and (dim > kGridMaxDim) Hamerly bounds skip points whose
// assignment provably cannot change. Training iterations, the final
// full-data assignment and the refinement passes all run through here.
class LloydSteps {
 public:
  LloydSteps(const float* points, std::size_t n, std::size_t dim,
             std::vector<float>& centroids)
      : points_(points),
        n_(n),
        dim_(dim),
        k_(centroids.size() / dim),
        centroids_(centroids),
        assignment_(n, 0),
        dist_(n, 0.0) {}

  // Assignment step (parallel over points). Returns the inertia, summed per
  // chunk of ceil(n / parallelism()) points in chunk order, as the
  // brute-force reference does: the tol stop depends on its rounding.
  double assign() {
    if (dim_ <= kGridMaxDim) {
      assign_grid();
    } else {
      assign_hamerly();
    }
    assigned_ = true;
    const std::size_t parts = static_cast<std::size_t>(parallelism());
    const std::size_t chunk = (n_ + parts - 1) / parts;
    double inertia = 0.0;
    for (std::size_t t = 0; t < parts; ++t) {
      const std::size_t b = t * chunk;
      const std::size_t e = std::min(n_, b + chunk);
      double local = 0.0;
      for (std::size_t i = b; i < e; ++i) local += dist_[i];
      inertia += local;
    }
    return inertia;
  }

  // Update step (serial, deterministic).
  void update() {
    if (bounds_valid_) prev_centroids_ = centroids_;
    update_centroids(points_, n_, dim_, assignment_.data(), k_, centroids_.data());
    if (bounds_valid_) loosen_bounds();
  }

  std::vector<std::uint32_t> take_assignment() { return std::move(assignment_); }

 private:
  const float* point(std::size_t i) const { return points_ + i * dim_; }

  void assign_grid() {
    const float* ctr = centroids_.data();
    std::optional<CentroidGrid> grid;
    if (all_finite(ctr, centroids_.size())) grid.emplace(ctr, k_, dim_);
    for_each_block(n_, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const float* x = point(i);
        assignment_[i] =
            grid && all_finite(x, dim_)
                ? grid->nearest(x, ctr, assigned_ ? assignment_[i] : kNoCentroid,
                                dist_[i])
                : brute_nearest(ctr, k_, dim_, x, dist_[i]);
      }
    });
  }

  void assign_hamerly() {
    const float* ctr = centroids_.data();
    if (lower_.empty()) {
      lower_.assign(n_, 0.0);
      second_.assign(n_, kNoCentroid);
    }
    if (bounds_valid_) compute_half_gaps();
    for_each_block(n_, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        const float* x = point(i);
        ScanResult s;
        if (bounds_valid_) {
          // Every other centroid is provably strictly farther: keep.
          const std::uint32_t a = assignment_[i];
          const double d = sq_dist(x, ctr + static_cast<std::size_t>(a) * dim_, dim_);
          if (std::sqrt(d) * (1.0 + kBoundMargin) <
              std::max(lower_[i], half_gap_[a])) {
            dist_[i] = d;
            continue;
          }
          s.offer(d, a);
          const std::uint32_t b = second_[i];
          if (b != kNoCentroid && b != a) {
            s.offer(sq_dist(x, ctr + static_cast<std::size_t>(b) * dim_, dim_), b);
          }
        }
        scan_nearest(ctr, k_, dim_, x, s);
        if (s.best_d < kInf) {
          assignment_[i] = s.best;
          dist_[i] = s.best_d;
          second_[i] = s.second;
          lower_[i] = std::sqrt(s.second_d) * (1.0 - kBoundMargin);
        } else {
          assignment_[i] = brute_nearest(ctr, k_, dim_, x, dist_[i]);
          second_[i] = kNoCentroid;
          lower_[i] = 0.0;
        }
      }
    });
    bounds_valid_ = true;
  }

  // half_gap_[c]: a lower bound on half the distance from centroid c to its
  // nearest other centroid. A point within it of c is nearer c than any
  // other centroid (Hamerly's s(c)).
  void compute_half_gaps() {
    half_gap_.resize(k_);
    const float* ctr = centroids_.data();
    parallel_for(0, k_, [&](std::size_t c) {
      double m = kInf;
      for (std::size_t o = 0; o < k_; ++o) {
        if (o != c) m = std::min(m, sq_dist(ctr + c * dim_, ctr + o * dim_, dim_));
      }
      half_gap_[c] = 0.5 * std::sqrt(m) * (1.0 - kBoundMargin);
    });
  }

  // After an update, each lower bound drops by the farthest move of any
  // centroid other than the point's own (the two largest moves suffice).
  void loosen_bounds() {
    std::vector<double> move(k_);
    std::size_t far = 0;
    for (std::size_t c = 0; c < k_; ++c) {
      move[c] = std::sqrt(sq_dist(prev_centroids_.data() + c * dim_,
                                  centroids_.data() + c * dim_, dim_)) *
                (1.0 + kBoundMargin);
      if (move[c] > move[far]) far = c;
    }
    double second = 0.0;
    for (std::size_t c = 0; c < k_; ++c) {
      if (c != far) second = std::max(second, move[c]);
    }
    for (std::size_t i = 0; i < n_; ++i) {
      const double m = assignment_[i] == far ? second : move[far];
      lower_[i] = (lower_[i] - m) * (1.0 - kBoundMargin);
    }
  }

  const float* points_;
  std::size_t n_, dim_, k_;
  std::vector<float>& centroids_;
  std::vector<std::uint32_t> assignment_;
  std::vector<double> dist_;  // sq_dist of each point to its centroid
  bool assigned_ = false;     // assignment_ holds an earlier step's result

  // Hamerly state (dim > kGridMaxDim).
  bool bounds_valid_ = false;  // lower_ bounds the current centroids
  std::vector<double> lower_;  // per point: Euclidean lower bound on the
                               // distance to every other centroid
  std::vector<std::uint32_t> second_;  // per point: last scan's runner-up
  std::vector<double> half_gap_;
  std::vector<float> prev_centroids_;
};

}  // namespace

std::uint32_t nearest_centroid(std::span<const float> centroids, std::size_t dim,
                               std::span<const float> v) {
  assert(dim > 0 && centroids.size() % dim == 0 && v.size() == dim);
  const std::size_t k = centroids.size() / dim;
  std::uint32_t best = 0;
  double best_d = kInf;
  for (std::size_t c = 0; c < k; ++c) {
    const double d = sq_dist(centroids.data() + c * dim, v.data(), dim);
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

void assign_nearest(std::span<const float> centroids, std::size_t dim,
                    std::span<const float> points,
                    std::span<std::uint32_t> out) {
  assert(dim > 0 && centroids.size() % dim == 0 && !centroids.empty() &&
         points.size() % dim == 0 && out.size() == points.size() / dim);
  std::vector<float> book(centroids.begin(), centroids.end());
  LloydSteps steps(points.data(), out.size(), dim, book);
  steps.assign();
  const std::vector<std::uint32_t> assignment = steps.take_assignment();
  std::copy(assignment.begin(), assignment.end(), out.begin());
}

KMeansResult kmeans_refined(std::span<const float> data, std::size_t dim,
                            const KMeansConfig& config, int refine_passes) {
  assert(dim > 0 && data.size() % dim == 0 && !data.empty());
  const std::size_t n = data.size() / dim;
  const std::uint32_t k = std::min<std::uint32_t>(
      config.k, static_cast<std::uint32_t>(std::min<std::size_t>(
                    n, std::numeric_limits<std::uint32_t>::max())));

  Rng rng(config.seed);

  // Training subsample (evenly strided so all regions are represented).
  std::vector<float> train_storage;
  const float* train = data.data();
  std::size_t train_n = n;
  if (config.max_train_samples > 0 && n > config.max_train_samples) {
    train_n = config.max_train_samples;
    train_storage.resize(train_n * dim);
    const double stride = static_cast<double>(n) / static_cast<double>(train_n);
    for (std::size_t i = 0; i < train_n; ++i) {
      const std::size_t src = static_cast<std::size_t>(static_cast<double>(i) * stride);
      std::copy_n(data.data() + src * dim, dim, train_storage.begin() + i * dim);
    }
    train = train_storage.data();
  }

  KMeansResult result;
  result.dim = dim;
  {
    SGS_TRACE_SPAN("vq", "kmeans_seed", "dim", dim, "k", k);
    result.centroids = seed_centroids(train, train_n, dim, k, rng);
  }

  LloydSteps train_steps(train, train_n, dim, result.centroids);
  {
    SGS_TRACE_SPAN("vq", "lloyd", "dim", dim, "k", k);
    double prev_inertia = kInf;
    for (int iter = 0; iter < config.max_iters; ++iter) {
      const double inertia = train_steps.assign();
      train_steps.update();
      result.iters_run = iter + 1;
      if (prev_inertia < kInf &&
          prev_inertia - inertia <= config.tol * std::max(1.0, prev_inertia)) {
        break;
      }
      prev_inertia = inertia;
    }
  }

  // Final full assignment, then the refinement passes. Without a subsample
  // the training steps' search state carries straight over.
  SGS_TRACE_SPAN("vq", "assign_refine", "dim", dim, "k", k);
  std::optional<LloydSteps> full_steps;
  LloydSteps& full = train == data.data()
                         ? train_steps
                         : full_steps.emplace(data.data(), n, dim, result.centroids);
  result.inertia = full.assign();
  for (int r = 0; r < refine_passes; ++r) {
    full.update();
    result.inertia = full.assign();
  }
  result.assignment = full.take_assignment();
  return result;
}

KMeansResult kmeans(std::span<const float> data, std::size_t dim,
                    const KMeansConfig& config) {
  return kmeans_refined(data, dim, config, 0);
}

}  // namespace sgs::vq
