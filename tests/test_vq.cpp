// Tests for vector quantization: k-means properties, codebooks, and the
// quantized Gaussian model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gs/sh.hpp"
#include "obs/trace.hpp"
#include "scene/generator.hpp"
#include "scene/presets.hpp"
#include "vq/codebook.hpp"
#include "vq/kmeans.hpp"
#include "vq/quantized_model.hpp"

namespace sgs::vq {
namespace {

std::vector<float> clustered_data(std::size_t n, std::size_t dim, int clusters,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(static_cast<std::size_t>(clusters),
                                          std::vector<float>(dim));
  for (auto& c : centers)
    for (auto& v : c) v = rng.uniform(-10.0f, 10.0f);
  std::vector<float> data;
  data.reserve(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.uniform_index(static_cast<std::uint64_t>(clusters))];
    for (std::size_t d = 0; d < dim; ++d) data.push_back(c[d] + rng.normal(0.0f, 0.3f));
  }
  return data;
}

double quantization_error(std::span<const float> data, std::size_t dim,
                          const KMeansResult& r) {
  double err = 0.0;
  const std::size_t n = data.size() / dim;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      const double t = data[i * dim + d] -
                       r.centroids[static_cast<std::size_t>(r.assignment[i]) * dim + d];
      err += t * t;
    }
  }
  return err;
}

// ----------------------------------------------------------------- kmeans --

TEST(KMeans, AssignmentIsNearestCentroid) {
  const auto data = clustered_data(500, 3, 8, 1);
  KMeansConfig cfg;
  cfg.k = 8;
  cfg.seed = 2;
  const KMeansResult r = kmeans(data, 3, cfg);
  for (std::size_t i = 0; i < 500; ++i) {
    const std::uint32_t nearest =
        nearest_centroid(r.centroids, 3, {data.data() + i * 3, 3});
    EXPECT_EQ(r.assignment[i], nearest) << i;
  }
}

TEST(KMeans, InertiaMatchesAssignment) {
  const auto data = clustered_data(300, 4, 5, 3);
  KMeansConfig cfg;
  cfg.k = 5;
  const KMeansResult r = kmeans(data, 4, cfg);
  EXPECT_NEAR(r.inertia, quantization_error(data, 4, r), 1e-3 * (1.0 + r.inertia));
}

TEST(KMeans, RecoversWellSeparatedClusters) {
  // Four tight clusters on far-apart lattice corners: inertia per point
  // must be on the order of the noise variance, not the separation.
  const float centers[4][3] = {
      {-8, -8, -8}, {8, 8, 8}, {-8, 8, 8}, {8, -8, -8}};
  Rng rng(5);
  std::vector<float> data;
  for (int i = 0; i < 2000; ++i) {
    const auto& c = centers[rng.uniform_index(4)];
    for (int d = 0; d < 3; ++d) data.push_back(c[d] + rng.normal(0.0f, 0.3f));
  }
  KMeansConfig cfg;
  cfg.k = 4;
  cfg.max_iters = 20;
  const KMeansResult r = kmeans(data, 3, cfg);
  EXPECT_LT(r.inertia / 2000.0, 3 * 0.3 * 0.3 * 4.0);
}

TEST(KMeans, DeterministicForSeed) {
  const auto data = clustered_data(400, 3, 6, 7);
  KMeansConfig cfg;
  cfg.k = 6;
  cfg.seed = 99;
  const KMeansResult a = kmeans(data, 3, cfg);
  const KMeansResult b = kmeans(data, 3, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.centroids, b.centroids);
}

TEST(KMeans, KLargerThanNClamped) {
  std::vector<float> data = {0.0f, 1.0f, 2.0f};  // 3 points, dim 1
  KMeansConfig cfg;
  cfg.k = 10;
  const KMeansResult r = kmeans(data, 1, cfg);
  EXPECT_LE(r.centroids.size(), 3u);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeans, SinglePoint) {
  std::vector<float> data = {3.0f, -1.0f};
  KMeansConfig cfg;
  cfg.k = 1;
  const KMeansResult r = kmeans(data, 2, cfg);
  EXPECT_FLOAT_EQ(r.centroids[0], 3.0f);
  EXPECT_FLOAT_EQ(r.centroids[1], -1.0f);
}

// Quantization error must shrink (weakly) as the codebook grows.
class CodebookSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodebookSizeSweep, ErrorMonotoneInK) {
  const auto data = clustered_data(1500, 4, 32, GetParam());
  double prev = 1e300;
  for (std::uint32_t k : {2u, 8u, 32u, 128u}) {
    KMeansConfig cfg;
    cfg.k = k;
    cfg.max_iters = 15;
    cfg.seed = GetParam() * 7 + k;
    const KMeansResult r = kmeans(data, 4, cfg);
    // Allow a small tolerance: k-means is a local optimizer.
    EXPECT_LT(r.inertia, prev * 1.05) << "k=" << k;
    prev = r.inertia;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodebookSizeSweep, ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------- codebook --

TEST(Codebook, IndexBits) {
  EXPECT_EQ(Codebook(1, std::vector<float>(4096)).index_bits(), 12);  // 4096 entries
  EXPECT_EQ(Codebook(1, std::vector<float>(512)).index_bits(), 9);
  EXPECT_EQ(Codebook(1, std::vector<float>(2)).index_bits(), 1);
  EXPECT_EQ(Codebook(1, std::vector<float>(3)).index_bits(), 2);
}

TEST(Codebook, BytesAndEntryAccess) {
  std::vector<float> entries = {1, 2, 3, 4, 5, 6};
  const Codebook cb(3, entries);
  EXPECT_EQ(cb.size(), 2u);
  EXPECT_EQ(cb.bytes(), 24u);
  EXPECT_FLOAT_EQ(cb.entry(1)[0], 4.0f);
  EXPECT_EQ(cb.nearest(std::vector<float>{1.1f, 2.1f, 2.9f}), 0u);
  EXPECT_EQ(cb.nearest(std::vector<float>{4.2f, 4.9f, 6.3f}), 1u);
}

TEST(Codebook, TrainProducesConsistentAssignments) {
  const auto data = clustered_data(800, 3, 10, 11);
  KMeansConfig cfg;
  cfg.k = 10;
  const TrainedCodebook tc = train_codebook(data, 3, cfg);
  EXPECT_EQ(tc.assignment.size(), 800u);
  for (std::size_t i = 0; i < 800; ++i) {
    EXPECT_EQ(tc.assignment[i], tc.codebook.nearest({data.data() + i * 3, 3}));
  }
}

// --------------------------------------------------------- quantized model --

gs::GaussianModel test_model(std::size_t n = 3000) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = 77;
  return scene::generate_scene(cfg);
}

VqConfig small_vq() {
  VqConfig v;
  v.scale_entries = 256;
  v.rotation_entries = 256;
  v.dc_entries = 256;
  v.sh_entries = 64;
  v.kmeans_iters = 6;
  v.max_train_samples = 4096;
  return v;
}

TEST(QuantizedModel, PositionsAndOpacityExact) {
  const auto model = test_model();
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  ASSERT_EQ(qm.size(), model.size());
  for (std::uint32_t i = 0; i < model.size(); i += 97) {
    const gs::Gaussian d = qm.decode(i);
    EXPECT_EQ(d.position, model.gaussians[i].position);
    EXPECT_FLOAT_EQ(d.opacity, model.gaussians[i].opacity);
  }
}

TEST(QuantizedModel, DecodedScaleNearOriginal) {
  const auto model = test_model();
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  double rel_err = 0.0;
  for (std::uint32_t i = 0; i < model.size(); ++i) {
    const gs::Gaussian d = qm.decode(i);
    rel_err += std::abs(d.max_scale() - model.gaussians[i].max_scale()) /
               (model.gaussians[i].max_scale() + 1e-9f);
  }
  EXPECT_LT(rel_err / static_cast<double>(model.size()), 0.25);
}

TEST(QuantizedModel, CoarseMaxScaleMatchesDecoded) {
  // The conservativeness of the coarse filter under VQ depends on the
  // coarse stream carrying the *decoded* max scale.
  const auto model = test_model(1000);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  for (std::uint32_t i = 0; i < qm.size(); ++i) {
    EXPECT_FLOAT_EQ(qm.coarse_max_scale(i), qm.decode(i).max_scale());
  }
}

TEST(QuantizedModel, PaperConfigCodebookFootprint) {
  // 4096 x (3+4+3) floats + 512 x 45 floats = 256 KB within the paper's
  // 250 KB codebook buffer (the paper rounds; we assert the ballpark).
  const double kb = (4096.0 * (3 + 4 + 3) * 4 + 512.0 * 45 * 4) / 1024.0;
  EXPECT_NEAR(kb, 250.0, 10.0);
}

TEST(QuantizedModel, IndexBitsPerGaussian) {
  // Paper codebook sizes need at least 4096 training vectors per group.
  const auto model = test_model(8000);
  VqConfig v;  // paper config: 4096/4096/4096/512 entries
  v.kmeans_iters = 1;
  v.refine_iters = 0;
  v.max_train_samples = 8192;
  const QuantizedModel qm = QuantizedModel::build(model, v);
  // 12 + 12 + 12 + 9 = 45 bits of indices per Gaussian (paper Sec. III-C).
  EXPECT_EQ(qm.index_bits_per_gaussian(), 45);
}

TEST(QuantizedModel, LargerCodebooksReduceError) {
  const auto model = test_model(4000);
  auto decode_err = [&](const VqConfig& v) {
    const QuantizedModel qm = QuantizedModel::build(model, v);
    double err = 0.0;
    for (std::uint32_t i = 0; i < qm.size(); ++i) {
      const gs::Gaussian d = qm.decode(i);
      const gs::Gaussian& o = model.gaussians[i];
      err += (d.sh[0] - o.sh[0]).norm2();
      err += (d.scale - o.scale).norm2();
    }
    return err;
  };
  VqConfig small = small_vq();
  small.dc_entries = 32;
  small.scale_entries = 32;
  VqConfig big = small_vq();
  big.dc_entries = 1024;
  big.scale_entries = 1024;
  EXPECT_LT(decode_err(big), decode_err(small));
}

TEST(QuantizedModel, DecodeAllMatchesDecode) {
  const auto model = test_model(500);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  const gs::GaussianModel all = qm.decode_all();
  ASSERT_EQ(all.size(), qm.size());
  for (std::uint32_t i = 0; i < qm.size(); i += 53) {
    const gs::Gaussian a = qm.decode(i);
    EXPECT_EQ(all.gaussians[i].position, a.position);
    EXPECT_EQ(all.gaussians[i].scale, a.scale);
    EXPECT_EQ(all.gaussians[i].sh[0], a.sh[0]);
  }
}

TEST(QuantizedModel, RefinementDoesNotIncreaseDcError) {
  const auto model = test_model(3000);
  auto dc_err = [&](int refine) {
    VqConfig v = small_vq();
    v.refine_iters = refine;
    const QuantizedModel qm = QuantizedModel::build(model, v);
    double err = 0.0;
    for (std::uint32_t i = 0; i < qm.size(); ++i) {
      err += (qm.decode(i).sh[0] - model.gaussians[i].sh[0]).norm2();
    }
    return err;
  };
  // Quantization-aware refinement is a descent step on the same objective.
  EXPECT_LE(dc_err(3), dc_err(0) * 1.02);
}

// ------------------------------------------------------ binary round trips --

TEST(Codebook, BinaryRoundTripIsBitExact) {
  const auto data = clustered_data(2000, 4, 16, 9);
  KMeansConfig kc;
  kc.k = 16;
  kc.seed = 5;
  const TrainedCodebook tc = train_codebook(data, 4, kc);

  std::stringstream buf;
  ASSERT_TRUE(tc.codebook.save(buf));
  const Codebook back = Codebook::load(buf);
  ASSERT_EQ(back.dim(), tc.codebook.dim());
  ASSERT_EQ(back.size(), tc.codebook.size());
  for (std::uint32_t c = 0; c < back.size(); ++c) {
    const auto a = tc.codebook.entry(c);
    const auto b = back.entry(c);
    for (std::size_t d = 0; d < back.dim(); ++d) EXPECT_EQ(a[d], b[d]);
  }
}

TEST(Codebook, LoadRejectsTruncationAndGarbageDims) {
  std::stringstream empty;
  EXPECT_THROW(Codebook::load(empty), std::runtime_error);

  std::stringstream bad;
  const std::uint32_t dim = 0, count = 4;
  bad.write(reinterpret_cast<const char*>(&dim), 4);
  bad.write(reinterpret_cast<const char*>(&count), 4);
  EXPECT_THROW(Codebook::load(bad), std::runtime_error);
}

TEST(QuantizedModel, BinaryRoundTripDecodesBitExact) {
  const auto model = test_model(800);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());

  std::stringstream buf;
  ASSERT_TRUE(qm.save(buf));
  const QuantizedModel back = QuantizedModel::load(buf);
  ASSERT_EQ(back.size(), qm.size());
  EXPECT_EQ(back.codebook_bytes(), qm.codebook_bytes());
  EXPECT_EQ(back.index_bits_per_gaussian(), qm.index_bits_per_gaussian());
  for (std::uint32_t i = 0; i < qm.size(); ++i) {
    const gs::Gaussian a = qm.decode(i);
    const gs::Gaussian b = back.decode(i);
    EXPECT_EQ(a.position, b.position);
    EXPECT_EQ(a.scale, b.scale);
    EXPECT_EQ(a.rotation, b.rotation);
    EXPECT_EQ(a.opacity, b.opacity);
    EXPECT_EQ(a.sh, b.sh);
    // Derived coarse stream matches too (recomputed, not stored).
    EXPECT_EQ(back.coarse_max_scale(i), qm.coarse_max_scale(i));
  }
}

TEST(QuantizedModel, FileRoundTripAndBadInputs) {
  const auto model = test_model(300);
  const QuantizedModel qm = QuantizedModel::build(model, small_vq());
  const std::string path = "/tmp/sgs_test_codec.sgvq";
  ASSERT_TRUE(qm.save_file(path));
  const QuantizedModel back = QuantizedModel::load_file(path);
  EXPECT_EQ(back.size(), qm.size());
  std::remove(path.c_str());

  EXPECT_THROW(QuantizedModel::load_file("/nonexistent/codec.sgvq"),
               std::runtime_error);
  std::stringstream junk;
  junk.write("JUNKJUNKJUNK", 12);
  EXPECT_THROW(QuantizedModel::load(junk), std::runtime_error);
}

// ------------------------------------------------------------ exact search --
//
// The pruned searches must equal brute force point for point, ties and
// rounding included. The inputs aim at the places a bound or a cell index
// could go wrong: duplicate centroids, exact ties, queries on cell
// boundaries and outside the centroids' box, an axis where every centroid
// agrees (zero-width cells), and coordinates near +-1e30.

// Integer lattice in [-span, span]: duplicates and exact ties abound.
std::vector<float> lattice_points(std::size_t n, std::size_t dim, int span, Rng& rng) {
  std::vector<float> v(n * dim);
  for (auto& x : v) {
    x = static_cast<float>(static_cast<int>(rng.uniform_index(2 * span + 1)) - span);
  }
  return v;
}

// Clusters joined by bridges: half the points lie on segments between two
// cluster centres, so many sit near the midpoints where the nearest centroid
// flips as centroids move — where an unsound pruning bound shows.
std::vector<float> bridged_points(std::size_t n, std::size_t dim, int clusters,
                                  Rng& rng) {
  std::vector<float> centers(static_cast<std::size_t>(clusters) * dim);
  for (auto& v : centers) v = rng.uniform(-4.0f, 4.0f);
  std::vector<float> v;
  v.reserve(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* a = centers.data() + rng.uniform_index(clusters) * dim;
    const float* b = centers.data() + rng.uniform_index(clusters) * dim;
    const float t = i % 2 ? rng.uniform() : 0.0f;
    for (std::size_t d = 0; d < dim; ++d) {
      v.push_back(a[d] + t * (b[d] - a[d]) + rng.normal(0.0f, 0.05f));
    }
  }
  return v;
}

std::vector<float> normal_points(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<float> v(n * dim);
  for (auto& x : v) x = rng.normal();
  return v;
}

// Queries against a centroid set: exact centroids, half-integer lattice
// points (equidistant from lattice neighbours), per-axis mixes of centroid
// coordinates (the grid's cell boundaries are centroid coordinates), points
// far outside the centroids' box, and plain random ones.
std::vector<float> adversarial_queries(const std::vector<float>& centroids,
                                       std::size_t dim, std::size_t n, Rng& rng) {
  const std::size_t k = centroids.size() / dim;
  std::vector<float> q;
  q.reserve(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t kind = i % 5;
    const std::size_t c = rng.uniform_index(k);
    for (std::size_t d = 0; d < dim; ++d) {
      const float x = centroids[rng.uniform_index(k) * dim + d];
      switch (kind) {
        case 0: q.push_back(centroids[c * dim + d]); break;
        case 1:
          q.push_back(static_cast<float>(static_cast<int>(rng.uniform_index(9)) - 4) + 0.5f);
          break;
        case 2: q.push_back(x); break;
        case 3: q.push_back(x * 10.0f + (rng.uniform() < 0.5f ? -50.0f : 50.0f)); break;
        default: q.push_back(rng.normal(0.0f, 2.0f)); break;
      }
    }
  }
  return q;
}

// Counts the queries where assign_nearest() disagrees with brute force.
std::size_t search_mismatches(const std::vector<float>& centroids,
                              std::size_t dim, const std::vector<float>& queries) {
  std::vector<std::uint32_t> got(queries.size() / dim);
  assign_nearest(centroids, dim, queries, got);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += got[i] != nearest_centroid(centroids, dim, {queries.data() + i * dim, dim});
  }
  return bad;
}

TEST(ExactSearch, MatchesBruteForceOnAdversarialInputs) {
  Rng rng(2024);
  for (std::size_t dim : {1u, 2u, 3u, 4u, 45u}) {
    for (std::size_t k : {1u, 7u, 300u, 4096u}) {
      const std::size_t n = 250;  // fewer queries than centroids at k >= 300
      // Lattice centroids: many duplicates, exact ties at the midpoints.
      const auto lat = lattice_points(k, dim, 3, rng);
      EXPECT_EQ(search_mismatches(lat, dim, adversarial_queries(lat, dim, n, rng)), 0u)
          << "lattice dim " << dim << " k " << k;

      // A few distinct rows, each repeated: the lowest index must win.
      std::vector<float> dups(k * dim);
      const auto rows = normal_points(3, dim, rng);
      for (std::size_t c = 0; c < k; ++c) {
        std::copy_n(rows.begin() + static_cast<std::ptrdiff_t>((c * 7 % 3) * dim), dim,
                    dups.begin() + static_cast<std::ptrdiff_t>(c * dim));
      }
      EXPECT_EQ(search_mismatches(dups, dim, adversarial_queries(dups, dim, n, rng)), 0u)
          << "duplicates dim " << dim << " k " << k;

      // Every centroid shares one coordinate: zero-width cells on that axis.
      auto flat = normal_points(k, dim, rng);
      for (std::size_t c = 0; c < k; ++c) flat[c * dim + (dim > 1 ? 1 : 0)] = 0.25f;
      EXPECT_EQ(search_mismatches(flat, dim, adversarial_queries(flat, dim, n, rng)), 0u)
          << "flat axis dim " << dim << " k " << k;

      // Coordinates near +-1e30 next to ordinary ones.
      auto huge = normal_points(k, dim, rng);
      for (std::size_t c = 0; c < k; c += 3) {
        huge[c * dim + c % dim] = (c % 2 ? 1e30f : -1e30f) * (1.0f + rng.uniform());
      }
      auto huge_q = adversarial_queries(huge, dim, n, rng);
      for (std::size_t i = 0; i < n; i += 4) huge_q[i * dim] = i % 8 ? 1e30f : -1e30f;
      EXPECT_EQ(search_mismatches(huge, dim, huge_q), 0u)
          << "huge dim " << dim << " k " << k;
    }
  }
}

// The brute-force trainer the pruned one replaced, restated as the
// reference: k-means++ seeding, then Lloyd steps with a nearest_centroid
// assignment, inertia summed per chunk of ceil(n / parallelism()) points.
KMeansResult reference_kmeans(std::span<const float> data, std::size_t dim,
                              const KMeansConfig& config) {
  const auto sq = [dim](const float* a, const float* b) {
    double d = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double t = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      d += t * t;
    }
    return d;
  };
  const std::size_t n = data.size() / dim;
  const std::uint32_t k = std::min<std::uint32_t>(config.k, static_cast<std::uint32_t>(n));
  Rng rng(config.seed);
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
  result.centroids.resize(static_cast<std::size_t>(k) * dim);
  std::vector<double> min_d2(train_n, std::numeric_limits<double>::infinity());
  const std::size_t first = rng.uniform_index(train_n);
  std::copy_n(train + first * dim, dim, result.centroids.begin());
  for (std::uint32_t c = 1; c < k; ++c) {
    const float* prev = result.centroids.data() + static_cast<std::size_t>(c - 1) * dim;
    double total = 0.0;
    for (std::size_t i = 0; i < train_n; ++i) {
      min_d2[i] = std::min(min_d2[i], sq(train + i * dim, prev));
      total += min_d2[i];
    }
    std::size_t pick = 0;
    if (total > 0.0) {
      double r = rng.uniform() * total;
      for (std::size_t i = 0; i < train_n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.uniform_index(train_n);
    }
    std::copy_n(train + pick * dim, dim,
                result.centroids.begin() + static_cast<std::size_t>(c) * dim);
  }

  // One brute-force assignment pass; returns the chunked inertia.
  const auto assign = [&](const float* pts, std::size_t count,
                          std::vector<std::uint32_t>& out) {
    out.resize(count);
    const std::size_t parts = static_cast<std::size_t>(parallelism());
    const std::size_t chunk = (count + parts - 1) / parts;
    double inertia = 0.0;
    for (std::size_t t = 0; t < parts; ++t) {
      double local = 0.0;
      for (std::size_t i = t * chunk; i < std::min(count, t * chunk + chunk); ++i) {
        out[i] = nearest_centroid(result.centroids, dim, {pts + i * dim, dim});
        local += sq(pts + i * dim, result.centroids.data() + out[i] * dim);
      }
      inertia += local;
    }
    return inertia;
  };
  const auto update = [&](const float* pts, std::size_t count,
                          const std::vector<std::uint32_t>& assignment) {
    std::vector<double> sums(static_cast<std::size_t>(k) * dim, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < count; ++i) {
      ++counts[assignment[i]];
      for (std::size_t d = 0; d < dim; ++d) {
        sums[assignment[i] * dim + d] += pts[i * dim + d];
      }
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d) {
        result.centroids[c * dim + d] = static_cast<float>(
            sums[c * dim + d] / static_cast<double>(counts[c]));
      }
    }
  };

  std::vector<std::uint32_t> train_assign;
  double prev_inertia = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config.max_iters; ++iter) {
    const double inertia = assign(train, train_n, train_assign);
    update(train, train_n, train_assign);
    result.iters_run = iter + 1;
    if (prev_inertia < std::numeric_limits<double>::infinity() &&
        prev_inertia - inertia <= config.tol * std::max(1.0, prev_inertia)) {
      break;
    }
    prev_inertia = inertia;
  }
  result.inertia = assign(data.data(), n, result.assignment);
  return result;
}

// The pre-pruning refinement loop of QuantizedModel::build, on top of it.
KMeansResult reference_refined(std::span<const float> data, std::size_t dim,
                               const KMeansConfig& config, int passes) {
  KMeansResult r = reference_kmeans(data, dim, config);
  const std::size_t k = r.centroids.size() / dim;
  const std::size_t n = data.size() / dim;
  for (int p = 0; p < passes; ++p) {
    std::vector<double> sums(k * dim, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[r.assignment[i]];
      for (std::size_t d = 0; d < dim; ++d) {
        sums[r.assignment[i] * dim + d] += data[i * dim + d];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dim; ++d) {
        r.centroids[c * dim + d] =
            static_cast<float>(sums[c * dim + d] / static_cast<double>(counts[c]));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      r.assignment[i] = nearest_centroid(r.centroids, dim, {data.data() + i * dim, dim});
    }
  }
  return r;
}

void expect_same_training(const KMeansResult& got, const KMeansResult& want,
                          const std::string& what) {
  EXPECT_EQ(got.iters_run, want.iters_run) << what;
  EXPECT_EQ(got.centroids, want.centroids) << what;
  EXPECT_EQ(got.assignment, want.assignment) << what;
}

TEST(ExactSearch, KMeansEqualsBruteForceReference) {
  const int saved = parallelism();
  set_parallelism(4);
  Rng rng(77);
  for (std::size_t dim : {1u, 2u, 3u, 4u, 45u}) {
    struct Case {
      const char* name;
      std::vector<float> data;
      std::uint32_t k;
      std::size_t max_train;
    };
    std::vector<Case> cases;
    cases.push_back({"clustered", clustered_data(1200, dim, 40, dim), 64, 0});
    cases.push_back({"lattice", lattice_points(900, dim, 2, rng), 50, 0});
    cases.push_back({"bridged", bridged_points(1500, dim, 12, rng), 24, 0});
    cases.push_back({"k=1", clustered_data(300, dim, 5, dim + 1), 1, 0});
    cases.push_back({"k>n", normal_points(40, dim, rng), 100, 0});
    cases.push_back({"k=4096,n<k", normal_points(700, dim, rng), 4096, 0});
    cases.push_back({"subsampled", clustered_data(2000, dim, 30, dim + 2), 48, 600});
    for (const Case& c : cases) {
      KMeansConfig cfg;
      cfg.k = c.k;
      cfg.max_iters = 8;
      cfg.max_train_samples = c.max_train;
      cfg.seed = 5 + dim;
      const std::string what =
          std::string(c.name) + " dim " + std::to_string(dim);
      expect_same_training(kmeans(c.data, dim, cfg),
                           reference_kmeans(c.data, dim, cfg), what);
      expect_same_training(kmeans_refined(c.data, dim, cfg, 3),
                           reference_refined(c.data, dim, cfg, 3),
                           what + " refined");
    }
  }
  set_parallelism(saved);
}

TEST(ExactSearch, TinyIntegerLatticesEqualBruteForceReference) {
  // A few points on a small integer lattice: centroids land on halves and
  // thirds, so a point is often exactly equidistant from two centroids
  // after an update, including from its previous centroid and a lower
  // index. Thousands of seeds reach the ties a large input rarely does.
  Rng rng(3);
  for (std::size_t dim : {2u, 3u, 45u}) {
    int mismatches = 0, first = -1;
    for (int trial = 0; trial < 3000; ++trial) {
      const std::size_t n = 4 + rng.uniform_index(10);
      std::vector<float> data(n * dim, 0.0f);
      for (std::size_t i = 0; i < n; ++i) {
        data[i * dim] = static_cast<float>(rng.uniform_index(5));
        data[i * dim + 1] = static_cast<float>(rng.uniform_index(3));
      }
      KMeansConfig cfg;
      cfg.k = 2 + static_cast<std::uint32_t>(rng.uniform_index(4));
      cfg.max_iters = 6;
      cfg.seed = static_cast<std::uint64_t>(trial);
      const KMeansResult got = kmeans_refined(data, dim, cfg, 3);
      const KMeansResult want = reference_refined(data, dim, cfg, 3);
      if (got.assignment != want.assignment || got.centroids != want.centroids ||
          got.iters_run != want.iters_run) {
        if (first < 0) first = trial;
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "dim " << dim << ", first at trial " << first;
  }
}

TEST(ExactSearch, TolStopMatchesBruteForceReference) {
  // Tight, well-separated clusters converge long before max_iters, so the
  // stop decision itself (driven by the chunked inertia) is compared.
  for (std::size_t dim : {3u, 45u}) {
    const auto data = clustered_data(3000, dim, 12, 31);
    KMeansConfig cfg;
    cfg.k = 12;
    cfg.max_iters = 100;
    cfg.seed = 8;
    const KMeansResult want = reference_kmeans(data, dim, cfg);
    ASSERT_LT(want.iters_run, cfg.max_iters) << "tol stop did not fire, dim " << dim;
    expect_same_training(kmeans(data, dim, cfg), want, "dim " + std::to_string(dim));
  }
}

// ----------------------------------------------------------------- golden --

// 64-bit FNV-1a over the four codebooks' raw float bits and every
// QuantizedIndices record, in that order.
std::uint64_t quantized_model_hash(const QuantizedModel& qm) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Codebook* cb : {&qm.scale_codebook(), &qm.rotation_codebook(),
                             &qm.dc_codebook(), &qm.sh_codebook()}) {
    mix(cb->dim(), 4);
    mix(cb->size(), 4);
    for (const float f : cb->raw()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &f, sizeof(bits));
      mix(bits, 4);
    }
  }
  for (std::uint32_t i = 0; i < qm.size(); ++i) {
    const QuantizedIndices& q = qm.indices(i);
    mix(q.scale, 2);
    mix(q.rotation, 2);
    mix(q.dc, 2);
    mix(q.sh, 2);
  }
  return h;
}

struct GoldenCase {
  const char* name;
  scene::ScenePreset preset;
  float scale;
  std::uint64_t generator_seed;  // 0 = the preset's own seed
  std::uint64_t expected;
};

// Pinned on the brute-force trainer: codebook training must reproduce it
// bit for bit (docs/ARCHITECTURE.md, invariant 6). The train x0.01 seed 1
// model is the e2ebench ooc_walk input; the presets run at x0.002.
constexpr GoldenCase kGoldenCases[] = {
    {"train_x0.01_seed1", scene::ScenePreset::kTrain, 0.01f, 1,
     0x0229eafff3c274a8ull},
    {"lego", scene::ScenePreset::kLego, 0.002f, 0,
     0xba705b5d22804657ull},
    {"palace", scene::ScenePreset::kPalace, 0.002f, 0,
     0x7c12aa17cec8f693ull},
    {"train", scene::ScenePreset::kTrain, 0.002f, 0,
     0x28be5aeaf7993a07ull},
    {"truck", scene::ScenePreset::kTruck, 0.002f, 0,
     0x299bad3cae89b297ull},
    {"playroom", scene::ScenePreset::kPlayroom, 0.002f, 0,
     0x55f8e71a57250dbbull},
    {"drjohnson", scene::ScenePreset::kDrjohnson, 0.002f, 0,
     0xfc0364c687cbdaf4ull},
};

class CodebookGolden : public ::testing::TestWithParam<int> {};

TEST_P(CodebookGolden, DefaultConfigBuildHashes) {
  const int saved = parallelism();
  set_parallelism(GetParam());
  for (const GoldenCase& c : kGoldenCases) {
    scene::GeneratorConfig gen = scene::preset_generator_config(c.preset, c.scale);
    if (c.generator_seed != 0) gen.seed = c.generator_seed;
    const gs::GaussianModel model = scene::generate_scene(gen);
    const QuantizedModel qm = QuantizedModel::build(model, VqConfig{});
    const std::uint64_t h = quantized_model_hash(qm);
    EXPECT_EQ(h, c.expected) << c.name << " (" << model.size()
                             << " Gaussians): 0x" << std::hex << h;
  }
  set_parallelism(saved);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, CodebookGolden, ::testing::Values(1, 4));

TEST(CodebookGolden, TracedBuildIsBitIdenticalAndSpansEveryPhase) {
  const GoldenCase& c = kGoldenCases[1];
  const gs::GaussianModel model = scene::make_preset_scene(c.preset, c.scale);
  obs::trace_reset();
  obs::set_trace_enabled(true);
  const QuantizedModel qm = QuantizedModel::build(model, VqConfig{});
  obs::set_trace_enabled(false);
  EXPECT_EQ(quantized_model_hash(qm), c.expected);

  // Three spans per codebook, each tagged with the book's dim and k.
  std::vector<std::string> spans;
  for (const obs::ThreadTrace& t : obs::trace_collect()) {
    for (const obs::TraceEvent& e : t.events) {
      if (std::string(e.cat) != "vq") continue;
      spans.push_back(std::string(e.name) + "/" + std::to_string(e.arg0) + "/" +
                      std::to_string(e.arg1));
    }
  }
  obs::trace_reset();
  const std::uint64_t n = model.size();
  const std::pair<std::uint64_t, std::uint64_t> books[] = {
      {3, std::min<std::uint64_t>(4096, n)},
      {4, std::min<std::uint64_t>(4096, n)},
      {3, std::min<std::uint64_t>(4096, n)},
      {45, std::min<std::uint64_t>(512, n)}};
  std::vector<std::string> want;
  for (const auto& [dim, k] : books) {
    for (const char* phase : {"kmeans_seed", "lloyd", "assign_refine"}) {
      want.push_back(std::string(phase) + "/" + std::to_string(dim) + "/" +
                     std::to_string(k));
    }
  }
  EXPECT_EQ(spans, want);
}

}  // namespace
}  // namespace sgs::vq
