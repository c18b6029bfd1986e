// Unit tests for the common substrate: math types, RNG, image IO, threading,
// CLI parsing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include "common/cli.hpp"
#include "common/image.hpp"
#include "common/mat.hpp"
#include "common/parallel.hpp"
#include "common/ppm.hpp"
#include "common/quat.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "common/vec.hpp"

namespace sgs {
namespace {

constexpr float kEps = 1e-5f;

// ---------------------------------------------------------------- vectors --

TEST(Vec3, ArithmeticIdentities) {
  const Vec3f a{1.0f, -2.0f, 3.0f};
  const Vec3f b{0.5f, 4.0f, -1.0f};
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ(a * 1.0f, a);
  EXPECT_EQ(a * 0.0f, (Vec3f{0, 0, 0}));
  EXPECT_FLOAT_EQ(a.dot(b), 1.0f * 0.5f - 2.0f * 4.0f + 3.0f * -1.0f);
}

TEST(Vec3, CrossIsOrthogonal) {
  const Vec3f a{1.0f, 2.0f, 3.0f};
  const Vec3f b{-4.0f, 0.5f, 2.0f};
  const Vec3f c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0f, kEps);
  EXPECT_NEAR(c.dot(b), 0.0f, kEps);
}

TEST(Vec3, CrossAnticommutes) {
  const Vec3f a{1.0f, 2.0f, 3.0f};
  const Vec3f b{-4.0f, 0.5f, 2.0f};
  const Vec3f lhs = a.cross(b);
  const Vec3f rhs = b.cross(a) * -1.0f;
  EXPECT_NEAR(lhs.x, rhs.x, kEps);
  EXPECT_NEAR(lhs.y, rhs.y, kEps);
  EXPECT_NEAR(lhs.z, rhs.z, kEps);
}

TEST(Vec3, NormalizedHasUnitLength) {
  const Vec3f v{3.0f, -4.0f, 12.0f};
  EXPECT_NEAR(v.normalized().norm(), 1.0f, kEps);
  // Zero vector normalizes to zero, not NaN.
  EXPECT_EQ((Vec3f{0, 0, 0}).normalized(), (Vec3f{0, 0, 0}));
}

TEST(Vec3, ComponentAccessors) {
  Vec3f v{7.0f, 8.0f, 9.0f};
  EXPECT_FLOAT_EQ(v[0], 7.0f);
  EXPECT_FLOAT_EQ(v[1], 8.0f);
  EXPECT_FLOAT_EQ(v[2], 9.0f);
  v[1] = -1.0f;
  EXPECT_FLOAT_EQ(v.y, -1.0f);
  EXPECT_FLOAT_EQ(v.max_component(), 9.0f);
  EXPECT_FLOAT_EQ(v.min_component(), -1.0f);
}

TEST(Vec3i, ManhattanDistance) {
  EXPECT_EQ((Vec3i{0, 0, 0}).manhattan({1, 1, 1}), 3);
  EXPECT_EQ((Vec3i{5, -2, 3}).manhattan({5, -2, 3}), 0);
  EXPECT_EQ((Vec3i{0, 0, 0}).manhattan({-2, 0, 0}), 2);
}

TEST(Clamp, Bounds) {
  EXPECT_FLOAT_EQ(clampf(5.0f, 0.0f, 1.0f), 1.0f);
  EXPECT_FLOAT_EQ(clampf(-5.0f, 0.0f, 1.0f), 0.0f);
  EXPECT_FLOAT_EQ(clampf(0.25f, 0.0f, 1.0f), 0.25f);
}

// --------------------------------------------------------------- matrices --

TEST(Mat3, IdentityIsNeutral) {
  const Mat3f i = Mat3f::identity();
  const Vec3f v{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(i * v, v);
  const Mat3f a = Mat3f::from_rows({1, 2, 3}, {4, 5, 6}, {7, 8, 10});
  EXPECT_EQ(i * a, a);
  EXPECT_EQ(a * i, a);
}

TEST(Mat3, InverseRoundTrip) {
  const Mat3f a = Mat3f::from_rows({2, 1, 0}, {1, 3, 1}, {0, 1, 4});
  const Mat3f prod = a * a.inverse();
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(prod(r, c), r == c ? 1.0f : 0.0f, 1e-4f);
    }
  }
}

TEST(Mat3, DetOfSingularIsZero) {
  const Mat3f a = Mat3f::from_rows({1, 2, 3}, {2, 4, 6}, {0, 1, 1});
  EXPECT_NEAR(a.det(), 0.0f, 1e-4f);
}

TEST(Mat3, TransposeInvolution) {
  const Mat3f a = Mat3f::from_rows({1, 2, 3}, {4, 5, 6}, {7, 8, 9});
  EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(Sym2, EigenvaluesOfDiagonal) {
  const Sym2f s{4.0f, 0.0f, 9.0f};
  const auto e = s.eigenvalues();
  EXPECT_FLOAT_EQ(e.lambda_max, 9.0f);
  EXPECT_FLOAT_EQ(e.lambda_min, 4.0f);
}

TEST(Sym2, InverseQuadraticConsistency) {
  const Sym2f s{3.0f, 1.0f, 2.0f};
  const Sym2f inv = s.inverse();
  // M * M^-1 == I expressed through the packed form.
  EXPECT_NEAR(s.a * inv.a + s.b * inv.b, 1.0f, kEps);
  EXPECT_NEAR(s.a * inv.b + s.b * inv.c, 0.0f, kEps);
  EXPECT_NEAR(s.b * inv.b + s.c * inv.c, 1.0f, kEps);
}

TEST(Sym2, EigenvalueBoundsTraceDet) {
  const Sym2f s{5.0f, 2.0f, 3.0f};
  const auto e = s.eigenvalues();
  EXPECT_NEAR(e.lambda_max + e.lambda_min, s.trace(), 1e-4f);
  EXPECT_NEAR(e.lambda_max * e.lambda_min, s.det(), 1e-3f);
}

// ------------------------------------------------------------- quaternions --

TEST(Quat, IdentityRotation) {
  const Quatf q;
  const Vec3f v{1.0f, 2.0f, 3.0f};
  const Vec3f r = q.rotate(v);
  EXPECT_NEAR(r.x, v.x, kEps);
  EXPECT_NEAR(r.y, v.y, kEps);
  EXPECT_NEAR(r.z, v.z, kEps);
}

TEST(Quat, AxisAngle90AboutZ) {
  const Quatf q = Quatf::from_axis_angle({0, 0, 1}, 1.57079632679f);
  const Vec3f r = q.rotate({1, 0, 0});
  EXPECT_NEAR(r.x, 0.0f, 1e-4f);
  EXPECT_NEAR(r.y, 1.0f, 1e-4f);
  EXPECT_NEAR(r.z, 0.0f, 1e-4f);
}

TEST(Quat, RotationMatrixIsOrthonormal) {
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    const Quatf q = Quatf::from_axis_angle(rng.unit_sphere(),
                                           rng.uniform(0.0f, 6.28f));
    const Mat3f r = q.to_rotation_matrix();
    const Mat3f rrt = r * r.transposed();
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b)
        EXPECT_NEAR(rrt(a, b), a == b ? 1.0f : 0.0f, 1e-4f);
    EXPECT_NEAR(r.det(), 1.0f, 1e-4f);
  }
}

TEST(Quat, UnnormalizedQuatStillRotates) {
  // The squared-norm division must make scaling a no-op.
  const Quatf q = Quatf::from_axis_angle({0, 1, 0}, 0.7f);
  const Quatf q2{q.w * 3.0f, q.x * 3.0f, q.y * 3.0f, q.z * 3.0f};
  const Vec3f v{0.3f, -1.0f, 2.0f};
  const Vec3f a = q.rotate(v);
  const Vec3f b = q2.rotate(v);
  EXPECT_NEAR(a.x, b.x, 1e-4f);
  EXPECT_NEAR(a.y, b.y, 1e-4f);
  EXPECT_NEAR(a.z, b.z, 1e-4f);
}

TEST(Quat, CompositionMatchesMatrixProduct) {
  const Quatf qa = Quatf::from_axis_angle({1, 0, 0}, 0.4f);
  const Quatf qb = Quatf::from_axis_angle({0, 1, 0}, -0.9f);
  const Mat3f m1 = (qa * qb).to_rotation_matrix();
  const Mat3f m2 = qa.to_rotation_matrix() * qb.to_rotation_matrix();
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) EXPECT_NEAR(m1(a, b), m2(a, b), 1e-4f);
}

// -------------------------------------------------------------------- RNG --

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform();
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(21);
  double sum = 0.0, sum2 = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, UnitSphereOnSurface) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(rng.unit_sphere().norm(), 1.0f, 1e-4f);
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

// ------------------------------------------------------------------ image --

TEST(Image, ConstructionAndAccess) {
  Image img(4, 3, {0.5f, 0.25f, 0.125f});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixel_count(), 12u);
  EXPECT_EQ(img.at(2, 1), (Vec3f{0.5f, 0.25f, 0.125f}));
  img.at(0, 0) = {1, 0, 0};
  EXPECT_EQ(img.at(0, 0), (Vec3f{1, 0, 0}));
  EXPECT_EQ(img.rgb8_bytes(), 36u);
}

TEST(Ppm, RoundTripNoGamma) {
  Image img(8, 5);
  Rng rng(17);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 8; ++x)
      img.at(x, y) = {rng.uniform(), rng.uniform(), rng.uniform()};

  const std::string path =
      (std::filesystem::temp_directory_path() / "sgs_test_rt.ppm").string();
  ASSERT_TRUE(write_ppm(path, img, /*apply_gamma=*/false));
  const Image back = read_ppm(path, /*apply_gamma=*/false);
  ASSERT_EQ(back.width(), 8);
  ASSERT_EQ(back.height(), 5);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 8; ++x) {
      // 8-bit quantization error bound.
      EXPECT_NEAR(back.at(x, y).x, img.at(x, y).x, 1.0f / 255.0f);
      EXPECT_NEAR(back.at(x, y).y, img.at(x, y).y, 1.0f / 255.0f);
      EXPECT_NEAR(back.at(x, y).z, img.at(x, y).z, 1.0f / 255.0f);
    }
  }
  std::remove(path.c_str());
}

TEST(Ppm, ReadMissingFileReturnsEmpty) {
  EXPECT_TRUE(read_ppm("/nonexistent/definitely_missing.ppm").empty());
}

// --------------------------------------------------------------- parallel --

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SingleThreadFallback) {
  const int saved = parallelism();
  set_parallelism(1);
  std::vector<int> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  set_parallelism(saved);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Parallel, PoolCoversAllIndicesAcrossResizes) {
  // Exercise the persistent pool through several reconfigurations: every
  // job must cover its range exactly once regardless of worker count.
  // Repeated rebuilds also regression-test the helper birth-epoch: a fresh
  // helper must not drain a job published before it existed.
  const int saved = parallelism();
  for (int rep = 0; rep < 5; ++rep) {
    for (const int workers : {4, 2, 4, 1, 3}) {
      set_parallelism(workers);
      constexpr std::size_t n = 5000;
      std::vector<std::atomic<int>> hits(n);
      parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    }
  }
  set_parallelism(saved);
}

TEST(Parallel, WorkerIndexedVariantStaysInRange) {
  const int saved = parallelism();
  set_parallelism(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<bool> in_range{true};
  parallel_for_workers(0, n, [&](int worker, std::size_t i) {
    if (worker < 0 || worker >= 4) in_range = false;
    hits[i].fetch_add(1);
  });
  set_parallelism(saved);
  EXPECT_TRUE(in_range.load());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, WorkerIndexIsExclusivePerArena) {
  // The contract FrameScheduler relies on: one worker index is never used
  // by two threads at once, so per-worker arenas need no locks. Detect
  // overlap with per-worker entry counters.
  const int saved = parallelism();
  set_parallelism(4);
  std::array<std::atomic<int>, 4> depth{};
  std::atomic<bool> overlapped{false};
  parallel_for_workers(0, 2000, [&](int worker, std::size_t) {
    if (depth[static_cast<std::size_t>(worker)].fetch_add(1) != 0) {
      overlapped = true;
    }
    depth[static_cast<std::size_t>(worker)].fetch_sub(1);
  });
  set_parallelism(saved);
  EXPECT_FALSE(overlapped.load());
}

TEST(Parallel, NestedParallelForRunsSeriallyWithoutDeadlock) {
  const int saved = parallelism();
  set_parallelism(4);
  std::atomic<int> count{0};
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);

  // The serial paths must also tolerate nesting: a single-iteration outer
  // loop (width 1 even with a wide pool) and a parallelism-1 pool both run
  // inline while holding the submit lock — the nested call must not retake
  // it.
  count = 0;
  parallel_for(0, 1, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 8);

  set_parallelism(1);
  count = 0;
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
  set_parallelism(saved);
}

TEST(Parallel, InlineLoopScopeRunsOnCallerAndRestores) {
  const int saved = parallelism();
  set_parallelism(4);
  const std::thread::id caller = std::this_thread::get_id();
  const std::uint64_t jobs0 = pool_jobs_completed();
  {
    InlineLoopScope scope;
    std::vector<int> order;
    parallel_for_workers(0, 10, [&](int worker, std::size_t i) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(static_cast<int>(i));
    });
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(pool_jobs_completed(), jobs0);  // inline loops take no job

  // Opened inside a pool job, the scope keeps the enclosing worker index,
  // and on exit the job's own nested-loop state is back.
  std::atomic<bool> kept{true};
  parallel_for_workers(0, 64, [&](int worker, std::size_t) {
    {
      InlineLoopScope scope;
      parallel_for_workers(0, 2, [&](int w, std::size_t) {
        if (w != worker) kept = false;
      });
    }
    parallel_for_workers(0, 2, [&](int w, std::size_t) {
      if (w != worker) kept = false;
    });
  });
  EXPECT_TRUE(kept.load());
  EXPECT_EQ(pool_jobs_completed(), jobs0 + 1);

  // After the scope the thread submits to the pool again.
  parallel_for(0, 100, [](std::size_t) {});
  EXPECT_EQ(pool_jobs_completed(), jobs0 + 2);
  set_parallelism(saved);
}

// -------------------------------------------------------------------- CLI --

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=4.5", "--flag",
                        "--name", "lego"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get("name", ""), "lego");
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used", "1", "--unused", "2"};
  CliArgs args(5, argv);
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "file1", "--k", "v", "file2"};
  CliArgs args(5, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
  EXPECT_EQ(args.positional()[1], "file2");
}

// ------------------------------------------------------------------ units --

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.50 MiB");
}

TEST(Units, FormatRatio) {
  EXPECT_EQ(format_ratio(45.67), "45.7x");
  EXPECT_EQ(format_ratio(2.0, 2), "2.00x");
}

}  // namespace
}  // namespace sgs
