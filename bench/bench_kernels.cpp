// Google-benchmark microbenchmarks of the library's hot kernels: SH
// evaluation, exact and coarse projection, alpha blending, DDA traversal,
// topological voxel ordering, k-means assignment, the batched SoA kernels
// at every dispatch level, and the two renderers on a small scene.
//
// Besides the google-benchmark suite, a self-timed comparison pass emits
// BENCH_kernels.json (flat key/value, schema in docs/BENCHMARKS.md): the
// per-kernel scalar-vs-SIMD and SoA-vs-AoS numbers CI smokes and uploads.
// The pass double-checks that scalar and SIMD outputs agree within
// kSimdAbsTolerance, and that the pruned VQ assignment equals brute force
// bitwise, and exits non-zero when they do not, so the smoke step is a
// correctness gate as well as a trend file.
//
//   ./bench_kernels [--out BENCH_kernels.json] [--json_only]
//                   [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/frame_plan.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "core/voxel_order.hpp"
#include "gs/blending.hpp"
#include "gs/gaussian_soa.hpp"
#include "gs/kernels.hpp"
#include "gs/projection.hpp"
#include "gs/sh.hpp"
#include "render/tile_renderer.hpp"
#include "scene/generator.hpp"
#include "voxel/dda.hpp"
#include "vq/kmeans.hpp"

namespace {

using namespace sgs;

gs::Camera bench_camera(int w = 256, int h = 256) {
  return gs::Camera::look_at({0, 0, -5}, {0, 0, 0}, {0, 1, 0}, 0.8f, w, h);
}

gs::GaussianModel bench_model(std::size_t n) {
  scene::GeneratorConfig cfg;
  cfg.gaussian_count = n;
  cfg.extent_min = {-3, -3, -3};
  cfg.extent_max = {3, 3, 3};
  cfg.seed = 99;
  return scene::generate_scene(cfg);
}

gs::GaussianColumns bench_columns(const gs::GaussianModel& model) {
  gs::GaussianColumns cols;
  cols.resize(model.gaussians.size());
  for (std::size_t k = 0; k < model.gaussians.size(); ++k) {
    cols.set(k, model.gaussians[k], model.gaussians[k].max_scale());
  }
  return cols;
}

const gs::FilterRect kBenchRect{64.0f, 64.0f, 192.0f, 192.0f};

void BM_ShEval(benchmark::State& state) {
  Rng rng(1);
  std::array<Vec3f, 16> coeffs;
  for (auto& c : coeffs) c = rng.normal_vec3(0.2f);
  Vec3f dir = rng.unit_sphere();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::eval_sh(coeffs, dir));
    // Defeat caching without drifting off the unit sphere: eval_sh is
    // specified over directions, and an unnormalized input would slowly
    // shift what is being measured (and its branch behavior) as the bench
    // runs longer.
    dir.x += 1e-3f;
    dir = dir.normalized();
  }
}
BENCHMARK(BM_ShEval);

void BM_ProjectGaussian(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::project_gaussian(model.gaussians[i], cam));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_ProjectGaussian);

void BM_ProjectCoarse(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& g = model.gaussians[i];
    benchmark::DoNotOptimize(gs::project_coarse(g.position, g.max_scale(), cam));
    i = (i + 1) & 4095;
  }
}
BENCHMARK(BM_ProjectCoarse);

void BM_AlphaBlend(benchmark::State& state) {
  gs::ProjectedGaussian g;
  g.mean = {128, 128};
  g.conic = Sym2f{0.02f, 0.005f, 0.03f};
  g.opacity = 0.8f;
  g.color = {0.7f, 0.3f, 0.2f};
  gs::PixelAccumulator acc;
  float x = 120.0f;
  for (auto _ : state) {
    const float a = gs::gaussian_alpha(g, {x, 126.0f});
    if (a > 0.0f) gs::blend(acc, g.color, a);
    benchmark::DoNotOptimize(acc);
    x = x < 136.0f ? x + 0.25f : 120.0f;
    if (acc.saturated()) acc = gs::PixelAccumulator{};
  }
}
BENCHMARK(BM_AlphaBlend);

// ---------------------------------------------------- batched SoA kernels ---
// Arg(0/1/2) pins dispatch to scalar/sse2/avx2; levels above the host cap
// are clamped by active_isa(), so reported numbers for unavailable ISAs
// just repeat the highest available one.

simd::IsaLevel arg_isa(const benchmark::State& state) {
  return static_cast<simd::IsaLevel>(state.range(0));
}

// AoS baseline of the coarse filter: the historical per-record loop over
// gs::Gaussian (236 B apart), for the SoA-vs-AoS layout comparison.
void BM_CoarseFilterAoS(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cam = bench_camera();
  std::vector<std::uint32_t> idx;
  for (auto _ : state) {
    idx.clear();
    for (std::size_t i = 0; i < model.gaussians.size(); ++i) {
      const auto& g = model.gaussians[i];
      const auto proj = gs::project_coarse(g.position, g.max_scale(), cam);
      if (proj && gs::disc_intersects_rect(proj->mean, proj->radius,
                                           kBenchRect.x0, kBenchRect.y0,
                                           kBenchRect.x1, kBenchRect.y1)) {
        idx.push_back(static_cast<std::uint32_t>(i));
      }
    }
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.gaussians.size()));
}
BENCHMARK(BM_CoarseFilterAoS);

void BM_CoarseFilterSoA(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::vector<std::uint32_t> idx;
  for (auto _ : state) {
    idx.clear();
    gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx);
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cols.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_CoarseFilterSoA)->Arg(0)->Arg(1)->Arg(2);

void BM_FineProjectBatch(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  std::vector<std::uint32_t> cand;
  gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, cand);
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::vector<gs::FineSurvivor> out;
  for (auto _ : state) {
    out.clear();
    gs::fine_project_batch(cols, 0, cand, cam, kBenchRect, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cand.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_FineProjectBatch)->Arg(0)->Arg(2);

void BM_ShEvalBatch(benchmark::State& state) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  std::vector<std::uint32_t> locals(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    locals[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<Vec3f> colors(cols.size());
  const simd::ScopedForceIsa pin(arg_isa(state));
  for (auto _ : state) {
    gs::eval_sh_batch(cols, 0, locals, {0, 0, -5}, colors.data());
    benchmark::DoNotOptimize(colors.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cols.size()));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_ShEvalBatch)->Arg(0)->Arg(2);

std::vector<gs::ProjectedGaussian> bench_survivor_stream(std::size_t n) {
  Rng rng(5);
  std::vector<gs::ProjectedGaussian> out;
  for (std::size_t s = 0; s < n; ++s) {
    gs::ProjectedGaussian p;
    p.mean = {rng.uniform(0.0f, 64.0f), rng.uniform(0.0f, 64.0f)};
    p.conic = Sym2f{0.02f, 0.005f, 0.03f};
    p.radius = 20.0f;
    p.depth = 1.0f + 0.01f * static_cast<float>(s);
    p.opacity = 0.35f;
    p.color = {0.7f, 0.3f, 0.2f};
    out.push_back(p);
  }
  return out;
}

void BM_BlendSurvivors(benchmark::State& state) {
  const auto stream = bench_survivor_stream(128);
  gs::BlendPlanes planes;
  std::vector<float> max_depth;
  const simd::ScopedForceIsa pin(arg_isa(state));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    planes.reset(64 * 64);
    max_depth.assign(64 * 64, 0.0f);
    for (const auto& p : stream) {
      const gs::PixelSpan span =
          gs::splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.empty()) continue;
      ops += gs::blend_survivor(planes, max_depth, p, span, 0, 0, 64).blend_ops;
    }
    benchmark::DoNotOptimize(planes.r.data());
  }
  benchmark::DoNotOptimize(ops);
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_BlendSurvivors)->Arg(0)->Arg(1)->Arg(2);

// Batched VQ decode primitive: one codebook column gathered for a whole
// group (scalar loop vs AVX2 gather), strided into an SH column.
void BM_VqGatherColumn(benchmark::State& state) {
  Rng rng(17);
  const std::size_t dim = 45, entries = 256, n = 4096;
  std::vector<float> cb(dim * entries);
  for (auto& v : cb) v = rng.normal();
  std::vector<std::uint32_t> idx(n);
  for (auto& i : idx) i = static_cast<std::uint32_t>(rng.uniform_index(entries));
  std::vector<float> dst(n * gs::kShCoeffCount);
  const simd::ScopedForceIsa pin(arg_isa(state));
  for (auto _ : state) {
    for (std::size_t c = 0; c < 3; ++c) {
      gs::gather_codebook_column(dst.data() + c, gs::kShCoeffCount, cb.data(),
                                 idx.data(), n, dim, c);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(3 * n));
  state.SetLabel(simd::isa_name(simd::active_isa()));
}
BENCHMARK(BM_VqGatherColumn)->Arg(0)->Arg(2);

void BM_DdaTraversal(benchmark::State& state) {
  const auto model = bench_model(20000);
  const auto grid = voxel::VoxelGrid::build(model, 0.5f);
  const auto cam = bench_camera();
  Rng rng(3);
  for (auto _ : state) {
    const gs::Ray ray =
        cam.pixel_ray(rng.uniform(0.0f, 256.0f), rng.uniform(0.0f, 256.0f));
    benchmark::DoNotOptimize(voxel::intersected_voxels(ray, grid));
  }
}
BENCHMARK(BM_DdaTraversal);

void BM_TopologicalOrder(benchmark::State& state) {
  // 64 rays over a 64-voxel chain with random subsequences.
  Rng rng(7);
  std::vector<std::vector<voxel::DenseVoxelId>> rays;
  for (int r = 0; r < 64; ++r) {
    std::vector<voxel::DenseVoxelId> ray;
    for (int v = 0; v < 64; ++v) {
      if (rng.uniform() < 0.4f) ray.push_back(v);
    }
    rays.push_back(std::move(ray));
  }
  auto depth = [](voxel::DenseVoxelId v) { return static_cast<float>(v); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::topological_voxel_order(rays, depth));
  }
}
BENCHMARK(BM_TopologicalOrder);

void BM_KMeansAssign(benchmark::State& state) {
  Rng rng(11);
  const std::size_t dim = 45;
  std::vector<float> centroids(512 * dim);
  for (auto& v : centroids) v = rng.normal();
  std::vector<float> query(dim);
  for (auto& v : query) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vq::nearest_centroid(centroids, dim, query));
    query[0] += 1e-5f;
  }
}
BENCHMARK(BM_KMeansAssign);

void BM_TileRenderFrame(benchmark::State& state) {
  const auto model = bench_model(static_cast<std::size_t>(state.range(0)));
  const auto cam = bench_camera(192, 192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::render_tile_centric(model, cam));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TileRenderFrame)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_StreamingRenderFrame(benchmark::State& state) {
  const auto model = bench_model(static_cast<std::size_t>(state.range(0)));
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  const auto scene = core::StreamingScene::prepare(model, cfg);
  const auto cam = bench_camera(192, 192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::render_streaming(scene, cam));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamingRenderFrame)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

// Multi-group stress: small pixel groups put the load on the per-group
// pipeline (scratch-arena reuse + pool scheduling) rather than the blending
// inner loop — the path the staged refactor targets.
void BM_StreamingRenderFrameFineGroups(benchmark::State& state) {
  const auto model = bench_model(20000);
  core::StreamingConfig cfg;
  cfg.voxel_size = 0.5f;
  cfg.use_vq = false;
  cfg.group_size = static_cast<int>(state.range(0));
  const auto scene = core::StreamingScene::prepare(model, cfg);
  const auto cam = bench_camera(256, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::render_streaming(scene, cam));
  }
}
BENCHMARK(BM_StreamingRenderFrameFineGroups)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// Per-frame voxel-table build (the FramePlan layer on its own).
void BM_FramePlanBuild(benchmark::State& state) {
  const auto model = bench_model(20000);
  const auto grid = voxel::VoxelGrid::build(model, 0.5f);
  const auto cam = bench_camera();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FramePlan::build(grid, cam, 32));
  }
}
BENCHMARK(BM_FramePlanBuild);

// Frame-sequence rendering under headset-like creep: nearly every frame
// reuses the cached plan, so the per-frame cost is the staged pipeline
// alone (no table rebuild).
void BM_StreamingSequenceCreep(benchmark::State& state) {
  const auto model = bench_model(20000);
  core::StreamingConfig cfg;
  cfg.voxel_size = 1.0f;
  cfg.use_vq = false;
  const auto scene = core::StreamingScene::prepare(model, cfg);
  core::SequenceRenderer sequence(scene);
  float x = 0.0f;
  for (auto _ : state) {
    const auto cam = gs::Camera::look_at({x, 0, -5}, {0, 0, 0}, {0, 1, 0},
                                         0.8f, 192, 192);
    benchmark::DoNotOptimize(sequence.render(cam));
    x += 1e-4f;  // creep well inside the reuse envelope
  }
}
BENCHMARK(BM_StreamingSequenceCreep)->Unit(benchmark::kMillisecond);

// ------------------------------------------------ BENCH_kernels.json pass ---

// Best-of-k wall time of fn() in milliseconds (k small: these workloads are
// hundreds of microseconds each, and min-of-k rejects scheduler noise).
template <typename Fn>
double best_ms(Fn&& fn, int reps = 7) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Times the scalar-vs-SIMD comparison pass, verifies the tolerance contract
// on the way, times brute-force vs pruned VQ assignment (which must agree
// bitwise), and writes the flat JSON. Returns false on a kernel mismatch.
bool emit_kernels_json(const std::string& out_path) {
  const auto model = bench_model(4096);
  const auto cols = bench_columns(model);
  const auto cam = bench_camera();
  const simd::IsaLevel top = simd::detect_isa();

  // SoA-vs-AoS + scalar-vs-SIMD coarse filter.
  std::vector<std::uint32_t> idx_aos, idx_scalar, idx_simd;
  const double aos_ms = best_ms([&] {
    idx_aos.clear();
    for (std::size_t i = 0; i < model.gaussians.size(); ++i) {
      const auto& g = model.gaussians[i];
      const auto proj = gs::project_coarse(g.position, g.max_scale(), cam);
      if (proj && gs::disc_intersects_rect(proj->mean, proj->radius,
                                           kBenchRect.x0, kBenchRect.y0,
                                           kBenchRect.x1, kBenchRect.y1)) {
        idx_aos.push_back(static_cast<std::uint32_t>(i));
      }
    }
  });
  double coarse_scalar_ms, coarse_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    coarse_scalar_ms = best_ms([&] {
      idx_scalar.clear();
      gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx_scalar);
    });
  }
  {
    const simd::ScopedForceIsa pin(top);
    coarse_simd_ms = best_ms([&] {
      idx_simd.clear();
      gs::coarse_filter_batch(cols, 0, cols.size(), cam, kBenchRect, idx_simd);
    });
  }
  bool match = (idx_scalar == idx_aos) && (idx_simd == idx_scalar);

  // Fine projection over the coarse survivors.
  std::vector<gs::FineSurvivor> fine_scalar, fine_simd;
  double fine_scalar_ms, fine_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    fine_scalar_ms = best_ms([&] {
      fine_scalar.clear();
      gs::fine_project_batch(cols, 0, idx_scalar, cam, kBenchRect, fine_scalar);
    });
  }
  {
    const simd::ScopedForceIsa pin(top);
    fine_simd_ms = best_ms([&] {
      fine_simd.clear();
      gs::fine_project_batch(cols, 0, idx_scalar, cam, kBenchRect, fine_simd);
    });
  }
  match = match && fine_simd.size() == fine_scalar.size();
  const auto near_rel = [](float x, float y) {
    return std::abs(x - y) <=
           gs::kSimdAbsTolerance * std::max(1.0f, std::abs(y));
  };
  for (std::size_t j = 0; match && j < fine_simd.size(); ++j) {
    match = fine_simd[j].local == fine_scalar[j].local &&
            near_rel(fine_simd[j].proj.mean.x, fine_scalar[j].proj.mean.x) &&
            near_rel(fine_simd[j].proj.depth, fine_scalar[j].proj.depth) &&
            near_rel(fine_simd[j].proj.radius, fine_scalar[j].proj.radius);
  }

  // SH evaluation over every record.
  std::vector<std::uint32_t> locals(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    locals[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<Vec3f> col_scalar(cols.size()), col_simd(cols.size());
  double sh_scalar_ms, sh_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    sh_scalar_ms = best_ms(
        [&] { gs::eval_sh_batch(cols, 0, locals, {0, 0, -5}, col_scalar.data()); });
  }
  {
    const simd::ScopedForceIsa pin(top);
    sh_simd_ms = best_ms(
        [&] { gs::eval_sh_batch(cols, 0, locals, {0, 0, -5}, col_simd.data()); });
  }
  for (std::size_t i = 0; match && i < cols.size(); ++i) {
    match = std::abs(col_simd[i].x - col_scalar[i].x) <= gs::kSimdAbsTolerance &&
            std::abs(col_simd[i].y - col_scalar[i].y) <= gs::kSimdAbsTolerance &&
            std::abs(col_simd[i].z - col_scalar[i].z) <= gs::kSimdAbsTolerance;
  }

  // Alpha blending of a survivor stream into one 64x64 group.
  const auto stream = bench_survivor_stream(128);
  gs::BlendPlanes planes_scalar, planes_simd;
  std::vector<float> md;
  const auto blend_pass = [&](gs::BlendPlanes& planes) {
    planes.reset(64 * 64);
    md.assign(64 * 64, 0.0f);
    for (const auto& p : stream) {
      const gs::PixelSpan span =
          gs::splat_pixel_span(p.mean, p.radius, 0, 0, 64, 64);
      if (span.empty()) continue;
      gs::blend_survivor(planes, md, p, span, 0, 0, 64);
    }
  };
  double blend_scalar_ms, blend_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    blend_scalar_ms = best_ms([&] { blend_pass(planes_scalar); });
  }
  {
    const simd::ScopedForceIsa pin(top);
    blend_simd_ms = best_ms([&] { blend_pass(planes_simd); });
  }
  for (std::size_t pi = 0; match && pi < planes_scalar.size(); ++pi) {
    match = std::abs(planes_simd.r[pi] - planes_scalar.r[pi]) <=
                gs::kSimdAbsTolerance &&
            std::abs(planes_simd.t[pi] - planes_scalar.t[pi]) <=
                gs::kSimdAbsTolerance;
  }

  // Batched VQ codebook gather (bitwise contract).
  Rng rng(17);
  const std::size_t dim = 45, entries = 256, n = 4096;
  std::vector<float> cb(dim * entries);
  for (auto& v : cb) v = rng.normal();
  std::vector<std::uint32_t> gidx(n);
  for (auto& i : gidx) i = static_cast<std::uint32_t>(rng.uniform_index(entries));
  std::vector<float> dst_scalar(n * gs::kShCoeffCount, 0.0f);
  std::vector<float> dst_simd(n * gs::kShCoeffCount, 0.0f);
  const auto gather_pass = [&](std::vector<float>& dst) {
    for (std::size_t c = 0; c < 3; ++c) {
      gs::gather_codebook_column(dst.data() + c, gs::kShCoeffCount, cb.data(),
                                 gidx.data(), n, dim, c);
    }
  };
  double gather_scalar_ms, gather_simd_ms;
  {
    const simd::ScopedForceIsa pin(simd::IsaLevel::kScalar);
    gather_scalar_ms = best_ms([&] { gather_pass(dst_scalar); });
  }
  {
    const simd::ScopedForceIsa pin(top);
    gather_simd_ms = best_ms([&] { gather_pass(dst_simd); });
  }
  match = match && std::memcmp(dst_scalar.data(), dst_simd.data(),
                               dst_scalar.size() * sizeof(float)) == 0;

  // VQ nearest-centroid assignment: brute force vs the exact pruned search
  // codebook training uses (bitwise contract). Centroids are the first k
  // records' scale (3-D) or SH-rest (45-D) vectors, queries the next 4096.
  const auto vq_model = bench_model(8192);
  const auto group = [&](std::size_t dim, std::size_t first, std::size_t count) {
    std::vector<float> out;
    out.reserve(count * dim);
    for (std::size_t i = first; i < first + count; ++i) {
      const gs::Gaussian& g = vq_model.gaussians[i];
      if (dim == 3) {
        out.insert(out.end(), {g.scale.x, g.scale.y, g.scale.z});
      } else {
        for (int c = 1; c < gs::kShCoeffCount; ++c) {
          out.insert(out.end(), {g.sh[c].x, g.sh[c].y, g.sh[c].z});
        }
      }
    }
    return out;
  };
  struct AssignRow {
    double brute_ms, pruned_ms;
  };
  bool assign_match = true;
  const auto assign_row = [&](std::size_t dim, std::size_t k) {
    const std::size_t queries = 4096;
    const auto centroids = group(dim, 0, k);
    const auto points = group(dim, k, queries);
    std::vector<std::uint32_t> brute(queries), pruned(queries);
    AssignRow row;
    row.brute_ms = best_ms([&] {
      for (std::size_t i = 0; i < queries; ++i) {
        brute[i] = vq::nearest_centroid(centroids, dim, {points.data() + i * dim, dim});
      }
    });
    // One worker, like the brute-force loop: the row times the search.
    const int saved = parallelism();
    set_parallelism(1);
    row.pruned_ms = best_ms([&] { vq::assign_nearest(centroids, dim, points, pruned); });
    set_parallelism(saved);
    assign_match = assign_match && brute == pruned;
    return row;
  };
  const AssignRow assign_d3 = assign_row(3, 4096);
  const AssignRow assign_d45 = assign_row(45, 512);

  const auto speedup = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"isa_detected\": \"" << simd::isa_name(top) << "\",\n"
       << "  \"records\": " << cols.size() << ",\n"
       << "  \"coarse_aos_ms\": " << aos_ms << ",\n"
       << "  \"coarse_scalar_ms\": " << coarse_scalar_ms << ",\n"
       << "  \"coarse_simd_ms\": " << coarse_simd_ms << ",\n"
       << "  \"coarse_soa_vs_aos_speedup\": " << speedup(aos_ms, coarse_simd_ms)
       << ",\n"
       << "  \"coarse_simd_speedup\": "
       << speedup(coarse_scalar_ms, coarse_simd_ms) << ",\n"
       << "  \"fine_scalar_ms\": " << fine_scalar_ms << ",\n"
       << "  \"fine_simd_ms\": " << fine_simd_ms << ",\n"
       << "  \"fine_simd_speedup\": " << speedup(fine_scalar_ms, fine_simd_ms)
       << ",\n"
       << "  \"sh_scalar_ms\": " << sh_scalar_ms << ",\n"
       << "  \"sh_simd_ms\": " << sh_simd_ms << ",\n"
       << "  \"sh_simd_speedup\": " << speedup(sh_scalar_ms, sh_simd_ms) << ",\n"
       << "  \"blend_scalar_ms\": " << blend_scalar_ms << ",\n"
       << "  \"blend_simd_ms\": " << blend_simd_ms << ",\n"
       << "  \"blend_simd_speedup\": "
       << speedup(blend_scalar_ms, blend_simd_ms) << ",\n"
       << "  \"vq_gather_scalar_ms\": " << gather_scalar_ms << ",\n"
       << "  \"vq_gather_simd_ms\": " << gather_simd_ms << ",\n"
       << "  \"vq_gather_simd_speedup\": "
       << speedup(gather_scalar_ms, gather_simd_ms) << ",\n"
       << "  \"vq_assign_d3_brute_ms\": " << assign_d3.brute_ms << ",\n"
       << "  \"vq_assign_d3_pruned_ms\": " << assign_d3.pruned_ms << ",\n"
       << "  \"vq_assign_d3_speedup\": "
       << speedup(assign_d3.brute_ms, assign_d3.pruned_ms) << ",\n"
       << "  \"vq_assign_d45_brute_ms\": " << assign_d45.brute_ms << ",\n"
       << "  \"vq_assign_d45_pruned_ms\": " << assign_d45.pruned_ms << ",\n"
       << "  \"vq_assign_d45_speedup\": "
       << speedup(assign_d45.brute_ms, assign_d45.pruned_ms) << ",\n"
       << "  \"vq_assign_match\": " << (assign_match ? "true" : "false") << ",\n"
       << "  \"kernels_match\": " << (match ? "true" : "false") << "\n"
       << "}\n";
  std::printf("wrote %s (isa %s, kernels_match %s, vq_assign_match %s)\n",
              out_path.c_str(), simd::isa_name(top), match ? "true" : "false",
              assign_match ? "true" : "false");
  return match && assign_match;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool json_only = false;
  // Peel our own flags before google-benchmark parses the rest.
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json_only") {
      json_only = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;

  if (!emit_kernels_json(out_path)) {
    std::fprintf(stderr, "FAILED: scalar-vs-SIMD kernel outputs diverged "
                         "beyond the tolerance contract, or the pruned VQ "
                         "assignment differs from brute force\n");
    return 1;
  }
  if (json_only) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
