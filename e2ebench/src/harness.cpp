#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/streaming_trace.hpp"
#include "metrics/psnr.hpp"
#include "render/tile_renderer.hpp"
#include "scene/generator.hpp"
#include "scene/presets.hpp"

namespace e2e {

using sgs::core::stage_clock_ns;

void WorkloadResult::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

std::size_t Samples::beyond(double q) const {
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  return values_.size() - std::min(values_.size(),
                                   static_cast<std::size_t>(rank));
}

sgs::gs::GaussianModel make_model(float model_scale, std::uint64_t seed) {
  sgs::scene::GeneratorConfig cfg = sgs::scene::preset_generator_config(
      sgs::scene::ScenePreset::kTrain, model_scale);
  cfg.seed = seed;
  return sgs::scene::generate_scene(cfg);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Walk Walk::make(float res_scale, std::uint64_t seed, float step,
                float extra_phase) {
  Walk w;
  sgs::scene::scaled_resolution(sgs::scene::ScenePreset::kTrain, res_scale,
                                w.width, w.height);
  // Orbit phase in [0, 1) from the seed's top 24 bits.
  w.phase = static_cast<float>(mix64(seed) >> 40) / 16777216.0f + extra_phase;
  w.step = step;
  return w;
}

sgs::gs::Camera Walk::camera(std::size_t frame) const {
  const double t = static_cast<double>(phase) +
                   static_cast<double>(step) * static_cast<double>(frame);
  return sgs::scene::make_preset_camera(
      sgs::scene::ScenePreset::kTrain, width, height,
      static_cast<float>(t - std::floor(t)));
}

std::uint64_t hash_image(const sgs::Image& image) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(image.width()) << 32 |
                          static_cast<std::uint32_t>(image.height()));
  const auto& px = image.pixels();
  const char* bytes = reinterpret_cast<const char*>(px.data());
  const std::size_t n = px.size() * sizeof(px[0]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, 8);
    h = (h ^ w) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001B3ull;
  }
  return mix64(h);
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::size_t count_mismatches(const std::vector<std::uint64_t>& frames,
                             const std::vector<std::uint64_t>& reference) {
  std::size_t bad = frames.size() > reference.size()
                        ? frames.size() - reference.size()
                        : reference.size() - frames.size();
  const std::size_t n = std::min(frames.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) bad += frames[i] != reference[i];
  return bad;
}

sgs::Image tile_reference(const sgs::gs::GaussianModel& model,
                          const sgs::gs::Camera& camera) {
  return sgs::render::render_tile_centric(model, camera).image;
}

std::string psnr_gate(const std::vector<double>& psnr_db) {
  Samples s;
  double min_db = 1e300;
  for (const double db : psnr_db) {
    s.add(db);
    min_db = std::min(min_db, db);
  }
  if (psnr_db.empty()) return "no frame sampled";
  if (min_db < kPsnrFrameFloorDb) {
    return "a frame at " + std::to_string(min_db) + " dB";
  }
  if (s.median() < kPsnrMedianFloorDb) {
    return "median " + std::to_string(s.median()) + " dB";
  }
  return {};
}

bool self_test_checks(const sgs::Image& frame, const sgs::Image& tile_ref,
                      const std::vector<double>& psnr_db) {
  bool ok = true;
  const auto expect_reject = [&](bool rejected, const char* what) {
    if (!rejected) {
      std::fprintf(stderr, "self-test: %s\n", what);
      ok = false;
    }
  };
  // Byte check: flip the lowest mantissa bit of one channel of one pixel.
  sgs::Image flipped = frame;
  auto& px = flipped.pixels()[flipped.pixel_count() / 2];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &px.x, 4);
  bits ^= 1u;
  std::memcpy(&px.x, &bits, 4);
  expect_reject(count_mismatches({hash_image(frame)}, {hash_image(flipped)}) > 0,
                "byte check accepted a flipped bit");
  // Frame floor: one reference with every channel inverted.
  sgs::Image inverted = tile_ref;
  for (auto& p : inverted.pixels()) p = {1.0f - p.x, 1.0f - p.y, 1.0f - p.z};
  std::vector<double> sample = psnr_db;
  sample.at(0) = sgs::metrics::psnr_capped(inverted, frame);
  expect_reject(!psnr_gate(sample).empty(),
                "PSNR gate accepted an inverted reference");
  // Median floor: every fourth pixel shifted by 0.2 (about 25 dB) on every
  // frame's reference.
  sgs::Image noisy = tile_ref;
  for (std::size_t i = 0; i < noisy.pixel_count(); i += 4) {
    auto& p = noisy.pixels()[i];
    p.x = p.x > 0.5f ? p.x - 0.2f : p.x + 0.2f;
  }
  sample.assign(psnr_db.size(), sgs::metrics::psnr_capped(noisy, frame));
  expect_reject(!psnr_gate(sample).empty(),
                "PSNR gate accepted noisy references");
  return ok;
}

void TimedSource::begin_frame(
    const sgs::stream::FrameIntent& intent,
    std::span<const sgs::voxel::DenseVoxelId> plan) {
  const std::uint64_t t0 = stage_clock_ns();
  inner_->begin_frame(intent, plan);
  begin_frame_ns_ += stage_clock_ns() - t0;
}

void TimedSource::end_frame() { inner_->end_frame(); }

sgs::stream::GroupView TimedSource::acquire(sgs::voxel::DenseVoxelId v) {
  const std::uint64_t t0 = stage_clock_ns();
  sgs::stream::GroupView view = inner_->acquire(v);
  acquire_ns_.fetch_add(stage_clock_ns() - t0, std::memory_order_relaxed);
  acquire_calls_.fetch_add(1, std::memory_order_relaxed);
  return view;
}

void TimedSource::release(sgs::voxel::DenseVoxelId v) { inner_->release(v); }

sgs::core::StreamCacheStats TimedSource::stats() const {
  return inner_->stats();
}

TimedBackend::TimedBackend(std::shared_ptr<sgs::stream::FetchBackend> inner)
    : inner_(std::move(inner)) {}

sgs::stream::StreamResult<sgs::stream::FetchInfo> TimedBackend::read_range(
    std::uint64_t offset, std::span<char> dst) {
  const std::uint64_t t0 = stage_clock_ns();
  auto result = inner_->read_range(offset, dst);
  const std::uint64_t ns = stage_clock_ns() - t0;
  std::lock_guard<std::mutex> lk(mutex_);
  ++counters_.reads;
  counters_.bytes += dst.size();
  counters_.ns += ns;
  if (ranges_.insert(offset).second) ++counters_.distinct_ranges;
  return result;
}

TimedBackend::Counters TimedBackend::counters() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return counters_;
}

void TimedBackend::reset() {
  std::lock_guard<std::mutex> lk(mutex_);
  counters_ = {};
  ranges_.clear();
}

}  // namespace e2e
