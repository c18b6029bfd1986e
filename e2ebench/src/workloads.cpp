// The three workloads of the end-to-end benchmark.
//
//   resident_walk  raw train x0.05 (52.5k Gaussians) at res 0.5, fully
//                  resident, one viewer: the frame layer alone. The viewer
//                  walks eight seeded scenes in turn, so one run averages
//                  over scene content.
//   ooc_walk       VQ train x0.01 (10.5k Gaussians) at res 0.4, written as a
//                  3-tier .sgsc and rendered through ResidencyCache +
//                  StreamingLoader at a 35% decoded budget: codebook
//                  training in set-up, residency in every frame.
//   serve_fleet    raw train x0.02 written as two stores (voxel 2.0 and
//                  3.0), 16 closed-loop sessions round-robin over the two
//                  scenes and spread around the orbit, driven by
//                  SceneServer::run under a global budget that holds the
//                  fleet's working set.
//
// Each scene is set up several times (set-up time is the median). After
// set-up, kColdStarts fresh renderers (caches, servers) each render a cold
// first frame at evenly spaced orbit phases; the last one then renders the
// steady window. LOD is forced to L0 everywhere, so every streamed frame
// has an exact resident reference; the checks run after the window.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/render_sequence.hpp"
#include "core/streaming_renderer.hpp"
#include "harness.hpp"
#include "metrics/psnr.hpp"
#include "obs/trace.hpp"
#include "serve/scene_server.hpp"
#include "stream/asset_store.hpp"
#include "stream/residency_cache.hpp"
#include "stream/streaming_loader.hpp"
#include "voxel/grid.hpp"
#include "vq/codebook.hpp"
#include "vq/quantized_model.hpp"

namespace e2e {
namespace {

namespace core = sgs::core;
namespace stream = sgs::stream;
namespace serve = sgs::serve;

// Orbit fraction per frame: ~0.5 degrees, so the plan-reuse envelope
// (0.04 rad, a quarter voxel) covers about four frames.
constexpr float kStep = 0.0015f;
constexpr float kVoxelSize = 2.0f;  // train preset, paper Sec. V-A
// Cold first frames per scene, at evenly spaced orbit phases.
constexpr int kColdStarts = 8;

core::SequenceOptions walk_options(float voxel_size, bool stage_timing) {
  core::SequenceOptions seq;
  seq.reuse_max_translation = 0.25f * voxel_size;
  seq.reuse_max_rotation_rad = 0.04f;
  seq.render.collect_stage_timing = stage_timing;
  return seq;
}

double ns_to_ms(double ns) { return ns / 1e6; }

float cold_start_phase(int i) {
  return static_cast<float>(i) / static_cast<float>(kColdStarts);
}

// Times `fn` in ms.
template <typename Fn>
double timed_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

// ------------------------------------------------------------------ set-up --

// Wall time of each set-up step of one repetition, ms. `construct` is
// renderer (+ cache + loader, or SceneServer + session opens).
struct SetupTimes {
  double prepare = 0, write = 0, open = 0, construct = 0, total = 0;
};

struct SetupLedger {
  std::vector<SetupTimes> reps;

  double median(double SetupTimes::*field) const {
    Samples s;
    for (const SetupTimes& r : reps) s.add(r.*field);
    return s.median();
  }
  // Share of set-up wall time inside the timed steps.
  double coverage_pct() const {
    Samples s;
    for (const SetupTimes& r : reps) {
      s.add(100.0 * (r.prepare + r.write + r.open + r.construct) / r.total);
    }
    return s.median();
  }
  void print() const {
    std::printf("  set-up (median of %zu): %.1f ms = prepare %.1f + write "
                "%.1f + open %.1f + construct %.1f\n",
                reps.size(), median(&SetupTimes::total),
                median(&SetupTimes::prepare), median(&SetupTimes::write),
                median(&SetupTimes::open), median(&SetupTimes::construct));
  }
};

// --------------------------------------------------------------- frames ---

// Counts one rendered frame against the run: failed when any group was
// served degraded, errored or failed.
void count_frame(WorkloadResult& result, const core::StreamingRenderResult& r) {
  const core::StreamCacheStats& c = r.trace.cache;
  ++result.attempted;
  if (c.fetch_errors > 0 || c.degraded_groups > 0 || c.failed_groups > 0) {
    ++result.failed;
  }
}

// Everything a steady window learns from its frames; accumulates over
// every window segment of a run.
struct Window {
  Samples latency_ms;
  Samples queue_wait_ms;
  double wall_ms = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t stall_frames = 0;
  double frame_wall_ns = 0.0;
  std::uint64_t pool_jobs = 0, pool_wait_ns = 0;
  core::StageTimingsNs stages;
  core::StreamCacheStats cache;
  double gaussians_streamed = 0, fine_pass = 0, blend_ops = 0, dram_bytes = 0;

  void add(const core::StreamingRenderResult& r, double ms) {
    latency_ms.add(ms);
    queue_wait_ms.add(ns_to_ms(static_cast<double>(r.trace.queue_wait_ns)));
    ++frames;
    if (r.trace.cache.misses > 0) ++stall_frames;
    frame_wall_ns += static_cast<double>(r.frame_wall_ns);
    stages.accumulate(r.trace.total_stage_ns());
    cache.accumulate(r.trace.cache);
    gaussians_streamed += static_cast<double>(r.stats.gaussians_streamed);
    fine_pass += static_cast<double>(r.stats.fine_pass);
    blend_ops += static_cast<double>(r.stats.blend_ops);
    dram_bytes += static_cast<double>(r.stats.total_dram_bytes());
  }
  double per_frame(double total) const {
    return frames == 0 ? 0.0 : total / static_cast<double>(frames);
  }
};

// Brackets a window segment: wall time and thread-pool counter deltas.
class SegmentClock {
 public:
  explicit SegmentClock(Window& w)
      : w_(&w),
        jobs0_(sgs::pool_jobs_completed()),
        wait0_(sgs::pool_submit_wait_ns()),
        t0_(Clock::now()) {}
  ~SegmentClock() {
    w_->wall_ms += ms_since(t0_);
    w_->pool_jobs += sgs::pool_jobs_completed() - jobs0_;
    w_->pool_wait_ns += sgs::pool_submit_wait_ns() - wait0_;
  }
  SegmentClock(const SegmentClock&) = delete;
  SegmentClock& operator=(const SegmentClock&) = delete;

 private:
  Window* w_;
  std::uint64_t jobs0_, wait0_;
  Clock::time_point t0_;
};

// A frame kept for the PSNR check.
struct KeptFrame {
  std::uint32_t scene = 0;
  sgs::gs::Camera camera;
  sgs::Image image;
};

// Seeded picks of `count` distinct frames in [1, max_frame].
std::vector<std::size_t> pick_frames(std::uint64_t seed, std::size_t count,
                                     std::size_t max_frame) {
  std::vector<std::size_t> picks;
  for (std::uint64_t i = 0; picks.size() < count; ++i) {
    const std::size_t f = 1 + mix64(seed * 977 + i) % max_frame;
    if (std::find(picks.begin(), picks.end(), f) == picks.end()) {
      picks.push_back(f);
    }
  }
  return picks;
}

// What one viewer keeps of its frames for the checks: frame 0 and the
// `keep` picks for the PSNR check, hashes of every frame when hashing.
struct Capture {
  bool hash = false;
  std::vector<std::uint64_t> hashes;  // walk frames 0..
  std::vector<std::size_t> keep;
  std::vector<KeptFrame> kept;

  void record(std::size_t f, const Walk& walk,
              core::StreamingRenderResult& r) {
    if (hash) hashes.push_back(hash_image(r.image));
    if (f == 0 || std::find(keep.begin(), keep.end(), f) != keep.end()) {
      kept.push_back({0, walk.camera(f), std::move(r.image)});
    }
  }
};

// Renders walk frame 0 on a fresh renderer; returns its latency in ms.
double render_first_frame(core::SequenceRenderer& renderer, const Walk& walk,
                          Capture& capture, WorkloadResult& result) {
  const auto t0 = Clock::now();
  core::StreamingRenderResult r = renderer.render(walk.camera(0));
  const double ms = ms_since(t0);
  count_frame(result, r);
  capture.record(0, walk, r);
  return ms;
}

// Renders walk frames 1.. for at least `seconds` and `min_frames` frames.
void render_steady_window(core::SequenceRenderer& renderer, const Walk& walk,
                          double seconds, std::size_t min_frames, Window& w,
                          Capture& capture, WorkloadResult& result) {
  SegmentClock clock(w);
  const auto start = Clock::now();
  for (std::size_t f = 1;
       ms_since(start) < seconds * 1e3 || f <= min_frames; ++f) {
    const sgs::gs::Camera cam = walk.camera(f);
    const auto t0 = Clock::now();
    core::StreamingRenderResult r = renderer.render(cam);
    w.add(r, ms_since(t0));
    count_frame(result, r);
    capture.record(f, walk, r);
  }
}

// Renders the walk's first `frames` frames resident and hashes them: the
// exact reference of a streamed run at L0.
std::vector<std::uint64_t> reference_hashes(const core::StreamingScene& scene,
                                            const Walk& walk,
                                            std::size_t frames) {
  core::SequenceRenderer renderer(scene, walk_options(kVoxelSize, false));
  std::vector<std::uint64_t> out;
  out.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    out.push_back(hash_image(renderer.render(walk.camera(f)).image));
  }
  return out;
}

// Byte check of a walk's frames; returns the number of frames checked.
std::size_t check_bytes(const std::vector<std::uint64_t>& frames,
                        const std::vector<std::uint64_t>& reference,
                        const std::string& what, WorkloadResult& result) {
  const std::size_t bad = count_mismatches(frames, reference);
  if (bad > 0) {
    result.fail(what + ": " + std::to_string(bad) + " of " +
                std::to_string(frames.size()) +
                " frames differ from the resident reference");
  }
  return frames.size();
}

// PSNR (dB) of each kept frame against the tile-centric reference of its
// scene's parameters; self-tests every gate on the first frame.
std::vector<double> psnr_of(
    const std::vector<KeptFrame>& kept,
    const std::function<const sgs::gs::GaussianModel&(std::uint32_t)>&
        model_of,
    WorkloadResult& result) {
  std::vector<double> dbs;
  sgs::Image first_ref;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    sgs::Image ref = tile_reference(model_of(kept[i].scene), kept[i].camera);
    dbs.push_back(sgs::metrics::psnr_capped(ref, kept[i].image));
    if (i == 0) first_ref = std::move(ref);
  }
  if (!kept.empty() && !self_test_checks(kept[0].image, first_ref, dbs)) {
    result.fail("a check accepted a perturbed reference");
  }
  return dbs;
}

struct PsnrSample {
  double min_db = 0.0;
  double median_db = 0.0;
};

// The PSNR gate over a run's whole sample.
PsnrSample check_psnr(const std::vector<double>& dbs, WorkloadResult& result) {
  const std::string why = psnr_gate(dbs);
  if (!why.empty()) result.fail("PSNR gate: " + why);
  Samples s;
  for (const double db : dbs) s.add(db);
  std::printf("  PSNR over %zu frames: min %.2f, median %.2f dB (floors %.0f "
              "per frame, %.0f median)\n",
              s.size(), s.percentile(0.0), s.median(), kPsnrFrameFloorDb,
              kPsnrMedianFloorDb);
  return {s.percentile(0.0), s.median()};
}

// ------------------------------------------------------------- metrics ---

void set_e2e(WorkloadResult& result, const SetupLedger& setup,
             const Samples& first_frames, const Window& w,
             const PsnrSample& psnr) {
  const double ok_pct =
      result.attempted == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
  result.e2e = {
      {"setup_s", setup.median(&SetupTimes::total) / 1e3, "s"},
      {"first_frame_ms", first_frames.median(), "ms"},
      {"frame_ms_p50", w.latency_ms.percentile(0.50), "ms"},
      {"frame_ms_p95", w.latency_ms.percentile(0.95), "ms"},
      {"fps", static_cast<double>(w.frames) / (w.wall_ms / 1e3), "frames/s"},
      {"ok_pct", ok_pct, "%"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"psnr_p50_db", psnr.median_db, "dB"},
  };
  std::printf("  samples: %zu frame latencies (%zu beyond p95), %zu first "
              "frames, %zu set-ups; %llu/%llu frames failed\n",
              w.latency_ms.size(), w.latency_ms.beyond(0.95),
              first_frames.size(), setup.reps.size(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
}

// Per-layer metrics: every workload reports every name (0 where the layer
// is not exercised), so a traced run always has the full table. Counters
// and times of the frame are per frame of the traced window; stage times
// are summed over the pool's workers.
class LayerTable {
 public:
  LayerTable() {
    for (const auto& [name, unit] : kNames) {
      index_[name] = metrics_.size();
      metrics_.push_back({name, 0.0, unit});
    }
  }
  void set(const std::string& name, double value) {
    metrics_.at(index_.at(name)).value = value;
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  static constexpr std::pair<const char*, const char*> kNames[] = {
      {"vq.build_ms", "ms"},
      {"vq.kmeans_ms", "ms"},
      {"vq.lloyd_ms", "ms"},
      {"vq.refine_ms", "ms"},
      {"voxel.grid_build_ms", "ms"},
      {"core.prepare_ms", "ms"},
      {"core.prepare_self_ms", "ms"},
      {"stream.store_write_ms", "ms"},
      {"stream.store_bytes", "B"},
      {"stream.store_open_ms", "ms"},
      {"stream.cache_open_ms", "ms"},
      {"serve.open_ms", "ms"},
      {"setup.coverage_pct", "%"},
      {"core.plan_ms", "ms"},
      {"core.vsu_ms", "ms"},
      {"core.filter_ms", "ms"},
      {"core.sort_ms", "ms"},
      {"core.blend_ms", "ms"},
      {"core.plans_built", "1/frame"},
      {"core.plans_reused", "1/frame"},
      {"core.gaussians_streamed_per_frame", "count"},
      {"core.fine_pass_per_frame", "count"},
      {"core.blend_ops_per_frame", "count"},
      {"core.dram_mb_per_frame", "MiB"},
      {"common.pool_jobs", "1/frame"},
      {"common.pool_submit_wait_ms", "ms"},
      {"stream.acquire_calls", "1/frame"},
      {"stream.acquire_ms", "ms"},
      {"stream.begin_frame_ms", "ms"},
      {"stream.read_calls", "1/frame"},
      {"stream.read_mb", "MiB"},
      {"stream.read_ms", "ms"},
      {"stream.fetch_ms", "ms"},
      {"stream.decode_ms", "ms"},
      {"stream.hit_rate", "ratio"},
      {"stream.misses", "1/frame"},
      {"stream.prefetches", "1/frame"},
      {"stream.evictions", "1/frame"},
      {"stream.fetches_per_group", "ratio"},
      {"stream.stall_frames_pct", "%"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p95", "ms"},
      {"serve.driver_busy_pct", "%"},
      {"serve.fairness_index", "ratio"},
      {"serve.shared_hit_rate", "ratio"},
      {"serve.merged_prefetch_requests", "1/frame"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.trace_events_per_frame", "count"},
      {"quality.psnr_min_db", "dB"},
  };
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;
};

void set_setup_layers(LayerTable& t, const SetupLedger& setup) {
  t.set("core.prepare_ms", setup.median(&SetupTimes::prepare));
  t.set("stream.store_write_ms", setup.median(&SetupTimes::write));
  t.set("stream.store_open_ms", setup.median(&SetupTimes::open));
  t.set("setup.coverage_pct", setup.coverage_pct());
}

// Frame-layer metrics of the traced window. Plan counts cover every frame
// the traced renderers drew, first frames included.
void set_frame_layers(LayerTable& t, const Window& w, double plans_built,
                      double plans_reused) {
  const core::StageTimingsNs& s = w.stages;
  const auto pf = [&](double v) { return w.per_frame(v); };
  const double drawn = plans_built + plans_reused;
  t.set("core.plan_ms", ns_to_ms(pf(static_cast<double>(s.plan))));
  t.set("core.vsu_ms", ns_to_ms(pf(static_cast<double>(s.vsu))));
  t.set("core.filter_ms", ns_to_ms(pf(static_cast<double>(s.filter))));
  t.set("core.sort_ms", ns_to_ms(pf(static_cast<double>(s.sort))));
  t.set("core.blend_ms", ns_to_ms(pf(static_cast<double>(s.blend))));
  t.set("stream.fetch_ms", ns_to_ms(pf(static_cast<double>(s.fetch))));
  t.set("stream.decode_ms", ns_to_ms(pf(static_cast<double>(s.decode))));
  t.set("core.plans_built", drawn > 0.0 ? plans_built / drawn : 0.0);
  t.set("core.plans_reused", drawn > 0.0 ? plans_reused / drawn : 0.0);
  t.set("core.gaussians_streamed_per_frame", pf(w.gaussians_streamed));
  t.set("core.fine_pass_per_frame", pf(w.fine_pass));
  t.set("core.blend_ops_per_frame", pf(w.blend_ops));
  t.set("core.dram_mb_per_frame", pf(w.dram_bytes) / (1024.0 * 1024.0));
  t.set("common.pool_jobs", pf(static_cast<double>(w.pool_jobs)));
  t.set("common.pool_submit_wait_ms",
        ns_to_ms(pf(static_cast<double>(w.pool_wait_ns))));
}

// Residency-layer metrics from the cache counters and the timed backends.
void set_residency_layers(LayerTable& t, const Window& w,
                          const TimedBackend::Counters& reads) {
  const core::StreamCacheStats& c = w.cache;
  const auto pf = [&](double v) { return w.per_frame(v); };
  t.set("stream.read_calls", pf(static_cast<double>(reads.reads)));
  t.set("stream.read_mb",
        pf(static_cast<double>(reads.bytes)) / (1024.0 * 1024.0));
  t.set("stream.read_ms", ns_to_ms(pf(static_cast<double>(reads.ns))));
  t.set("stream.hit_rate", c.hit_rate());
  t.set("stream.misses", pf(static_cast<double>(c.misses)));
  t.set("stream.prefetches", pf(static_cast<double>(c.prefetches)));
  t.set("stream.evictions", pf(static_cast<double>(c.evictions)));
  t.set("stream.fetches_per_group",
        reads.distinct_ranges == 0
            ? 0.0
            : static_cast<double>(reads.reads) /
                  static_cast<double>(reads.distinct_ranges));
  t.set("stream.stall_frames_pct",
        100.0 * pf(static_cast<double>(w.stall_frames)));
}

void set_overhead(LayerTable& t, const Window& untraced, const Window& traced,
                  double events) {
  const double base = untraced.latency_ms.median();
  const double with = traced.latency_ms.median();
  t.set("obs.trace_overhead_pct",
        base > 0.0 ? 100.0 * (with - base) / base : 0.0);
  t.set("obs.trace_events_per_frame", traced.per_frame(events));
  std::printf("  tracing: frame p50 %.3f ms untraced, %.3f ms traced, %.0f "
              "events\n",
              base, with, events);
}

// Span tracing on while in scope.
class TraceScope {
 public:
  TraceScope() {
    sgs::obs::trace_reset();
    sgs::obs::set_trace_enabled(true);
  }
  ~TraceScope() { sgs::obs::set_trace_enabled(false); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  // Events emitted since construction, dropped ones included.
  static double events() {
    std::size_t n = 0;
    for (const auto& t : sgs::obs::trace_collect()) n += t.events.size();
    return static_cast<double>(n + sgs::obs::trace_dropped_total());
  }
};

// Bench-side copy of QuantizedModel's four parameter groups (scale,
// rotation, DC, SH rest), so train_codebook can be timed on its own.
std::vector<float> vq_group(const sgs::gs::GaussianModel& model, int which) {
  std::vector<float> out;
  for (const auto& g : model.gaussians) {
    switch (which) {
      case 0:
        out.insert(out.end(), {g.scale.x, g.scale.y, g.scale.z});
        break;
      case 1: {
        const auto q = g.rotation.normalized();
        out.insert(out.end(), {q.w, q.x, q.y, q.z});
        break;
      }
      case 2:
        out.insert(out.end(), {g.sh[0].x, g.sh[0].y, g.sh[0].z});
        break;
      default:
        for (std::size_t k = 1; k < g.sh.size(); ++k) {
          out.insert(out.end(), {g.sh[k].x, g.sh[k].y, g.sh[k].z});
        }
    }
  }
  return out;
}

// vq.* split: build, the four train_codebook calls at build config, and
// the same calls with no Lloyd iterations (seeding + final assignment).
// Returns vq.build_ms.
double set_vq_layers(LayerTable& t, const sgs::gs::GaussianModel& model,
                     const sgs::vq::VqConfig& vq) {
  const double build_ms =
      timed_ms([&] { (void)sgs::vq::QuantizedModel::build(model, vq); });
  const std::size_t dims[] = {3, 4, 3, 45};
  const std::uint32_t entries[] = {vq.scale_entries, vq.rotation_entries,
                                   vq.dc_entries, vq.sh_entries};
  double kmeans_ms = 0.0, seeding_ms = 0.0;
  for (int which = 0; which < 4; ++which) {
    const std::vector<float> data = vq_group(model, which);
    sgs::vq::KMeansConfig kc;
    kc.k = entries[which];
    kc.max_iters = vq.kmeans_iters;
    kc.max_train_samples = vq.max_train_samples;
    kc.seed = vq.seed + static_cast<std::uint64_t>(which) * 101;
    kmeans_ms += timed_ms(
        [&] { (void)sgs::vq::train_codebook(data, dims[which], kc); });
    kc.max_iters = 0;
    seeding_ms += timed_ms(
        [&] { (void)sgs::vq::train_codebook(data, dims[which], kc); });
  }
  t.set("vq.build_ms", build_ms);
  t.set("vq.kmeans_ms", kmeans_ms);
  t.set("vq.lloyd_ms", kmeans_ms - seeding_ms);
  t.set("vq.refine_ms", build_ms - kmeans_ms);
  return build_ms;
}

double grid_build_ms(const sgs::gs::GaussianModel& model, float voxel_size) {
  return timed_ms(
      [&] { (void)sgs::voxel::VoxelGrid::build(model, voxel_size); });
}

// ------------------------------------------------------------ resident ---

constexpr std::uint32_t kResidentScenes = 8;
constexpr int kResidentSetupReps = 5;
constexpr std::size_t kResidentPsnrPicks = 7;  // per scene, plus frame 0

}  // namespace

WorkloadResult run_resident_walk(const RunOptions& opt) {
  WorkloadResult result;
  core::StreamingConfig cfg;
  cfg.voxel_size = kVoxelSize;
  cfg.use_vq = false;
  // Each scene gets an equal share of the window (halved again when the
  // traced window follows the untraced one).
  const double seconds =
      opt.seconds / (kResidentScenes * (opt.trace ? 2.0 : 1.0));
  const std::size_t min_frames = kMinWindowFrames / kResidentScenes;

  SetupLedger setup;
  Samples first_frames;
  Window steady, traced;
  std::vector<double> psnr_db;
  double grid_ms = 0.0, events = 0.0;
  double plans_built = 0.0, plans_reused = 0.0;
  for (std::uint32_t k = 0; k < kResidentScenes; ++k) {
    const std::uint64_t scene_seed = opt.seed * kResidentScenes + k;
    const sgs::gs::GaussianModel model = make_model(0.05f, scene_seed);
    core::StreamingScene scene;
    std::unique_ptr<core::SequenceRenderer> renderer;
    for (int rep = 0; rep < kResidentSetupReps; ++rep) {
      renderer.reset();
      scene = {};
      release_free_memory();
      SetupTimes t;
      const auto t0 = Clock::now();
      t.prepare =
          timed_ms([&] { scene = core::StreamingScene::prepare(model, cfg); });
      t.construct = timed_ms([&] {
        renderer = std::make_unique<core::SequenceRenderer>(
            scene, walk_options(kVoxelSize, false));
      });
      t.total = ms_since(t0);
      setup.reps.push_back(t);
    }
    Walk walk;
    Capture capture;
    for (int i = 0; i < kColdStarts; ++i) {
      walk = Walk::make(0.5f, scene_seed, kStep, cold_start_phase(i));
      renderer = std::make_unique<core::SequenceRenderer>(
          scene, walk_options(kVoxelSize, false));
      capture = {};
      first_frames.add(render_first_frame(*renderer, walk, capture, result));
    }
    if (k == 0) {
      std::printf("resident_walk: %u scenes x %zu Gaussians, %dx%d, seed "
                  "%llu\n",
                  kResidentScenes, model.size(), walk.width, walk.height,
                  static_cast<unsigned long long>(opt.seed));
    }
    capture.keep = pick_frames(scene_seed, kResidentPsnrPicks, min_frames);
    render_steady_window(*renderer, walk, seconds, min_frames, steady,
                         capture, result);

    if (opt.trace) {
      grid_ms += grid_build_ms(model, kVoxelSize);
      core::SequenceRenderer traced_renderer(scene,
                                             walk_options(kVoxelSize, true));
      capture = {};
      capture.keep = pick_frames(scene_seed, kResidentPsnrPicks, min_frames);
      {
        TraceScope scope;
        render_first_frame(traced_renderer, walk, capture, result);
        render_steady_window(traced_renderer, walk, seconds, min_frames,
                             traced, capture, result);
        events += TraceScope::events();
      }
      plans_built += static_cast<double>(traced_renderer.stats().plans_built);
      plans_reused +=
          static_cast<double>(traced_renderer.stats().plans_reused);
    }
    const std::vector<double> dbs = psnr_of(
        capture.kept,
        [&](std::uint32_t) -> const sgs::gs::GaussianModel& {
          return scene.render_model();
        },
        result);
    psnr_db.insert(psnr_db.end(), dbs.begin(), dbs.end());
  }
  setup.print();
  const PsnrSample psnr = check_psnr(psnr_db, result);

  if (!opt.trace) {
    set_e2e(result, setup, first_frames, steady, psnr);
    return result;
  }
  LayerTable t;
  set_setup_layers(t, setup);
  t.set("quality.psnr_min_db", psnr.min_db);
  grid_ms /= kResidentScenes;
  t.set("voxel.grid_build_ms", grid_ms);
  t.set("core.prepare_self_ms", setup.median(&SetupTimes::prepare) - grid_ms);
  set_frame_layers(t, traced, plans_built, plans_reused);
  set_overhead(t, steady, traced, events);
  result.layers = t.take();
  return result;
}

namespace {

// ----------------------------------------------------------------- ooc ----

constexpr int kOocSetupReps = 3;
constexpr std::size_t kOocPsnrPicks = 1;  // per walk, plus frame 0

// Declaration order is teardown order reversed: the renderer goes first,
// the store last.
struct OocPipeline {
  std::shared_ptr<TimedBackend> backend;  // traced pipelines only
  std::unique_ptr<stream::AssetStore> store;
  std::unique_ptr<stream::ResidencyCache> cache;
  std::unique_ptr<stream::StreamingLoader> loader;
  std::unique_ptr<TimedSource> timed;  // traced pipelines only
  core::StreamingScene scene;
  std::unique_ptr<core::SequenceRenderer> renderer;

  // Drains prefetches, then drops everything above the store.
  void drop_cache() {
    if (loader) loader->wait_idle();
    renderer.reset();
    timed.reset();
    loader.reset();
    cache.reset();
  }
  void reset() {
    drop_cache();
    store.reset();
    backend.reset();
  }
};

}  // namespace

WorkloadResult run_ooc_walk(const RunOptions& opt) {
  WorkloadResult result;
  const sgs::gs::GaussianModel model = make_model(0.01f, opt.seed);
  core::StreamingConfig cfg;  // VQ at the paper's codebook sizes
  cfg.voxel_size = kVoxelSize;
  const std::string store_path = opt.work_dir + "/ooc_walk.sgsc";
  const double seconds = opt.seconds / (opt.trace ? 2.0 : 1.0);

  stream::AssetStoreWriteOptions wopts;
  wopts.tier_count = 3;
  stream::PrefetchConfig pcfg;
  pcfg.lod.force_tier0 = true;

  // Fresh cache, loader and renderer over the open store.
  const auto construct = [&](OocPipeline& p, bool traced) {
    p.drop_cache();
    stream::ResidencyCacheConfig ccfg;
    ccfg.budget_bytes = p.store->decoded_bytes_total() * 35 / 100;
    p.cache = std::make_unique<stream::ResidencyCache>(*p.store, ccfg);
    p.loader = std::make_unique<stream::StreamingLoader>(*p.cache, pcfg);
    stream::GroupSource* source = p.loader.get();
    if (traced) {
      p.timed = std::make_unique<TimedSource>(*p.loader);
      source = p.timed.get();
    }
    p.scene = p.store->make_scene();
    p.renderer = std::make_unique<core::SequenceRenderer>(
        p.scene, walk_options(kVoxelSize, traced), source);
  };

  SetupLedger setup;
  core::StreamingScene resident;  // the prepared scene: exact reference
  OocPipeline pipe;
  for (int rep = 0; rep < kOocSetupReps; ++rep) {
    pipe.reset();
    resident = {};
    release_free_memory();
    SetupTimes t;
    const auto t0 = Clock::now();
    t.prepare =
        timed_ms([&] { resident = core::StreamingScene::prepare(model, cfg); });
    bool written = false;
    t.write = timed_ms([&] {
      written = stream::AssetStore::write(store_path, resident, wopts);
    });
    if (!written) {
      result.fail("could not write " + store_path);
      return result;
    }
    t.open = timed_ms(
        [&] { pipe.store = std::make_unique<stream::AssetStore>(store_path); });
    t.construct = timed_ms([&] { construct(pipe, false); });
    t.total = ms_since(t0);
    setup.reps.push_back(t);
  }
  setup.print();

  // kColdStarts viewers walk in turn, each from a fresh cache at an evenly
  // spaced orbit phase for an equal share of the window, so one run samples
  // the whole orbit. Every frame is byte-checked against the resident
  // render of the same walk.
  struct WalkTotals {
    std::uint64_t acquire_calls = 0, acquire_ns = 0, begin_frame_ns = 0;
    double plans_built = 0.0, plans_reused = 0.0;
    std::vector<double> psnr_db;
  };
  const auto walk_all = [&](bool traced, Window& w, Samples* first_frames,
                            WalkTotals& totals) {
    std::size_t checked = 0;
    for (int i = 0; i < kColdStarts; ++i) {
      const Walk walk = Walk::make(0.4f, opt.seed, kStep, cold_start_phase(i));
      construct(pipe, traced);
      Capture capture;
      capture.hash = true;
      capture.keep = pick_frames(opt.seed * kColdStarts + i, kOocPsnrPicks,
                                 kMinWindowFrames / kColdStarts);
      const double first_ms =
          render_first_frame(*pipe.renderer, walk, capture, result);
      if (first_frames != nullptr) first_frames->add(first_ms);
      render_steady_window(*pipe.renderer, walk, seconds / kColdStarts,
                           kMinWindowFrames / kColdStarts, w, capture, result);
      pipe.loader->wait_idle();
      if (traced) {
        totals.acquire_calls += pipe.timed->acquire_calls();
        totals.acquire_ns += pipe.timed->acquire_ns();
        totals.begin_frame_ns += pipe.timed->begin_frame_ns();
      }
      totals.plans_built +=
          static_cast<double>(pipe.renderer->stats().plans_built);
      totals.plans_reused +=
          static_cast<double>(pipe.renderer->stats().plans_reused);
      checked += check_bytes(
          capture.hashes,
          reference_hashes(resident, walk, capture.hashes.size()),
          "ooc_walk walk " + std::to_string(i), result);
      const std::vector<double> dbs = psnr_of(
          capture.kept,
          [&](std::uint32_t) -> const sgs::gs::GaussianModel& {
            return resident.render_model();
          },
          result);
      totals.psnr_db.insert(totals.psnr_db.end(), dbs.begin(), dbs.end());
    }
    std::printf("  byte check: %zu frames against the resident reference\n",
                checked);
  };
  std::printf("ooc_walk: %zu Gaussians, 400x224, seed %llu\n", model.size(),
              static_cast<unsigned long long>(opt.seed));

  Samples first_frames;
  Window steady;
  WalkTotals untraced;
  walk_all(false, steady, &first_frames, untraced);
  if (!opt.trace) {
    set_e2e(result, setup, first_frames, steady,
            check_psnr(untraced.psnr_db, result));
    return result;
  }

  LayerTable t;
  set_setup_layers(t, setup);
  t.set("stream.cache_open_ms", setup.median(&SetupTimes::construct));
  t.set("stream.store_bytes",
        static_cast<double>(std::filesystem::file_size(store_path)));
  const double vq_ms = set_vq_layers(t, model, cfg.vq);
  const double grid_ms = grid_build_ms(model, kVoxelSize);
  t.set("voxel.grid_build_ms", grid_ms);
  t.set("core.prepare_self_ms",
        setup.median(&SetupTimes::prepare) - vq_ms - grid_ms);

  // The traced walks read the store through the timed backend.
  pipe.reset();
  pipe.backend = std::make_shared<TimedBackend>(
      std::make_shared<stream::LocalFileBackend>(store_path));
  pipe.store = std::make_unique<stream::AssetStore>(pipe.backend);
  pipe.backend->reset();  // open-time metadata reads belong to set-up
  Window traced;
  WalkTotals totals;
  double events = 0.0;
  {
    TraceScope scope;
    walk_all(true, traced, nullptr, totals);
    events = TraceScope::events();
  }
  t.set("quality.psnr_min_db", check_psnr(totals.psnr_db, result).min_db);
  set_frame_layers(t, traced, totals.plans_built, totals.plans_reused);
  set_residency_layers(t, traced, pipe.backend->counters());
  const auto pf = [&](std::uint64_t v) {
    return traced.per_frame(static_cast<double>(v));
  };
  t.set("stream.acquire_calls", pf(totals.acquire_calls));
  t.set("stream.acquire_ms", ns_to_ms(pf(totals.acquire_ns)));
  t.set("stream.begin_frame_ms", ns_to_ms(pf(totals.begin_frame_ns)));
  set_overhead(t, steady, traced, events);
  result.layers = t.take();
  return result;
}

namespace {

// --------------------------------------------------------------- serve ----

constexpr std::uint32_t kFleetSessions = 16;
constexpr std::uint32_t kFleetScenes = 2;
constexpr int kFleetSetupReps = 9;
constexpr std::size_t kSegmentFrames = 8;    // frames per session per run()
constexpr std::size_t kCheckedSessions = 4;  // sessions byte-checked
constexpr std::size_t kFleetPsnrSamples = 32;

struct FleetPipeline {
  std::vector<std::shared_ptr<TimedBackend>> backends;  // traced only
  std::vector<std::unique_ptr<stream::AssetStore>> stores;
  std::unique_ptr<serve::SceneServer> server;

  void reset() {
    server.reset();
    stores.clear();
    backends.clear();
  }
};

// One server's frames: hashed (checked sessions) or kept (PSNR picks) as
// each run() segment returns, then dropped, so resident memory measures
// the server rather than retained images.
struct FleetCapture {
  std::vector<Walk> walks;  // per session
  std::vector<std::size_t> next_frame =
      std::vector<std::size_t>(kFleetSessions, 0);
  std::vector<std::uint32_t> checked;              // byte-checked sessions
  std::vector<std::vector<std::uint64_t>> hashes;  // per checked session
  std::vector<std::pair<std::uint32_t, std::size_t>> keep;  // (session, f)
  std::vector<KeptFrame> kept;
};

// Sessions spread evenly around the orbit (shifted by the cold-start
// phase); two byte-checked sessions per scene and PSNR picks among the
// first segment, all from the seed.
FleetCapture make_fleet_capture(std::uint64_t seed, int cold_start) {
  FleetCapture c;
  for (std::uint32_t s = 0; s < kFleetSessions; ++s) {
    c.walks.push_back(Walk::make(
        0.25f, seed, kStep,
        (static_cast<float>(s) + cold_start_phase(cold_start)) /
            static_cast<float>(kFleetSessions)));
  }
  for (std::uint64_t i = 0; c.checked.size() < kCheckedSessions; ++i) {
    const std::uint32_t scene =
        static_cast<std::uint32_t>(c.checked.size() % kFleetScenes);
    const std::uint32_t s = static_cast<std::uint32_t>(
        (mix64(seed * 131 + i) % (kFleetSessions / kFleetScenes)) *
            kFleetScenes +
        scene);
    if (std::find(c.checked.begin(), c.checked.end(), s) == c.checked.end()) {
      c.checked.push_back(s);
    }
  }
  c.hashes.assign(c.checked.size(), {});
  for (std::uint64_t i = 0; c.keep.size() < kFleetPsnrSamples; ++i) {
    const std::uint64_t r = mix64(seed * 7919 + i);
    const std::pair<std::uint32_t, std::size_t> pick{
        static_cast<std::uint32_t>(r % kFleetSessions),
        static_cast<std::size_t>((r >> 32) % (1 + kSegmentFrames))};
    if (std::find(c.keep.begin(), c.keep.end(), pick) == c.keep.end()) {
      c.keep.push_back(pick);
    }
  }
  return c;
}

// Drives every session `frames` frames further through SceneServer::run;
// a frame's latency is its queue wait plus its wall time. Steady segments
// go into `w`; first frames (frame 0) into `first_frames`.
void run_segment(serve::SceneServer& server, std::size_t frames,
                 FleetCapture& c, Window* w, Samples* first_frames,
                 WorkloadResult& result) {
  std::vector<std::vector<sgs::gs::Camera>> paths(kFleetSessions);
  for (std::uint32_t s = 0; s < kFleetSessions; ++s) {
    for (std::size_t k = 0; k < frames; ++k) {
      paths[s].push_back(c.walks[s].camera(c.next_frame[s] + k));
    }
  }
  serve::ServerRunResult out;
  if (w != nullptr) {
    SegmentClock clock(*w);
    out = server.run(paths);
  } else {
    out = server.run(paths);
  }
  for (std::uint32_t s = 0; s < kFleetSessions; ++s) {
    const auto checked = std::find(c.checked.begin(), c.checked.end(), s);
    for (std::size_t k = 0; k < out.sessions[s].size(); ++k) {
      core::StreamingRenderResult& r = out.sessions[s][k];
      const std::size_t f = c.next_frame[s] + k;
      const double ms = ns_to_ms(static_cast<double>(r.trace.queue_wait_ns +
                                                     r.frame_wall_ns));
      count_frame(result, r);
      if (w != nullptr) w->add(r, ms);
      if (first_frames != nullptr && f == 0) first_frames->add(ms);
      if (checked != c.checked.end()) {
        c.hashes[static_cast<std::size_t>(checked - c.checked.begin())]
            .push_back(hash_image(r.image));
      }
      const std::pair<std::uint32_t, std::size_t> at{s, f};
      if (std::find(c.keep.begin(), c.keep.end(), at) != c.keep.end()) {
        c.kept.push_back(
            {s % kFleetScenes, c.walks[s].camera(f), std::move(r.image)});
      }
    }
    c.next_frame[s] += out.sessions[s].size();
  }
}

void render_fleet_window(serve::SceneServer& server, double seconds,
                         FleetCapture& c, Window& w, WorkloadResult& result) {
  while (w.wall_ms < seconds * 1e3 || w.frames < kMinWindowFrames) {
    run_segment(server, kSegmentFrames, c, &w, nullptr, result);
  }
}

}  // namespace

WorkloadResult run_serve_fleet(const RunOptions& opt) {
  WorkloadResult result;
  const sgs::gs::GaussianModel model = make_model(0.02f, opt.seed);
  const double seconds = opt.seconds / (opt.trace ? 2.0 : 1.0);
  std::vector<core::StreamingConfig> cfgs(kFleetScenes);
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < kFleetScenes; ++k) {
    cfgs[k].voxel_size = kVoxelSize * (1.0f + 0.5f * static_cast<float>(k));
    cfgs[k].use_vq = false;
    paths.push_back(opt.work_dir + "/serve_fleet_" + std::to_string(k) +
                    ".sgsc");
  }

  // SceneServer over the open stores, with every session opened.
  const auto construct = [&](FleetPipeline& p, bool traced) {
    p.server.reset();
    serve::SceneServerConfig sc;
    std::vector<const stream::AssetStore*> stores;
    for (const auto& st : p.stores) {
      sc.cache.budget_bytes += st->decoded_bytes_total();
      stores.push_back(st.get());
    }
    sc.lod.force_tier0 = true;
    sc.prefetch.lod.force_tier0 = true;
    sc.sequence = walk_options(kVoxelSize, traced);
    sc.max_concurrent_frames = opt.threads;
    p.server = std::make_unique<serve::SceneServer>(stores, sc);
    for (std::uint32_t s = 0; s < kFleetSessions; ++s) {
      (void)p.server->open_session(sc.lod, s % kFleetScenes);
    }
  };

  SetupLedger setup;
  std::vector<core::StreamingScene> resident(kFleetScenes);
  FleetPipeline pipe;
  for (int rep = 0; rep < kFleetSetupReps; ++rep) {
    pipe.reset();
    for (auto& r : resident) r = {};
    release_free_memory();
    SetupTimes t;
    const auto t0 = Clock::now();
    for (std::uint32_t k = 0; k < kFleetScenes; ++k) {
      t.prepare += timed_ms(
          [&] { resident[k] = core::StreamingScene::prepare(model, cfgs[k]); });
      bool written = false;
      t.write += timed_ms(
          [&] { written = stream::AssetStore::write(paths[k], resident[k]); });
      if (!written) {
        result.fail("could not write " + paths[k]);
        return result;
      }
      t.open += timed_ms([&] {
        pipe.stores.push_back(std::make_unique<stream::AssetStore>(paths[k]));
      });
    }
    t.construct = timed_ms([&] { construct(pipe, false); });
    t.total = ms_since(t0);
    setup.reps.push_back(t);
  }
  setup.print();

  // Cold starts: a fresh server renders every session's first frame; the
  // last one goes on into the steady window.
  Samples first_frames;
  FleetCapture capture;
  for (int i = 0; i < kColdStarts; ++i) {
    construct(pipe, false);
    capture = make_fleet_capture(opt.seed, i);
    run_segment(*pipe.server, 1, capture, nullptr, &first_frames, result);
  }
  std::printf("serve_fleet: %zu Gaussians x %u scenes, %u sessions, %dx%d, "
              "%d drivers, seed %llu\n",
              model.size(), kFleetScenes, kFleetSessions,
              capture.walks[0].width, capture.walks[0].height, opt.threads,
              static_cast<unsigned long long>(opt.seed));

  // Failures the server counts itself, the byte check of the sampled
  // sessions, and the PSNR of the kept frames.
  const auto check = [&](FleetCapture& c, serve::SceneServer& server) {
    const serve::ServerReport rep = server.report();
    result.failed += rep.admission_rejects + rep.async_lane_errors;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < c.checked.size(); ++i) {
      const std::uint32_t s = c.checked[i];
      checked += check_bytes(
          c.hashes[i],
          reference_hashes(resident[s % kFleetScenes], c.walks[s],
                           c.hashes[i].size()),
          "serve_fleet session " + std::to_string(s), result);
    }
    std::printf("  byte check: %zu frames of %zu sessions against the "
                "resident reference\n",
                checked, c.checked.size());
    return check_psnr(
        psnr_of(c.kept,
                [&](std::uint32_t scene) -> const sgs::gs::GaussianModel& {
                  return resident[scene].render_model();
                },
                result),
        result);
  };

  Window steady;
  render_fleet_window(*pipe.server, seconds, capture, steady, result);
  if (!opt.trace) {
    set_e2e(result, setup, first_frames, steady,
            check(capture, *pipe.server));
    return result;
  }

  LayerTable t;
  set_setup_layers(t, setup);
  t.set("serve.open_ms", setup.median(&SetupTimes::construct));
  double store_bytes = 0.0, grid_ms = 0.0;
  for (std::uint32_t k = 0; k < kFleetScenes; ++k) {
    store_bytes += static_cast<double>(std::filesystem::file_size(paths[k]));
    grid_ms += grid_build_ms(model, cfgs[k].voxel_size);
  }
  t.set("stream.store_bytes", store_bytes);
  t.set("voxel.grid_build_ms", grid_ms);
  t.set("core.prepare_self_ms", setup.median(&SetupTimes::prepare) - grid_ms);

  // The traced server reads its stores through timed backends.
  pipe.reset();
  for (const std::string& p : paths) {
    pipe.backends.push_back(std::make_shared<TimedBackend>(
        std::make_shared<stream::LocalFileBackend>(p)));
    pipe.stores.push_back(
        std::make_unique<stream::AssetStore>(pipe.backends.back()));
  }
  construct(pipe, true);
  for (const auto& b : pipe.backends) b->reset();
  capture = make_fleet_capture(opt.seed, kColdStarts - 1);
  Window traced;
  double events = 0.0;
  {
    TraceScope scope;
    run_segment(*pipe.server, 1, capture, nullptr, nullptr, result);
    render_fleet_window(*pipe.server, seconds, capture, traced, result);
    events = TraceScope::events();
  }
  t.set("quality.psnr_min_db", check(capture, *pipe.server).min_db);

  const serve::ServerReport rep = pipe.server->report();
  double plans_built = 0.0, plans_reused = 0.0;
  for (const serve::SessionReport& s : rep.sessions) {
    plans_built += static_cast<double>(s.plans_built);
    plans_reused += static_cast<double>(s.plans_reused);
  }
  set_frame_layers(t, traced, plans_built, plans_reused);
  TimedBackend::Counters reads;
  for (const auto& b : pipe.backends) {
    const TimedBackend::Counters c = b->counters();
    reads.reads += c.reads;
    reads.bytes += c.bytes;
    reads.ns += c.ns;
    reads.distinct_ranges += c.distinct_ranges;
  }
  set_residency_layers(t, traced, reads);
  // Session-attributed frame counters carry no evictions; the shards do.
  t.set("stream.evictions",
        traced.per_frame(static_cast<double>(rep.shared_cache.evictions)));
  t.set("serve.queue_wait_ms_p50", traced.queue_wait_ms.percentile(0.50));
  t.set("serve.queue_wait_ms_p95", traced.queue_wait_ms.percentile(0.95));
  t.set("serve.driver_busy_pct",
        100.0 * ns_to_ms(traced.frame_wall_ns) /
            (traced.wall_ms * static_cast<double>(opt.threads)));
  t.set("serve.fairness_index", rep.fairness_index);
  t.set("serve.shared_hit_rate", rep.global_hit_rate);
  t.set("serve.merged_prefetch_requests",
        traced.per_frame(static_cast<double>(rep.merged_prefetch_requests)));
  set_overhead(t, steady, traced, events);
  result.layers = t.take();
  return result;
}

}  // namespace e2e
