#include "core/streaming_renderer.hpp"

#include <utility>

#include "core/frame_plan.hpp"
#include "core/frame_scheduler.hpp"
#include "obs/trace.hpp"

namespace sgs::core {

StreamingScene StreamingScene::prepare(const gs::GaussianModel& model,
                                       const StreamingConfig& config) {
  SGS_TRACE_SPAN("prepare", "prepare", "gaussians", model.size(), "vq",
                 config.use_vq ? 1 : 0);
  StreamingScene scene;
  scene.config_ = config;
  scene.original_model_ = model;

  if (config.use_vq) {
    scene.quantized_ = std::make_unique<vq::QuantizedModel>(
        vq::QuantizedModel::build(model, config.vq));
    scene.render_model_ = scene.quantized_->decode_all();
  } else {
    scene.render_model_ = model;
  }

  // The grid partitions by (exact) positions, which VQ leaves untouched.
  scene.grid_ = voxel::VoxelGrid::build(model, config.voxel_size);
  scene.layout_ = voxel::DataLayout(scene.grid_, config.use_vq);

  scene.coarse_max_scale_.resize(model.size());
  for (std::uint32_t i = 0; i < model.size(); ++i) {
    scene.coarse_max_scale_[i] =
        scene.render_model_.gaussians[i].max_scale();
  }

  // Grouped SoA copy of the render parameters: dense voxel v's residents as
  // one contiguous column slice, in gaussians_in(v) order. Exact float
  // copies of render_model_ / coarse_max_scale_, so a cache entry decoding
  // the same records yields bitwise-equal columns (the OOC == resident
  // invariant).
  const std::size_t n_voxels = scene.grid_.voxel_count();
  scene.group_offsets_.resize(n_voxels + 1);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n_voxels; ++v) {
    scene.group_offsets_[v] = total;
    total += scene.grid_.gaussians_in(static_cast<voxel::DenseVoxelId>(v))
                 .size();
  }
  scene.group_offsets_[n_voxels] = total;
  scene.group_columns_.resize(total);
  for (std::size_t v = 0; v < n_voxels; ++v) {
    const auto residents =
        scene.grid_.gaussians_in(static_cast<voxel::DenseVoxelId>(v));
    std::size_t k = scene.group_offsets_[v];
    for (const std::uint32_t mi : residents) {
      scene.group_columns_.set(k++, scene.render_model_.gaussians[mi],
                               scene.coarse_max_scale_[mi]);
    }
  }
  return scene;
}

StreamingScene StreamingScene::from_parts(const StreamingConfig& config,
                                          voxel::VoxelGrid grid) {
  StreamingScene scene;
  scene.config_ = config;
  scene.grid_ = std::move(grid);
  scene.layout_ = voxel::DataLayout(scene.grid_, config.use_vq);
  return scene;
}

StreamingRenderResult render_streaming(const StreamingScene& scene,
                                       const gs::Camera& camera,
                                       const StreamingRenderOptions& options) {
  // Single-frame entry point: build the plan with the renderer's 1 px
  // binning margin (bit-exact with the pre-pipeline monolith) and run the
  // staged pipeline once. Sequence rendering (render_sequence.hpp) keeps the
  // plan and scheduler alive across frames instead.
  std::uint64_t plan_ns = 0;
  const FramePlan plan = FramePlan::build_timed(
      scene.grid(), camera, scene.config().group_size, /*margin_px=*/1.0f,
      options.collect_stage_timing, plan_ns);

  FrameScheduler scheduler;
  StreamingRenderResult result =
      scheduler.render_frame(scene, camera, plan, options);
  result.trace.plan_build_ns = plan_ns;
  return result;
}

}  // namespace sgs::core
