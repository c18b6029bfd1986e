// Frame scheduler: runs every pixel group of a FramePlan through the staged
// GroupPipeline on the persistent worker pool.
//
// Ownership model: the scheduler keeps one GroupContext scratch arena per
// pool worker, so consecutive groups (and consecutive frames, when the
// scheduler is kept alive by a SequenceRenderer) reuse the same buffers and
// the hot loop never reallocates. Group results land in per-group slots and
// are merged in group-index order after the parallel section, which makes
// every counter — including the unique-Gaussian sets — deterministic under
// any dynamic schedule.
//
// Thread-safety: one FrameScheduler renders one frame at a time — its
// per-worker arenas are reused across calls, so render_frame must not be
// invoked concurrently on the same instance. Distinct instances (e.g. one
// per viewer session in a serve::SceneServer) may render concurrently:
// their pool jobs serialize FIFO-fairly on the shared worker pool, or,
// under an InlineLoopScope (common/parallel.hpp), each frame runs
// serially on its own thread in arena 0 — safe because no other thread
// renders through this instance. A cache-backed `source` must itself be
// thread-safe (ResidencyCache is).
// Within a frame, the pipeline calls source->acquire()/release() from any
// worker concurrently; every acquired view is released before the frame
// returns, and plan-level pinning is the *caller's* job (the sequence
// renderer brackets the frame with the source's begin_frame/end_frame).
#pragma once

#include <vector>

#include "core/frame_plan.hpp"
#include "core/group_pipeline.hpp"
#include "core/streaming_renderer.hpp"

namespace sgs::core {

class FrameScheduler {
 public:
  FrameScheduler();

  // Renders one frame: every group of `plan` through the staged pipeline.
  // `camera` must match the plan's image geometry — same size and
  // intrinsics; the pose may differ when sequence rendering reuses a plan.
  // A geometry mismatch throws std::invalid_argument (a stale plan would
  // otherwise mis-tile the frame silently). `source` supplies voxel-group
  // data: nullptr renders fully resident from `scene`; a cache-backed
  // source (src/stream/) renders out of core — the caller brackets the
  // frame with begin_frame/end_frame in that case.
  StreamingRenderResult render_frame(const StreamingScene& scene,
                                     const gs::Camera& camera,
                                     const FramePlan& plan,
                                     const StreamingRenderOptions& options,
                                     stream::GroupSource* source = nullptr);

 private:
  std::vector<GroupContext> contexts_;  // one per pool worker
};

}  // namespace sgs::core
