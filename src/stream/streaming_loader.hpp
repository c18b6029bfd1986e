// StreamingLoader: prefetch-driven GroupSource for out-of-core rendering —
// plus the shared, session-aware fetch queue a multi-viewer server uses.
//
// StreamingLoader decorates a ResidencyCache: pinning passes straight
// through, acquire/release go through a per-frame view table (below), and
// begin_frame() additionally (a) selects a payload tier per plan group
// through its LodPolicy — acquire() then requests that tier, so distant
// groups stream importance-pruned subsets — and (b) ranks the store's
// fetch-worthy voxel groups by predicted visibility for the frame's camera
// — inflated by the caller's motion envelope, so groups about to enter the
// frustum are fetched *before* the frame that needs them — and fetches the
// best-ranked ones on the pool's async lane while the frame renders on the
// main workers. A demand miss still stalls the
// render worker that hits it; the loader's job is making those stalls rare.
//
// Ranking (rank_prefetch_groups): a group is a candidate when its directory
// AABB, padded by the envelope's worst-case projection drift, touches the
// image rect and it is not already resident at (or better than) the tier
// the policy wants for it; candidates are ordered near-to-far (near groups
// are streamed by more pixel groups and occlude far ones). Per frame,
// fetches are capped by a group-count and a byte budget — the
// fetch-bandwidth knob — with each candidate charged at its tier's bytes.
//
// Prefetch scheduling is a PRIORITY queue, not a FIFO: both front-ends
// push PrefetchRequests — priority = the ranking's near-to-far depth, ties
// broken by ascending group id so equal-rank order is deterministic — into
// a PrefetchPriorityQueue and drain it most-urgent-first. A demand acquire
// that missed its frame's fetch deadline (served from the cache's coarse
// floor, see residency_cache.hpp) re-queues its wanted tier at
// kUrgentPriority, ahead of every ranked candidate, so the group streams
// in at full fidelity for the following frames instead of being blocked
// on. Requests may carry their own deadline; a request that expires before
// its pop is dropped (expired_requests()) — its frame is already over.
//
// SharedPrefetchQueue is the N-session variant: every session enqueues its
// own ranking into ONE priority queue over one or more per-scene cache
// shards (requests are keyed by (scene, group, tier)). Requests for a
// (scene, group) already pending at the same or a better tier are merged
// (fetched once, counted in merged_requests()), and every drain task runs
// the queue dry — so no session starves: a request pushed before batch k's
// drain is fetched no later than that drain, regardless of which session
// or scene pushed it.
//
// Frame view table (memory-centric acquires): the pipeline acquires every
// voxel group once per pixel group, but inside a begin_frame/end_frame
// bracket StreamingLoader touches its cache ONCE per group. It keeps one
// slot per dense voxel id. The first acquire of a group in the frame calls
// ResidencyCache::acquire_outcome, publishes the view and its served tier
// in the slot, and keeps that single cache pin until end_frame. Later
// acquires of the group, from any worker, return the published view
// without taking the cache mutex; while the first is still in flight they
// wait on the slot (as they would wait on the cache's `loading` mark), and
// release() of a shared group is a no-op. end_frame releases each shared
// pin once, resets only the touched slots, then ends the cache's frame.
// Shared serves count as hits at the served tier in stats(), so hits +
// misses still equal the pipeline's acquires. Deadline fallbacks and
// degraded serves are NOT shared: every acquire of such a group in that
// frame goes to the cache exactly as it would without the table. Outside a
// bracket, acquire and release pass straight through.
//
// Holding a pin for the whole frame is safe because the loader is its
// cache's only bracket driver and its tier selection fixes one tier per
// group per frame: no acquire inside the frame wants to upgrade a group
// whose pin the frame holds, and the prefetcher skips upgrades of pinned
// groups. Views served inside a bracket must be released before end_frame
// (the pipeline does), and a view acquired outside one must be released
// outside one. Under a finite
// fetch deadline, a worker that finds a group's first acquire still
// fetching waits for that fetch instead of falling back at the deadline.
//
// Thread-safety: StreamingLoader assumes one driving session (its frame
// bracket is the single-session GroupSource contract), but its fetches run
// concurrently with render workers. SharedPrefetchQueue::enqueue and both
// classes' fallback re-queues are safe from any number of threads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stream/bandwidth_estimator.hpp"
#include "stream/lod_policy.hpp"
#include "stream/residency_cache.hpp"

namespace sgs::stream {

class SessionCacheStats;

struct PrefetchConfig {
  // Per-frame fetch-ahead caps (bandwidth budget per frame).
  std::size_t max_groups_per_frame = 64;
  std::uint64_t max_bytes_per_frame = 16ull << 20;
  // The motion envelope is assumed to persist for this many frames: the
  // visibility pad grows with it, so the prefetcher looks further ahead
  // along the camera's drift than a single frame's reuse bound.
  float lookahead_frames = 4.0f;
  // Fetch inline inside begin_frame/enqueue instead of on the async lane.
  // Slower (the fetch no longer overlaps rendering) but fully deterministic
  // — what the golden tests and reproducible benchmarks use.
  bool synchronous = false;
  // Per-frame demand-fetch deadline, RELATIVE nanoseconds from
  // begin_frame. kNoFetchDeadline keeps demand misses blocking (the
  // bit-exact pre-floor behavior); 0 expires instantly, so every miss of a
  // floor-backed group serves the coarse tier — deterministic zero-stall.
  // An intent carrying its own fetch_deadline_ns overrides this.
  std::uint64_t fetch_deadline_ns = kNoFetchDeadline;
  // Tier selection for plan groups and prefetch candidates. The defaults
  // adapt on multi-tier stores and degenerate to L0 on v1 stores;
  // lod.force_tier0 restores bit-exact out-of-core rendering everywhere.
  LodPolicy lod;
};

// Priority of deadline-fallback re-queues: sorts ahead of every ranked
// candidate (ranking priorities are camera distances, >= 0).
inline constexpr float kUrgentPriority = -1.0f;

// One group worth fetching, at the tier the policy wants it. Requests are
// keyed by (scene, group, tier): `scene` indexes the shard cache of a
// multi-scene SharedPrefetchQueue (always 0 for single-scene front-ends),
// so two scenes' groups with the same dense id never merge.
struct PrefetchRequest {
  voxel::DenseVoxelId id = 0;
  std::uint32_t scene = 0;
  std::uint8_t tier = 0;
  // Queue ordering key: lower pops first (the ranking stores its
  // near-to-far camera distance here; demand re-queues use
  // kUrgentPriority). Ties pop by ascending group id — deterministic.
  float priority = 0.0f;
  // Drop-dead time on core::stage_clock_ns: a request still pending at its
  // deadline is dropped at pop (the frame that wanted it is already
  // over). kNoFetchDeadline = never expires.
  std::uint64_t deadline_ns = kNoFetchDeadline;
  // Attribution sink credited if this request's fetch lands (nullable).
  SessionCacheStats* sink = nullptr;
};

// The deduplicated, deadline-aware priority queue both prefetch front-ends
// schedule on. push() merges against pending work: a group already pending
// at the same or a better tier absorbs the new request (merged(),
// dropped); a strictly better tier supersedes the pending one. pop()
// yields the most urgent live request — lowest priority value first, ties
// by ascending group id — dropping expired requests (expired()) on the
// way. Thread-safe; pop order for a fixed push set is deterministic.
class PrefetchPriorityQueue {
 public:
  // True when the request entered the queue; false when it was merged into
  // a pending same-or-better request.
  bool push(const PrefetchRequest& request);
  // Pops the most urgent live request into *out. False when the queue ran
  // dry. `now_ns` is the expiry clock (pass core::stage_clock_ns()).
  bool pop(PrefetchRequest* out, std::uint64_t now_ns);
  // Pending (pushed, not yet popped or merged-away) requests.
  std::size_t pending() const;
  // Requests absorbed by an already-pending same-or-better request.
  std::uint64_t merged() const;
  // Requests dropped at pop because their deadline had passed.
  std::uint64_t expired() const;

 private:
  struct Node {
    float priority = 0.0f;
    voxel::DenseVoxelId id = 0;
    std::uint32_t scene = 0;
    std::uint8_t tier = 0;
    std::uint64_t deadline_ns = kNoFetchDeadline;
    SessionCacheStats* sink = nullptr;
  };
  // Min-heap order: lowest (priority, scene, id) pops first — scene joins
  // the tie-break so equal-rank pop order stays deterministic on a
  // multi-scene queue.
  static bool later(const Node& a, const Node& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.scene != b.scene) return a.scene > b.scene;
    return a.id > b.id;
  }
  // Dedup key: requests merge per (scene, group); the mapped value is the
  // best tier pending for that pair.
  static std::uint64_t key(std::uint32_t scene, voxel::DenseVoxelId id) {
    return (std::uint64_t{scene} << 32) |
           static_cast<std::uint32_t>(id);
  }

  mutable std::mutex mutex_;
  std::vector<Node> heap_;
  // (scene, group) -> best tier pending. A heap node whose tier no longer
  // matches was superseded by a better-tier push and is skipped at pop
  // (lazy deletion keeps push O(log n) without heap surgery).
  std::unordered_map<std::uint64_t, std::uint8_t> pending_;
  std::uint64_t merged_ = 0;
  std::uint64_t expired_ = 0;
};

// Fetch-worthy groups for `intent` against `cache`'s store, best first
// (near-to-far), capped by the config's group/byte budgets. A group
// qualifies when it is absent or resident only at a worse tier than
// config.lod wants. The shared ranking core of StreamingLoader and
// SharedPrefetchQueue.
std::vector<PrefetchRequest> rank_prefetch_groups(
    const ResidencyCache& cache, const FrameIntent& intent,
    const PrefetchConfig& config);

// Thread-safe per-session cache-counter sink. A session's own front-end
// (serve::SessionSource) and the shared fetch queue both credit it: render
// workers record hits/misses concurrently while the async lane records the
// prefetches this session's intents initiated.
class SessionCacheStats {
 public:
  void record_acquire(const AcquireOutcome& outcome) {
    std::lock_guard<std::mutex> lk(mutex_);
    if (outcome.degraded) {
      // Served degraded (stale tier or empty view) because of an error
      // state. Counted under misses — the request was not satisfied at the
      // asked tier — with the failure attributed alongside.
      ++stats_.misses;
      ++stats_.tier_misses[static_cast<std::size_t>(outcome.requested_tier)];
      ++stats_.degraded_groups;
      if (outcome.fetch_errored) ++stats_.fetch_errors;
      if (outcome.group_failed) failed_seen_.insert(outcome.group);
    } else if (outcome.missed) {
      ++stats_.misses;
      ++stats_.tier_misses[static_cast<std::size_t>(outcome.requested_tier)];
      if (outcome.upgraded) ++stats_.upgrades;
      stats_.bytes_fetched += outcome.bytes_fetched;
      stats_.tier_bytes_fetched[static_cast<std::size_t>(
          outcome.requested_tier)] += outcome.bytes_fetched;
      stats_.net_bytes += outcome.bytes_fetched;
      stats_.net_stall_ns += outcome.fetch_ns;
      estimator_.observe(outcome.bytes_fetched, outcome.fetch_ns);
    } else {
      // Hits — including deadline fallbacks (outcome.coarse_fallback),
      // which are hits at the served floor/stale tier; the once-per-
      // (frame, group) fallback counter is credited separately through
      // record_coarse_fallback() by the frame front-end that dedups it.
      ++stats_.hits;
      ++stats_.tier_hits[static_cast<std::size_t>(outcome.served_tier)];
    }
  }
  // Called once per (frame, group) served from the coarse floor — the
  // front-end dedups, so session counters sum to the cache's global one.
  void record_coarse_fallback() {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.coarse_fallbacks;
  }
  // `net_ns` is the backend transfer time of the fetch (0 on a local disk
  // or perfect link) — it feeds this session's net counters and bandwidth
  // estimate alongside the byte traffic.
  void record_prefetch(std::uint64_t bytes, int tier = 0,
                       std::uint64_t net_ns = 0) {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.prefetches;
    ++stats_.tier_prefetches[static_cast<std::size_t>(tier)];
    stats_.bytes_fetched += bytes;
    stats_.tier_bytes_fetched[static_cast<std::size_t>(tier)] += bytes;
    stats_.net_bytes += bytes;
    stats_.net_stall_ns += net_ns;
    estimator_.observe(bytes, net_ns);
  }
  // ABR demotions this session's frame selection charged to the throughput
  // term (TierSelection::abr_demoted, credited once per begin_frame).
  void record_abr_demotions(std::uint32_t n) {
    if (n == 0) return;
    std::lock_guard<std::mutex> lk(mutex_);
    stats_.abr_demotions += n;
  }
  // This session's measured link estimate: what its frame front-end copies
  // into LodPolicy::link_bandwidth_bytes_per_sec before tier selection.
  // 0 until a transfer with non-zero duration completes.
  double estimated_bandwidth_bps() const {
    return estimator_.bandwidth_bytes_per_sec();
  }
  // A prefetch this session requested was attempted and errored (the batch
  // continues past it; the error is attributed here). Unlike the traffic
  // counters, errors are not tier-resolved in StreamCacheStats.
  void record_prefetch_error() {
    std::lock_guard<std::mutex> lk(mutex_);
    ++stats_.fetch_errors;
  }
  core::StreamCacheStats snapshot() const {
    std::lock_guard<std::mutex> lk(mutex_);
    core::StreamCacheStats s = stats_;
    // Session scope: DISTINCT permanently-failed groups this session
    // touched (the shared cache's counter is the global transition count).
    s.failed_groups = failed_seen_.size();
    return s;
  }

 private:
  mutable std::mutex mutex_;
  core::StreamCacheStats stats_;  // evictions stay 0: they are a property
                                  // of the shared cache, not of a session
  std::unordered_set<voxel::DenseVoxelId> failed_seen_;
  // Per-session link estimate over the transfers attributed to this
  // session (demand misses + credited prefetches). Own mutex: observe()
  // is called under mutex_, and the estimator's lock is a leaf.
  BandwidthEstimator estimator_;
};

class StreamingLoader final : public GroupSource {
 public:
  explicit StreamingLoader(ResidencyCache& cache, PrefetchConfig config = {});
  // Drains in-flight async fetches (they capture `this`).
  ~StreamingLoader() override;

  void begin_frame(const FrameIntent& intent,
                   std::span<const voxel::DenseVoxelId> plan_voxels) override;
  void end_frame() override;
  GroupView acquire(voxel::DenseVoxelId v) override;
  void release(voxel::DenseVoxelId v) override;
  core::StreamCacheStats stats() const override;

  // Ranking for this loader's cache and config. Exposed for tests.
  std::vector<PrefetchRequest> rank_prefetch(const FrameIntent& intent) const;

  // Blocks until all submitted prefetch batches have landed.
  void wait_idle() const;

  // The last begin_frame's tier selection (histogram + demotions), for
  // reporting degraded frames. Valid between begin_frame and the next.
  const TierSelection& frame_selection() const { return selection_; }

  // The loader's priority queue (pending/merged/expired introspection).
  const PrefetchPriorityQueue& queue() const { return queue_; }

  // The loader's link estimate over its completed demand + prefetch
  // transfers. begin_frame folds it into tier selection when the config's
  // LodPolicy enables the ABR term (abr_frame_budget_ns > 0).
  const BandwidthEstimator& estimator() const { return estimator_; }

  ResidencyCache& cache() { return *cache_; }
  const PrefetchConfig& config() const { return config_; }

 private:
  // One view-table slot per dense voxel id (see the header comment).
  struct Slot {
    static constexpr std::uint32_t kIdle = 0;     // not acquired this frame
    static constexpr std::uint32_t kLoading = 1;  // first acquire in flight
    static constexpr std::uint32_t kShared = 2;   // view published, pinned
    static constexpr std::uint32_t kDirect = 3;   // fallback/degraded: every
                                                  // acquire goes to the cache
    std::atomic<std::uint32_t> state{kIdle};
    int tier = 0;  // served tier of the shared view
    GroupView view;
  };

  void drain_queue();
  // The cache path: one acquire_outcome plus the loader's own accounting
  // (link estimate, once-per-frame fallback count and urgent re-queue).
  AcquireOutcome acquire_from_cache(voxel::DenseVoxelId v);

  ResidencyCache* cache_;
  PrefetchConfig config_;
  // The view table. `in_frame_` is set between begin_frame and end_frame;
  // touched_[0, touched_count_) are the slots that left kIdle this frame.
  std::unique_ptr<Slot[]> slots_;
  std::vector<voxel::DenseVoxelId> touched_;
  std::atomic<std::size_t> touched_count_{0};
  std::atomic<bool> in_frame_{false};
  // Shared serves per served tier (cache hits the cache never saw).
  std::array<std::atomic<std::uint64_t>, core::kLodTierCount> shared_hits_{};
  TierSelection selection_;  // tier_by_group consulted by acquire()
  PrefetchPriorityQueue queue_;
  // Link estimate fed by every completed transfer this loader triggered;
  // stats() reports the ABR demotions its frames accumulated (the cache's
  // global counter stays 0 — demotion is a front-end decision).
  BandwidthEstimator estimator_;
  std::atomic<std::uint64_t> abr_demotions_{0};
  // This frame's absolute demand-fetch deadline on core::stage_clock_ns
  // (computed in begin_frame from the intent's/config's relative budget).
  std::uint64_t frame_deadline_ns_ = kNoFetchDeadline;
  // Groups already served from the coarse floor this frame: acquire() runs
  // on every render worker, but the fallback counter and the urgent
  // re-queue must fire once per (frame, group).
  std::mutex fallback_mutex_;
  std::unordered_set<voxel::DenseVoxelId> fallback_seen_;
};

// One fetch queue shared by N viewer sessions over one or more per-scene
// ResidencyCache shards.
//
// Each session calls enqueue() at the top of its frame with its own camera
// intent, its scene index, and optionally its SessionCacheStats sink for
// attribution plus its own LodPolicy. The queue ranks the session's
// candidates against ITS scene's shard and pushes them into the shared
// PrefetchPriorityQueue keyed by (scene, group, tier) — groups already
// pending for *any* session of the same scene at the same or a better tier
// merge away (the request is served by the fetch already on its way);
// requests from different scenes never merge — then schedules a drain on
// the async FIFO lane. Every drain runs the queue dry, most-urgent-first
// across all scenes and sessions, so service is bounded for every session:
// a request pushed before batch k's drain is fetched no later than that
// drain, whoever pushed it.
class SharedPrefetchQueue {
 public:
  // Single-scene front-end (the PR 3 shape): one cache, scene index 0.
  explicit SharedPrefetchQueue(ResidencyCache& cache,
                               PrefetchConfig config = {});
  // Multi-scene front-end: shards[k] is scene k's cache. The shard set is
  // fixed for the queue's lifetime; every shard must outlive it. Throws
  // std::invalid_argument on an empty or null-holding shard list.
  SharedPrefetchQueue(std::vector<ResidencyCache*> shards,
                      PrefetchConfig config = {});
  // Drains in-flight batches (their tasks capture `this`).
  ~SharedPrefetchQueue();

  // Ranks + enqueues one session's prefetch work against scene `scene`'s
  // shard. Returns the number of groups newly queued (after merging with
  // other sessions' pending requests). `sink`, when non-null, is credited
  // for every group this call's batch actually fetches — including fetches
  // that land after the session's frame ended (the counters are cumulative
  // and monotone). `lod`, when non-null, overrides the queue config's
  // policy — the per-session quality knob of the serve layer. Throws
  // std::out_of_range for an unknown scene.
  std::size_t enqueue(const FrameIntent& intent,
                      SessionCacheStats* sink = nullptr,
                      const LodPolicy* lod = nullptr,
                      std::uint32_t scene = 0);

  // Deadline-fallback re-queue: pushes (scene, id, tier) at
  // kUrgentPriority so the group a session just served from the coarse
  // floor streams in at its wanted tier ahead of every ranked candidate.
  // Schedules a drain unless the queue is synchronous (then the next
  // enqueue drains it). Safe from any render worker.
  void requeue_urgent(voxel::DenseVoxelId id, std::uint8_t tier,
                      SessionCacheStats* sink = nullptr,
                      std::uint32_t scene = 0);

  // Blocks until every batch enqueued before this call has landed.
  void wait_idle() const;

  // Requests dropped because the same (scene, group) was already pending
  // at the same or a better tier for some session: the fetch-traffic the
  // merge saved, in group requests.
  std::uint64_t merged_requests() const;
  // Requests still pending in the shared priority queue (0 after a
  // wait_idle with no concurrent enqueues: nothing starves).
  std::size_t pending_requests() const;
  // Requests dropped at pop because their deadline had passed.
  std::uint64_t expired_requests() const;

  std::size_t scene_count() const { return shards_.size(); }
  ResidencyCache& cache(std::uint32_t scene = 0) {
    return *shards_.at(scene);
  }
  const PrefetchConfig& config() const { return config_; }

 private:
  void drain();

  std::vector<ResidencyCache*> shards_;  // indexed by scene
  PrefetchConfig config_;
  PrefetchPriorityQueue queue_;
};

}  // namespace sgs::stream
