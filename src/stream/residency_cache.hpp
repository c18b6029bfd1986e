// ResidencyCache: decoded voxel groups held under a byte budget, shareable
// by any number of concurrent viewer sessions.
//
// The cache is the GroupSource an out-of-core render uses: acquire() pins a
// group and returns its decoded view, fetching from the AssetStore on a
// miss (a demand stall — the render worker blocks on the disk read). A
// loader thread can warm the cache ahead of demand through prefetch().
// StreamingLoader in front of the cache acquires each group once per frame
// and shares that view with the frame's later acquires of the group.
//
// Entries are tier-tagged (LOD): each group is resident at exactly one
// payload tier at a time. A request for tier t is satisfied by any
// resident tier <= t; a request better than the resident tier refetches
// just that group (an upgrade). The per-tier hit/miss/prefetch/byte
// counters and the upgrade count surface in stats() (trace v4).
//
// Eviction is strict LRU over unprotected groups: a group is protected
// while (a) any acquire is outstanding on it (`pins`), or (b) at least one
// in-flight FramePlan claims it (`plan_pins`, a refcount — several sessions
// may pin the same group, and eviction respects the *union* of their
// working sets). Plan pins are taken with pin_plan() and dropped with
// unpin_plan(); the single-session GroupSource bracket (begin_frame /
// end_frame) is implemented on top of that pair. Pinned groups may push
// residency above the budget; the overshoot drains at the next unpin.
//
// Eviction index: the cache keeps an ordered set of the EVICTABLE groups
// only (resident, pins == 0, plan_pins == 0, not loading), keyed by
// (recency stamp, group id). A stamp comes from a logical clock at a
// group's first residency and is bumped on every acquire; an in-place
// upgrade keeps it. Groups enter and leave the set only on the 0<->1
// transitions of pins and plan_pins and on the loading toggles, so a hit
// is a stamp bump and an eviction pass pops victims from the set's head:
// O(log n) per victim, nothing at all when every resident group is
// pinned. Victims are exactly those of a strict-LRU walk that skips
// protected groups. A pass only unlinks its victims under the mutex; their
// decoded buffers are freed, and their cache/evict instants (with the
// reason arg) emitted, after the lock drops.
//
// The budget counts decoded in-memory bytes (DecodedGroup::resident_bytes),
// while bytes_fetched counts on-disk payload bytes — the two sides of the
// memory/traffic trade the simulator prices.
//
// Thread-safety: one mutex guards all cache state; every public method is
// safe to call concurrently from any thread EXCEPT the GroupSource bracket
// begin_frame/end_frame, which keeps its working set in one member slot
// and therefore admits exactly one driving session (the PR 2 single-viewer
// path). Multi-session callers must take their pins through pin_plan /
// unpin_plan with per-session working sets (serve::SessionSource does).
// Fetches (disk read + decode) run *outside* the lock with the entry
// marked `loading`, so concurrent acquires and fetches of other groups
// proceed (a LocalFileBackend reads positionally, without a lock), and
// concurrent acquires of the *same* group sleep on a condition variable
// instead of fetching twice (no double-decode, ever). pin/unpin/acquire/
// release never block on disk unless they themselves miss.
//
// Attribution: the cumulative counters in stats() are global across all
// callers. Multi-session front-ends (serve::SessionSource) use
// acquire_outcome() / the prefetch byte out-param to additionally attribute
// each hit, miss, and fetched byte to the session that caused it.
//
// Determinism: for a fixed request trace from one thread, hits, misses,
// evictions, and the resident set are fully reproducible (pure LRU, no
// clocks). Concurrent traces keep counters exact but their interleaving is
// scheduling-dependent; the *rendered image* never depends on cache state.
//
// Failure domain: a fetch that errors (typed StreamError from the store)
// never terminates the caller and never wedges the entry — loading is
// cleared and waiters woken on EVERY exit path (RAII). The acquire is
// served *degraded*: the group's stale resident tier when one is there
// (an upgrade that failed), an empty view otherwise (the frame renders
// without that group). Failure state is per (group, tier) — errors are
// tier-scoped on disk (one corrupt payload does not poison the group's
// other tiers), so a group whose L0 is corrupt still streams at L1/L2.
// A failing tier enters a deterministic retry-with-backoff state — each
// failure doubles a countdown of denied requests before the next disk
// attempt — and after max_fetch_attempts failures that tier is
// negative-cached for the cache's lifetime, so one corrupt payload costs
// a bounded number of disk touches total, never a refetch storm.
// Counters: fetch_errors / degraded_groups / failed_groups in stats()
// (trace v5; failed_groups counts groups with >= 1 failed tier, once).
//
// Residency hierarchy (the zero-stall floor): when the config carries a
// coarse_floor_budget_bytes and the store has a cheaper-than-L0 tier
// (AssetStore::has_coarse_tier), construction pins every group's CHEAPEST
// tier into a separate floor arena — charged against the floor budget, not
// budget_bytes; never in the LRU; never evictable — so acquire can always
// return *something* without touching the disk. Deadline-aware acquires
// (acquire_outcome with a deadline on core::stage_clock_ns) that would
// have to block past the deadline are served the group's best
// immediately-available payload instead: a stale resident tier when one is
// there, the floor otherwise. Such serves count as hits at the served tier
// with outcome.coarse_fallback set; frame-aware front-ends dedup the flag
// per (frame, group) into stats().coarse_fallbacks (trace v7) via
// record_coarse_fallback(). The floor also backstops error-state serves:
// a degraded acquire with a floor payload renders the coarse tier instead
// of an empty view. The floor is all-or-nothing against its budget
// (predicted from the directory before any read; too big = disabled, the
// pre-floor blocking behavior), but per-group read errors at open only
// leave holes. One-time open traffic is reported by coarse_floor_bytes(),
// not mixed into stats() — per-session prefetch attribution must keep
// summing to the global counters.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "stream/asset_store.hpp"
#include "stream/group_source.hpp"
#include "stream/stream_error.hpp"

namespace sgs::stream {

struct ResidencyCacheConfig {
  // Decoded-bytes budget. Groups beyond it are evicted LRU-first; pinned
  // groups are never evicted even when over budget.
  std::uint64_t budget_bytes = 64ull << 20;
  // Failure domain. A (group, tier) fetch may fail this many times before
  // that tier is negative-cached for good (failed_groups counts the group
  // once); between failures, retries back off exponentially, measured in
  // *denied requests* (not wall time, so behavior stays deterministic per
  // request trace): after failure k the next retry_backoff_base << (k-1)
  // fetch-wanting requests (capped at retry_backoff_cap) are served
  // degraded without touching the disk.
  int max_fetch_attempts = 3;
  std::uint32_t retry_backoff_base = 4;
  std::uint32_t retry_backoff_cap = 64;
  // Always-resident coarse floor, a SEPARATE budget from budget_bytes
  // (decoded bytes, like the main budget — a few % of the scene is the
  // intended scale). 0 disables the floor. When > 0 and the store has a
  // coarse tier, construction pins every group's cheapest tier for the
  // cache's lifetime; when the directory-predicted floor exceeds this
  // budget the floor is disabled outright (all-or-nothing, so a partially
  // pinned floor can never masquerade as zero-stall coverage).
  std::uint64_t coarse_floor_budget_bytes = 0;
};

// What one prefetch request actually did.
enum class PrefetchResult : std::uint8_t {
  kFetched = 0,     // fetched (or upgraded) the group at the asked tier
  kSkipped,         // nothing to do: resident/in-flight/pinned by readers
  kErrored,         // the fetch was attempted and failed (typed error)
  kNegativeCached,  // denied without disk IO: group failed or backing off
};

// What one acquire actually did — the per-session attribution record.
struct AcquireOutcome {
  GroupView view;
  // The group this outcome describes (failure attribution keys on it).
  voxel::DenseVoxelId group = 0;
  // True when this call paid the demand fetch itself (a stall for the
  // calling worker). An acquire that waited on someone else's in-flight
  // fetch counts as a hit: the group arrived without this caller paying.
  bool missed = false;
  // On-disk payload bytes this call fetched (non-zero only when `missed`).
  std::uint64_t bytes_fetched = 0;
  // Backend transfer time for those bytes (non-zero only when `missed`;
  // virtual on a simulated link) — what the caller's BandwidthEstimator
  // observes and its per-session net_stall_ns accumulates.
  std::uint64_t fetch_ns = 0;
  // LOD attribution: the tier the caller asked for, the tier the returned
  // view actually carries (served <= requested — a resident better tier
  // satisfies a worse request — EXCEPT degraded serves, which may return a
  // stale worse tier or, with served_tier == -1, an empty view), and
  // whether this call refetched an already-resident group at higher
  // fidelity.
  int requested_tier = 0;
  int served_tier = 0;
  bool upgraded = false;
  // Failure attribution. `degraded`: this acquire could not be served at
  // the requested-or-better tier because of an error state — the view is
  // the stale resident payload or empty. `fetch_errored`: this very call
  // attempted the fetch and it failed (`error` carries the typed reason —
  // by shared pointer, so degraded serves cost no allocation under the
  // cache mutex). `group_failed`: the requested tier has exhausted its
  // retry budget and is negative-cached.
  bool degraded = false;
  bool fetch_errored = false;
  bool group_failed = false;
  std::shared_ptr<const StreamError> error;
  // Deadline fallback: the fetch this acquire wanted would have run past
  // the caller's deadline, so the view was served from the group's best
  // immediately-available payload (a stale resident tier, else the pinned
  // coarse floor) without touching the disk. Counted as a hit at
  // served_tier; the caller's frame front-end dedups this flag per
  // (frame, group) into StreamCacheStats::coarse_fallbacks.
  bool coarse_fallback = false;
};

class ResidencyCache final : public GroupSource {
 public:
  ResidencyCache(const AssetStore& store, ResidencyCacheConfig config = {});

  // GroupSource (single-session bracket) ---------------------------------
  // begin_frame/end_frame keep the one-viewer usage of PR 2 working: they
  // pin_plan/unpin_plan the plan's candidate set for *this* source. The
  // bracket stores that set in one member, so only ONE session may drive
  // it (frames may not overlap or interleave); a shared cache hosting
  // several sessions is driven through pin_plan / unpin_plan directly with
  // per-session working sets (one call pair per session, see serve/).
  void begin_frame(const FrameIntent& intent,
                   std::span<const voxel::DenseVoxelId> plan_voxels) override;
  void end_frame() override;
  GroupView acquire(voxel::DenseVoxelId v) override;
  void release(voxel::DenseVoxelId v) override;
  core::StreamCacheStats stats() const override;

  // Shared-session API ---------------------------------------------------
  // Adds one plan pin to every group in `voxels` (refcounted: k sessions
  // pinning a group protect it until all k unpin). Pinning does not fetch.
  // Must not be mixed with the single-session begin_frame/end_frame
  // bracket on the same cache (debug-asserted): a bracket caller owns the
  // one frame_pins_ slot, so a concurrent pin_plan caller indicates two
  // drivers disagreeing about the cache's mode.
  void pin_plan(std::span<const voxel::DenseVoxelId> voxels);
  // Drops one plan pin from every group in `voxels` and drains any budget
  // overshoot that the pins were holding back. Every pin_plan must be
  // matched by exactly one unpin_plan with the same voxel set.
  void unpin_plan(std::span<const voxel::DenseVoxelId> voxels);

  // acquire() with attribution: same pinning and blocking behavior, but the
  // caller learns whether *it* paid a demand fetch and how many payload
  // bytes that fetch read. The matching release(v) is unchanged.
  //
  // Tier semantics (`tier` is the lowest fidelity the caller accepts, 0 =
  // full): a resident group whose tier is <= `tier` is a hit and is served
  // as-is — an L1 in the cache satisfies an L1-or-worse request. A group
  // resident at a *worse* tier is refetched at `tier` (an upgrade: counted
  // as a miss plus `upgrades`; the refetch reads only this group). The
  // upgrade waits for outstanding views of the stale payload to drain
  // before replacing it; callers never see buffers swap under a live view.
  //
  // Deadline semantics (`deadline_ns`, absolute on core::stage_clock_ns;
  // kNoFetchDeadline = the blocking behavior above, bit-for-bit): when a
  // fetch is wanted but the deadline has passed — or another caller's
  // in-flight fetch of this group is still loading at the deadline — and a
  // fallback payload exists (stale resident tier or pinned coarse floor),
  // the acquire serves that payload immediately instead of blocking
  // (outcome.coarse_fallback, a HIT at the served tier). A stale tier that
  // an in-flight upgrade is replacing does not count: its buffers are
  // about to be freed, so only the floor stands in for it. With nothing to
  // fall back on (no floor, group absent or mid-upgrade) the blocking path
  // runs even past the deadline — a deadline bounds stalls, it never
  // invents pixels and never serves a payload that is being freed.
  AcquireOutcome acquire_outcome(voxel::DenseVoxelId v, int tier = 0,
                                 std::uint64_t deadline_ns = kNoFetchDeadline);

  // Loader-facing --------------------------------------------------------
  // Fetches `v` at `tier` if absent, or re-fetches it at `tier` when
  // resident at a worse tier and currently unviewed (counted as a
  // prefetch, not a miss). Returns true when this call fetched; false when
  // the group was already resident at `tier` or better, in flight, or
  // pinned by readers (an upgrade must not block the async lane — demand
  // acquire will pay it instead), and also when the fetch errored or the
  // group is negative-cached — prefetch NEVER throws, so a batch loop
  // continues past a bad group. When it fetched and `fetched_bytes` is
  // non-null, the payload bytes read are stored there (attribution).
  bool prefetch(voxel::DenseVoxelId v, int tier = 0,
                std::uint64_t* fetched_bytes = nullptr);
  // Same, with the outcome distinguished — what a batch drain uses to
  // count per-group errors without aborting the rest of the batch. When it
  // fetched and `fetched_ns` is non-null, the backend transfer time is
  // stored there (the drain feeds it to the session's BandwidthEstimator).
  PrefetchResult prefetch_checked(voxel::DenseVoxelId v, int tier = 0,
                                  std::uint64_t* fetched_bytes = nullptr,
                                  std::uint64_t* fetched_ns = nullptr);

  // Failure-domain introspection -----------------------------------------
  // True when at least one of `v`'s tiers has exhausted its retry budget
  // (negative-cached); pass a specific `tier` to probe just that tier.
  bool group_failed(voxel::DenseVoxelId v) const;
  bool tier_failed(voxel::DenseVoxelId v, int tier) const;
  // The last fetch error recorded for `v`, if any.
  std::optional<StreamError> group_error(voxel::DenseVoxelId v) const;
  bool resident(voxel::DenseVoxelId v) const;
  // Resident tier of `v`, or -1 when absent.
  int resident_tier(voxel::DenseVoxelId v) const;
  // Residency of every group under ONE lock acquisition (indexed by dense
  // voxel id, 1 = resident). Prefetch ranking scans the whole directory
  // per session per frame; probing resident() per group would hammer the
  // mutex all render workers contend on. The snapshot is advisory — a
  // group may be fetched or evicted the instant the lock drops — which is
  // all ranking needs (prefetch of a now-resident group is a cheap no-op).
  std::vector<std::uint8_t> resident_snapshot() const;
  // Same single-lock scan, but per group the resident *tier* (0..2) or
  // kTierAbsent when not resident — what tier-aware prefetch ranking needs.
  static constexpr std::uint8_t kTierAbsent = 0xFF;
  std::vector<std::uint8_t> tier_snapshot() const;
  // Per-group bitmask of negative-cached tiers (bit t set = tier t has
  // exhausted its retry budget), same single-lock scan. Prefetch ranking
  // masks its wanted tier against this so a failed (group, tier) never
  // re-enters a batch — not even as an upgrade candidate — while the
  // group's healthy tiers stay fetchable.
  std::vector<std::uint8_t> failed_tier_snapshot() const;
  // Both of the above under ONE lock acquisition (either out-param may be
  // null) — what per-frame, per-session ranking calls so the added
  // failure mask does not double its traffic on the contended mutex.
  void ranking_snapshot(std::vector<std::uint8_t>* resident_tiers,
                        std::vector<std::uint8_t>* failed_tiers) const;

  std::uint64_t resident_bytes() const;
  // Current LRU budget (decoded bytes). Starts at config().budget_bytes
  // and moves with set_budget_bytes().
  std::uint64_t budget_bytes() const;
  // Re-targets the LRU budget at runtime and evicts down to the new value
  // immediately (LRU-first, pinned groups excepted — their overshoot
  // drains at the next unpin, exactly as for a within-budget fetch burst).
  // The floor arena is untouched: it lives under its own budget. This is
  // the shard-rebalancing hook of a multi-scene serve::SceneServer, whose
  // governor moves byte shares between per-scene caches while keeping
  // their sum equal to one global budget.
  void set_budget_bytes(std::uint64_t budget_bytes);
  const ResidencyCacheConfig& config() const { return config_; }
  const AssetStore& store() const { return *store_; }

  // Coarse-floor introspection --------------------------------------------
  // The floor state is immutable after construction, so these are safe to
  // call from any thread without observing the cache mutex.
  //
  // True when the floor was pinned at construction (budget set, store has
  // a coarse tier, and the predicted floor fit the floor budget).
  bool coarse_floor_enabled() const { return coarse_tier_ >= 0; }
  // Decoded bytes the pinned floor holds — charged against the floor
  // budget, never against budget_bytes (and excluded from
  // resident_bytes()). Zero when disabled.
  std::uint64_t coarse_floor_bytes() const { return floor_bytes_; }
  // Tier the floor pins (the store's cheapest), or -1 when disabled.
  int coarse_tier() const { return coarse_tier_; }
  // Whether group `v`'s floor payload is pinned (false for every group
  // when the floor is disabled; a hole when its open-time read failed).
  bool coarse_floor_resident(voxel::DenseVoxelId v) const {
    return coarse_tier_ >= 0 &&
           floor_present_[static_cast<std::size_t>(v)] != 0;
  }
  // Deduped fallback accounting: the frame-aware front-ends (the loader /
  // serve::SessionSource) call this exactly once per (frame, group) whose
  // acquire came back with outcome.coarse_fallback, so the global
  // stats().coarse_fallbacks equals the sum of the per-session counters.
  void record_coarse_fallback();

 private:
  struct Entry {
    DecodedGroup group;
    int tier = 0;       // fidelity of the resident payload (valid when
                        // resident; lower = better)
    int pins = 0;       // outstanding acquires (failed acquires pin too, so
                        // pin/release stays balanced on every path)
    int plan_pins = 0;  // in-flight FramePlans claiming this group (union
                        // of all sessions' working sets)
    bool loading = false;  // fetch in flight; waiters sleep on cv_
    bool resident = false;
    // Recency: the logical clock value of the group's first residency or
    // latest touch (valid when resident). `evictable` mirrors membership
    // in evictable_, keyed (stamp, group id).
    std::uint64_t stamp = 0;
    bool evictable = false;
    // Failure state, PER TIER (disk errors are tier-scoped: a corrupt L0
    // payload must not poison the group's healthy L1/L2): consecutive
    // failed fetch attempts, the denied-request countdown until the next
    // attempt, the permanent negative-cache bitmask, and the last typed
    // error (shared_ptr: degraded serves hand it out by pointer copy, not
    // a string allocation inside the cache-wide mutex).
    std::array<std::uint8_t, core::kLodTierCount> fail_count{};
    std::array<std::uint32_t, core::kLodTierCount> backoff_remaining{};
    std::uint8_t failed_tiers = 0;  // bit t = tier t negative-cached
    std::shared_ptr<const StreamError> last_error;

    bool tier_failed(int tier) const {
      return (failed_tiers >> tier) & 1u;
    }
  };

  // Fetches v at `tier` into its entry. Caller holds lk; the disk read and
  // decode run unlocked with entry.loading set. When the entry is already
  // resident (an upgrade), waits for pins to drain first, then replaces the
  // payload in place. Returns true with the entry resident at `tier`, or
  // false when the fetch failed — the entry keeps its previous payload (if
  // any), records the error, and advances its retry/backoff state. On
  // EVERY exit, including exceptions, `loading` is cleared and waiters are
  // woken (RAII guard) — a throwing fetch must never wedge the entry.
  bool fetch_locked(std::unique_lock<std::mutex>& lk, voxel::DenseVoxelId v,
                    int tier, bool is_prefetch);
  // Reads every group's coarse tier into the floor arena at construction
  // (single-threaded: no lock, no loading marks). All-or-nothing against
  // the floor budget; per-group read errors only leave holes.
  void pin_coarse_floor();
  // Why an eviction pass ran: the `reason` arg of its cache/evict
  // instants (docs/OBSERVABILITY.md).
  enum class EvictReason : std::uint64_t { kUnpin = 0, kFetch = 1,
                                           kRebalance = 2 };
  // The groups one eviction pass unlinked. A caller declares it BEFORE
  // taking mutex_, so it is destroyed after the lock drops: the decoded
  // buffers are freed, and the cache/evict instants emitted, outside the
  // critical section.
  struct Evicted {
    explicit Evicted(EvictReason why) : reason(why) {}
    Evicted(const Evicted&) = delete;
    Evicted& operator=(const Evicted&) = delete;
    ~Evicted();
    EvictReason reason;
    std::vector<std::pair<voxel::DenseVoxelId, DecodedGroup>> groups;
  };

  // Brings e's membership in evictable_ in line with its state; called
  // after every change to resident/pins/plan_pins/loading. Membership
  // flips only on their 0<->1 transitions.
  void sync_evictable_locked(Entry& e, voxel::DenseVoxelId v);
  // Pops the least recently used evictable groups into `out` until
  // residency fits the budget (or nothing evictable is left).
  void evict_over_budget_locked(Evicted& out);
  void pin_plan_locked(std::span<const voxel::DenseVoxelId> voxels);
  void unpin_plan_locked(std::span<const voxel::DenseVoxelId> voxels,
                         Evicted& out);

  const AssetStore* store_;
  ResidencyCacheConfig config_;
  // Live LRU budget: starts at config_.budget_bytes, re-targeted by
  // set_budget_bytes(). Atomic so budget_bytes() is an exact, lock-free
  // probe for concurrent governors and invariant-checking tests.
  std::atomic<std::uint64_t> budget_bytes_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // signals fetch completion and pin drains
  std::vector<Entry> entries_;  // indexed by dense voxel id
  // The eviction index: exactly the evictable entries, least recently
  // used first (stamps are unique, so the order is strict LRU).
  std::set<std::pair<std::uint64_t, voxel::DenseVoxelId>> evictable_;
  std::uint64_t clock_ = 0;  // last stamp handed out
  std::uint64_t resident_bytes_ = 0;
  // Working set of the legacy single-session bracket (begin/end_frame).
  std::vector<voxel::DenseVoxelId> frame_pins_;
  // Debug guard: the single-session bracket and multi-session pin_plan are
  // mutually exclusive usages of one cache (see begin_frame).
  bool bracket_active_ = false;
  core::StreamCacheStats stats_;
  // Coarse floor: immutable after construction (pin_coarse_floor), so
  // deadline fallbacks read it without extending the mutex's critical
  // section. Outside the LRU and the main budget by design.
  std::vector<DecodedGroup> floor_;       // indexed by dense voxel id
  std::vector<std::uint8_t> floor_present_;
  std::uint64_t floor_bytes_ = 0;
  int coarse_tier_ = -1;  // -1 = floor disabled
};

}  // namespace sgs::stream
