// Scatter/gather serving across N shards — the in-process serving engine
// (one shard is the unpartitioned case).
//
// Concurrency model — single-writer, many lock-free readers: the engine
// owns an immutable ShardedSnapshot behind a shared_ptr, tagged with a
// monotonically increasing version. Readers grab the current pointer (one
// mutex-protected copy) and then run lock-free on frozen cell indexes;
// in-flight queries keep their snapshot alive until they finish. The engine
// partitions the user set into N shards by Z-order range (shard_router.h),
// each shard owning a cell index (tqtree/cell_index.h; no quadtree: every
// SO and bound reads the cells) + evaluator over its own user subset:
//
//   * Queries scatter: the engine is the in-process ShardTransport of the
//     serving protocol's one Coordinator (coordinator.h). A wave posts one
//     pool task per owned shard of the query's pinned snapshot; each task
//     answers from its shard's frozen index (cache-assisted), and the last
//     finisher hands the wave back to the coordinator, which sums in
//     ascending shard order or plans the next top-k wave. No pool thread
//     ever blocks waiting on another task (a bound task may wait out
//     another's fill of the same shard's bounds memo, which itself waits
//     on nothing), so a pool of any size cannot deadlock.
//   * Writers are incremental: a trajectory insert/remove batch is routed
//     per shard, and only the AFFECTED shards are forked (CellIndex::Fork)
//     and republished. Untouched shards keep their snapshot, generation,
//     and — because cache keys carry (shard, shard generation) — their warm
//     result-cache entries. A republished shard's old entries are never
//     looked up again; the cache's LRU eviction reclaims them.
//   * Correctness of the merge: service is additive over a disjoint user
//     partition, SO(U, f) = Σ_s SO(U_s, f). Whole trajectories stay within
//     one shard, so no cross-shard deduplication is needed. Per-shard top-k
//     lists alone would NOT compose — a global winner may rank low in every
//     shard — so the gather works with per-facility values, not lists.
//     For integer-valued service models (point counts, endpoint counts)
//     the gathered sums are exactly the single-tree values, bit for bit.
//   * Top-k is BOUND-AND-PRUNE (prune_plan.h), the only top-k protocol and
//     exact for every k: a bound wave (CellIndex::CellUpperBound per
//     facility), then refinement waves for the window's unsettled slots
//     until the window is settled. Every top-k runs the bound wave, which
//     reads each shard's bounds memo (CellIndex::Bounds): a published
//     shard is never written, and a publish forks the touched shards with
//     the memo and a log of their writes, so each shard's bounds are swept
//     once and the next bound wave after a publish patches the touched
//     shards' memos (the bounds_computed and bounds_patched counters). The
//     refinement waves read the
//     per-(facility, shard) cache entries, whose hits and misses count in
//     the metrics, and a top-k response never reports cache_hit.
#ifndef TQCOVER_RUNTIME_SHARDED_ENGINE_H_
#define TQCOVER_RUNTIME_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/coordinator.h"
#include "runtime/metrics.h"
#include "runtime/result_cache.h"
#include "runtime/serving_engine.h"
#include "runtime/shard_router.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "storage/checkpoint.h"
#include "storage/durability.h"
#include "tqtree/cell_index.h"
#include "tqtree/tq_tree.h"
#include "traj/dataset.h"

namespace tq::runtime {

/// Sharded engine construction parameters.
struct ShardedEngineOptions {
  /// Number of user-set partitions, each with its own cell index.
  size_t num_shards = 4;
  /// Worker threads executing per-shard scatter tasks.
  size_t num_threads = 4;
  /// Total service-value cache entries across lock shards; 0 disables.
  size_t cache_capacity = 4096;
  /// Owned Z-order shard range [owned_begin, owned_end) for shard-worker
  /// processes: the router still partitions the FULL user set `num_shards`
  /// ways (so every worker agrees on the geometry and on global id
  /// assignment), but only the owned shards get indexes built and answer
  /// queries — the others stay empty and are never evaluated or cached.
  /// (0, 0) means "own everything" (the single-process default).
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;
  /// Durability subsystem configuration (storage/durability.h). With a
  /// non-empty data_dir the constructor demands a VIRGIN directory (recover
  /// existing state with ShardedEngine::Recover instead), writes an initial
  /// checkpoint, and WAL-logs every ApplyUpdates batch before publishing it.
  storage::DurabilityOptions durability;
  /// The engine reads `tree.model` alone: every shard is a whole-trajectory
  /// cell index with tables, whatever the mode, variant or β. The other
  /// fields enter only the checkpoint geometry hash, so a recovering engine
  /// must still be configured with the same ones.
  TQTreeOptions tree;
};

/// One shard's immutable published state. `generation` is the engine version
/// at which this shard was last republished — it only moves when a write
/// batch touches this shard, and it versions the shard's cache entries.
struct ShardState {
  uint32_t shard = 0;
  uint64_t generation = 0;
  std::shared_ptr<const TrajectorySet> users;  // this shard's users only
  /// Frozen over `users`, never written once published.
  std::shared_ptr<const CellIndex> cells;
  std::shared_ptr<const ServiceEvaluator> eval;
};
using ShardStatePtr = std::shared_ptr<const ShardState>;

/// The engine-wide immutable snapshot: the vector of per-shard states plus
/// the shared facility side. A single-shard publish swaps one slot and bumps
/// `version`; the other slots are shared with the previous snapshot.
struct ShardedSnapshot {
  uint64_t version = 0;
  std::vector<ShardStatePtr> shards;
  std::shared_ptr<const TrajectorySet> facilities;
  std::shared_ptr<const FacilityCatalog> catalog;
};
using ShardedSnapshotPtr = std::shared_ptr<const ShardedSnapshot>;

/// Multi-threaded scatter/gather engine over sharded cell indexes. Thread-safe:
/// any thread may Submit / RunBatch / ApplyUpdates / snapshot() concurrently.
/// Writers are serialized among themselves; readers never block.
class ShardedEngine : public ServingEngine, private ShardTransport {
 public:
  /// Independently locked result-cache partitions.
  static constexpr size_t kCacheShards = 8;

  ShardedEngine(TrajectorySet users, TrajectorySet facilities,
                ShardedEngineOptions options);

  /// Rebuilds an engine from `options.durability.data_dir`: loads the
  /// current checkpoint (geometry, facilities, registry, owned shards' users
  /// and removed ids), rebuilds each owned shard's cell index over its users
  /// minus its removed ids, replays the WAL records after its LSN through
  /// the normal update path,
  /// and resumes logging — the recovered engine is bit-identical to the
  /// SIGKILL'd one, including snapshot version and per-shard generations.
  /// `options.tree` must match the checkpoint's geometry hash;
  /// `options.num_shards` is taken from the manifest. kNotFound when the
  /// data dir has no committed checkpoint (callers fall back to the
  /// constructor for a first boot).
  static Result<std::unique_ptr<ShardedEngine>> Recover(
      ShardedEngineOptions options);

  /// Stops the checkpointer, drains in-flight scatter tasks, then joins the
  /// worker pool.
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const ShardedEngineOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  /// Mutable registry access for front-ends layered on the engine (the net
  /// server folds its connection/byte counters in here so one JSON snapshot
  /// covers the whole serving stack).
  MetricsRegistry* mutable_metrics() override { return &metrics_; }
  /// Recent-trace ring + slow-query log for this engine's queries. The net
  /// server reads Recent() for the stats frame; `serve` wires the slow-log
  /// sink and threshold through the mutable accessor.
  const Tracer& tracer() const override { return tracer_; }
  Tracer* mutable_tracer() override { return &tracer_; }
  const ShardRouter& router() const { return router_; }
  size_t num_shards() const { return router_.num_shards(); }
  /// Whether shard `s` is in this engine's owned range.
  bool Owns(size_t s) const { return s >= owned_begin_ && s < owned_end_; }

  // ServingEngine introspection (see serving_engine.h).
  double psi() const override { return options_.tree.model.psi; }
  uint64_t snapshot_version() const override { return snapshot()->version; }
  std::vector<uint64_t> shard_generations() const override;
  EngineInfo info() const override;

  /// The currently published snapshot (cheap: one shared_ptr copy).
  ShardedSnapshotPtr snapshot() const;

  /// Where a global trajectory id lives. Global ids are assigned densely in
  /// insertion order (initial set first, then ApplyUpdates batches).
  struct UserLocation {
    uint32_t shard = 0;
    uint32_t local_id = 0;  // id within the shard's TrajectorySet
  };
  /// Lookup for tests/tools; `global_id` must be < total inserted users.
  UserLocation LocateUser(uint32_t global_id) const;
  /// Total users ever added (inserts are append-only; removes de-index).
  size_t NumUsersTotal() const;

  /// Scatters one query across the owned shards; the returned future
  /// completes when the query's last wave has been gathered.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Completion callback for SubmitAsync. Runs exactly once: on the pool
  /// thread that finishes the gather, or inline on the submitting thread
  /// for rejected requests and degenerate queries.
  using ResponseCallback = ServingEngine::ResponseCallback;

  /// Callback-style Submit — the dispatch hook event-driven front-ends
  /// (src/net/server.h) use to avoid parking a thread per in-flight query.
  /// The callback must not block and must not destroy the engine.
  void SubmitAsync(QueryRequest request, ResponseCallback done);

  /// SubmitAsync with a caller-owned trace context: the scatter/gather path
  /// appends its spans (queue wait, per-shard sweep/eval/refine, coordinate,
  /// merge) to `trace`, and the CALLER finishes it (Tracer::Finish) — the
  /// net server shares one frame trace across all of a frame's sub-queries
  /// this way. Passing nullptr is identical to the two-argument overload:
  /// scatter queries get a sampled engine-owned trace (Coordinator::
  /// kTraceSample) finished just before `done`.
  /// `start_ns` (optional) backdates the query's latency-histogram sample
  /// to an earlier NowNs() reading — the net server passes the frame's
  /// receive timestamp, which both amortizes one clock read across the
  /// frame's whole batch and charges decode + dispatch time to the query,
  /// where it belongs. 0 means "read the clock here".
  void SubmitAsync(QueryRequest request, TraceContextPtr trace,
                   ResponseCallback done, uint64_t start_ns = 0) override;

  /// The bound sweep over the owned shards, packaged for a remote
  /// coordinator (serves kBound frames): per-facility Σ UB_s(f) over the
  /// owned shards — the same bound wave a local top-k query starts with.
  void TopKBoundSweepAsync(BoundSweepCallback done) override;

  /// Submits every request, then blocks for all answers (in request order).
  std::vector<QueryResponse> RunBatch(const std::vector<QueryRequest>& batch);

  /// Routes `batch` per shard and republishes ONLY the affected shards
  /// (one CellIndex::Fork per shard, frozen before the publish, so a shard
  /// whose pending inserts plus removals pass 1/8 of its tables rebuilds
  /// them here). The published snapshot changes only here. Returns the
  /// global ids assigned to `batch.inserts` (in order). Serialized
  /// internally; concurrent readers are never blocked.
  std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) override;

  /// Forces one synchronous checkpoint → WAL-trim cycle
  /// (storage::DurabilityManager::CheckpointNow). It reads the published
  /// snapshot and never replaces it. kUnimplemented without a data dir.
  Status Checkpoint() override;
  /// What recovery did at startup; checkpoint_lsn and last_lsn track the
  /// live subsystem state, the replay fields are frozen at construction.
  storage::RecoveryInfo recovery_info() const override;

 private:
  struct RecoverTag {};

  /// Recovery shell: adopts the manifest's partition geometry (world +
  /// splits) and resolves the owned range, but loads no state — RecoverFrom
  /// does that next.
  ShardedEngine(RecoverTag, ShardedEngineOptions options,
                const storage::CheckpointManifest& manifest);
  /// Both constructors' shared tail once router_ exists: resolves the owned
  /// range and sizes the per-shard bookkeeping.
  void InitPartition();
  /// Loads registry + shard states from `checkpoint_dir` and replays the
  /// WAL; only Recover calls this, before the engine is visible to anyone.
  Status RecoverFrom(const std::string& checkpoint_dir,
                     const storage::CheckpointManifest& manifest);
  /// Creates the DurabilityManager and opens the WAL at `next_lsn`;
  /// `initial_checkpoint` additionally writes the first checkpoint (fresh
  /// durable start). Crashes the process on failure — a durable engine that
  /// cannot log is misconfigured, not degraded.
  void StartDurability(uint64_t next_lsn, bool initial_checkpoint);

  // ShardTransport: participant p is owned shard owned_begin_ + p of the
  // query's pinned snapshot (QueryBasis::pin).
  std::vector<size_t> Participants() const override;
  size_t num_participants() const override { return owned_end_ - owned_begin_; }
  void Bound(const CoordinatedQueryPtr& query) override;
  void Evaluate(const CoordinatedQueryPtr& query) override;
  /// Posts one pool task per participant of the query's wave; the last one
  /// to finish continues the query.
  void Scatter(const CoordinatedQueryPtr& query, bool bound);
  /// One shard's part of a wave. `post_ns` is the Post() timestamp (0 when
  /// the query is untraced) — the queue-wait span.
  void RunShardTask(const CoordinatedQueryPtr& query, size_t p, bool bound,
                    uint64_t post_ns);
  /// Cache-assisted SO(U_s, f) on one shard's frozen index.
  double ShardServiceValue(const ShardState& shard,
                           const FacilityCatalog& catalog, FacilityId f,
                           QueryStats* stats, bool* cache_hit);
  void Publish(ShardedSnapshotPtr snap, uint64_t shards_republished);

  /// ApplyUpdates body. `log_to_wal` is false only during WAL replay (the
  /// records being applied are already on disk).
  std::vector<uint32_t> ApplyUpdatesImpl(const UpdateBatch& batch,
                                         bool log_to_wal);
  /// DurabilityManager's WriteCheckpointFn: captures (snapshot, registry,
  /// logical counts) consistently under writer_mu_, then writes the
  /// facilities, the registry and each owned shard's users and removed ids
  /// into a CheckpointWriter OFF the lock — the snapshot shared_ptr pins the
  /// shards while writers keep publishing. Returns the captured LSN.
  Result<uint64_t> WriteCheckpointImpl();

  ShardedEngineOptions options_;
  /// Resolved owned range ((0,0) in options = own all shards).
  uint32_t owned_begin_ = 0;
  uint32_t owned_end_ = 0;
  MetricsRegistry metrics_;
  Tracer tracer_;
  ResultCache cache_;
  ShardRouter router_;
  Coordinator coordinator_{this, &metrics_, &tracer_};

  mutable std::mutex snapshot_mu_;  // guards snapshot_ pointer swap only
  ShardedSnapshotPtr snapshot_;

  std::mutex writer_mu_;  // serializes ApplyUpdates
  mutable std::mutex registry_mu_;  // guards users_ global-id registry
  std::vector<UserLocation> users_;  // global id -> (shard, local id)
  /// Logical user count per shard — what the shard's TrajectorySet size
  /// WOULD be if the shard were owned. Owned shards match their set's size
  /// exactly; non-owned shards advance only this counter, so local-id
  /// assignment (and therefore the global registry) is identical across
  /// every worker and the single process. Written in the constructor and
  /// under writer_mu_ only.
  std::vector<uint32_t> shard_user_counts_;

  /// Frozen at construction (replay fields); see recovery_info().
  storage::RecoveryInfo recovery_info_;
  /// Null without a data dir. The destructor Stop()s it before members are
  /// torn down — its closures touch everything above.
  std::unique_ptr<storage::DurabilityManager> durability_;

  ThreadPool pool_;  // last member: joins before the rest is torn down
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_SHARDED_ENGINE_H_
