// Scatter/gather serving across N sharded TQ-trees — the in-process serving
// engine (one shard is the unpartitioned case).
//
// Concurrency model — single-writer, many lock-free readers: the engine
// owns an immutable ShardedSnapshot behind a shared_ptr, tagged with a
// monotonically increasing version. Readers grab the current pointer (one
// mutex-protected copy) and then run lock-free on frozen trees (every
// z-index built before publication); in-flight queries keep their snapshot
// alive until they finish. The engine partitions the user set into N
// shards by Z-order range (shard_router.h), each shard owning its own
// TQ-tree + evaluator over its own user subset:
//
//   * Queries scatter: a Submit fans one task per shard onto the thread
//     pool; each task answers from its shard's frozen snapshot (cache-
//     assisted), and the last finisher gathers — summing per-shard service
//     values in ascending shard order, or, for top-k, planning the next
//     wave (below). No pool thread ever blocks waiting on another task, so
//     a pool of any size cannot deadlock.
//   * Writers are incremental twice over: a trajectory insert/remove batch
//     is routed per shard, and only the AFFECTED shards are forked
//     (TQTree::Fork) and republished — and each fork path-copies only the
//     node pages the batch's root-to-leaf paths touch, sharing the rest
//     (z-indexes included) with the previous shard state. Untouched shards
//     keep their snapshot, generation, and — because cache keys carry
//     (shard, shard generation) — their warm result-cache entries. Gathered
//     top-k answers are memoised under the full per-shard generation
//     vector, so they too survive writes to shards and die exactly when a
//     contributing shard republishes.
//   * Correctness of the merge: service is additive over a disjoint user
//     partition, SO(U, f) = Σ_s SO(U_s, f). Whole trajectories (and, in
//     segmented mode, all segments of a trajectory) stay within one shard,
//     so no cross-shard deduplication is needed. Per-shard top-k lists
//     alone would NOT compose — a global winner may rank low in every
//     shard — so the gather works with per-facility values, not lists.
//     For integer-valued service models (point counts, endpoint counts)
//     the gathered sums are exactly the single-tree values, bit for bit.
//   * Top-k is BOUND-AND-PRUNE, the only top-k protocol and exact for every
//     k (at k ≥ |F| the window is the whole catalog) — best-first
//     refinement in scatter waves (see GatherState in sharded_engine.cc,
//     with the coordinator math in prune_plan.h):
//       sweep    every shard computes a cheap aggregate upper bound
//                UB_s(f) for every facility (TQTree::UpperBound — node
//                aggregates only, no entry ever scanned).
//       plan     the coordinator (the last task of each wave) values every
//                facility B(f) = Σ_s (evaluated ? SO_s(f) : UB_s(f)) and
//                takes the window: the first k facilities by (B desc,
//                id asc).
//       refine   shards exactly evaluate the window's unsettled slots in
//                one wave, whose last task plans again; once the window
//                is fully evaluated it is the answer.
//     Answers are exact bit for bit: a winner's value is its per-shard sums
//     added in ascending shard order — the bits of evaluating every
//     facility on every shard — and every facility outside the window has
//     SO(U, f) ≤ B(f), so it ranks after every window member even on a tie.
//     A top-k response reports cache_hit only for memoised whole-answer
//     hits; per-(facility, shard) hits inside the waves still count in the
//     hit/miss metrics.
#ifndef TQCOVER_RUNTIME_SHARDED_ENGINE_H_
#define TQCOVER_RUNTIME_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

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
#include "tqtree/tq_tree.h"
#include "traj/dataset.h"

namespace tq::runtime {

/// Sharded engine construction parameters.
struct ShardedEngineOptions {
  /// Number of user-set partitions, each with its own TQ-tree.
  size_t num_shards = 4;
  /// Worker threads executing per-shard scatter tasks.
  size_t num_threads = 4;
  /// Total service-value cache entries across lock shards; 0 disables.
  size_t cache_capacity = 4096;
  /// Owned Z-order shard range [owned_begin, owned_end) for shard-worker
  /// processes: the router still partitions the FULL user set `num_shards`
  /// ways (so every worker agrees on the geometry and on global id
  /// assignment), but only the owned shards get trees built — the others
  /// stay empty and contribute an exact 0.0 to every sum, keeping a set of
  /// workers with disjoint covering ranges bit-identical to one process.
  /// (0, 0) means "own everything" (the single-process default).
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;
  /// Durability subsystem configuration (storage/durability.h). With a
  /// non-empty data_dir the constructor demands a VIRGIN directory (recover
  /// existing state with ShardedEngine::Recover instead), writes an initial
  /// checkpoint, and WAL-logs every ApplyUpdates batch before publishing it.
  storage::DurabilityOptions durability;
  /// TQ-tree construction parameters (the service model lives here).
  TQTreeOptions tree;
};

/// One shard's immutable published state. `generation` is the engine version
/// at which this shard was last republished — it only moves when a write
/// batch touches this shard, and it versions the shard's cache entries.
struct ShardState {
  uint32_t shard = 0;
  uint64_t generation = 0;
  std::shared_ptr<const TrajectorySet> users;  // this shard's users only
  /// Frozen (all z-indexes built); non-const only because the query API
  /// takes TQTree* — no query mutates a frozen tree.
  std::shared_ptr<TQTree> tree;
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

/// Multi-threaded scatter/gather engine over sharded TQ-trees. Thread-safe:
/// any thread may Submit / RunBatch / ApplyUpdates / snapshot() concurrently.
/// Writers are serialized among themselves; readers never block.
class ShardedEngine : public ServingEngine {
 public:
  /// TQ-tree descent budget of the per-facility bound sweep
  /// (TQTree::UpperBound): deeper = tighter bounds, more nodes visited.
  static constexpr int kBoundLevels = 4;
  /// Independently locked result-cache partitions.
  static constexpr size_t kCacheShards = 8;
  /// Engine-owned traces for scatter queries submitted WITHOUT a caller
  /// context: one every kTraceSample queries. A trace costs an allocation
  /// plus span clock reads in every shard task, so tracing every query
  /// would tax the hot path; sampling keeps the ring representative
  /// instead. Ignored — every query is traced — while the slow-query log is
  /// armed (a slow query can only be logged if it was traced from the
  /// start).
  static constexpr size_t kTraceSample = 32;

  ShardedEngine(TrajectorySet users, TrajectorySet facilities,
                ShardedEngineOptions options);

  /// Rebuilds an engine from `options.durability.data_dir`: loads the
  /// current checkpoint (geometry, facilities, registry, owned shard trees),
  /// replays the WAL records after its LSN through the normal update path,
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

  /// Scatters one query across all shards; the returned future completes
  /// when the last shard's task has been gathered.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Completion callback for SubmitAsync. Runs exactly once: on the pool
  /// thread that finishes the gather, or inline on the submitting thread
  /// for cache hits, rejected requests, and degenerate queries.
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
  /// scatter queries get an engine-owned trace finished just before `done`.
  /// `start_ns` (optional) backdates the query's latency-histogram sample
  /// to an earlier NowNs() reading — the net server passes the frame's
  /// receive timestamp, which both amortizes one clock read across the
  /// frame's whole batch and charges decode + dispatch time to the query,
  /// where it belongs. 0 means "read the clock here".
  void SubmitAsync(QueryRequest request, TraceContextPtr trace,
                   ResponseCallback done, uint64_t start_ns = 0) override;

  /// The bound sweep over the owned shards, packaged for a remote
  /// coordinator (serves kBound frames): per-facility Σ UB_s(f) over the
  /// owned shards — the same per-shard sweep a local top-k query starts
  /// with.
  void TopKBoundSweepAsync(BoundSweepCallback done) override;

  /// Submits every request, then blocks for all answers (in request order).
  std::vector<QueryResponse> RunBatch(const std::vector<QueryRequest>& batch);

  /// Routes `batch` per shard and republishes ONLY the affected shards
  /// (copy-on-write clone per shard). Returns the global ids assigned to
  /// `batch.inserts` (in order). Serialized internally; concurrent readers
  /// are never blocked.
  std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) override;

  /// Forces one synchronous checkpoint → WAL-trim → compaction cycle
  /// (storage::DurabilityManager::CheckpointNow). kUnimplemented without a
  /// data dir.
  Status Checkpoint() override;
  /// What recovery did at startup; checkpoint_lsn and last_lsn track the
  /// live subsystem state, the replay fields are frozen at construction.
  storage::RecoveryInfo recovery_info() const override;

 private:
  struct GatherState;
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

  /// Per-shard task entry points. `post_ns` is the Post() timestamp of the
  /// task (0 when the query is untraced) — the queue-wait span.
  /// A service-value query: one shard's SO(U_s, f).
  void ExecuteShard(const std::shared_ptr<GatherState>& state, size_t shard,
                    uint64_t post_ns);
  /// Final sum of a service-value query; fulfils the promise.
  void Gather(GatherState* state);
  /// The first wave of the top-k protocol: one shard's bound sweep.
  void ExecuteTopKBoundRound(const std::shared_ptr<GatherState>& state,
                             size_t shard, uint64_t post_ns);
  /// A refinement wave: one shard evaluates the window's slots it has not
  /// settled yet.
  void ExecuteTopKRefineRound(const std::shared_ptr<GatherState>& state,
                              size_t shard, uint64_t post_ns);
  /// Coordinator: runs in the last task of every wave; plans the window
  /// (prune_plan.h PlanWindow) and either finishes or fans out the next
  /// refinement wave.
  void CoordinateTopK(const std::shared_ptr<GatherState>& state);
  /// Final merge of a top-k query: ranks the fully evaluated facilities,
  /// memoises the answer under the snapshot's generation vector, and
  /// fulfils the promise.
  void FinishTopK(GatherState* state);
  /// Final merge of a TopKBoundSweepAsync: sums per-shard bounds instead of
  /// ranking.
  void FinishBoundSweep(GatherState* state);
  /// Cache-assisted SO(U_s, f) on one shard's frozen snapshot.
  double ShardServiceValue(const ShardState& shard,
                           const FacilityCatalog& catalog, FacilityId f,
                           QueryStats* stats, bool* cache_hit);
  void Publish(ShardedSnapshotPtr snap, uint64_t shards_republished);

  /// ApplyUpdates body. `log_to_wal` is false only during WAL replay (the
  /// records being applied are already on disk).
  std::vector<uint32_t> ApplyUpdatesImpl(const UpdateBatch& batch,
                                         bool log_to_wal);
  /// DurabilityManager's WriteCheckpointFn: captures (snapshot, registry,
  /// logical counts) consistently under writer_mu_, then streams everything
  /// into a CheckpointWriter OFF the lock — the snapshot shared_ptr pins the
  /// trees while writers keep publishing. Returns the captured LSN.
  Result<uint64_t> WriteCheckpointImpl();
  /// DurabilityManager's CompactFn: round-trips each owned shard tree
  /// through the snapshot codec into fresh dense pages and swaps it in at
  /// the SAME version + generation (answers, cache keys, and the recovery
  /// LSN sequence are all unchanged — only the page backing is). Returns
  /// node pages the live snapshot stopped pinning.
  uint64_t CompactShards(uint64_t lsn);

  ShardedEngineOptions options_;
  /// Resolved owned range ((0,0) in options = own all shards).
  uint32_t owned_begin_ = 0;
  uint32_t owned_end_ = 0;
  /// 0..num_shards-1: the prune planner's participant list, which in
  /// process is every shard (non-owned shards hold empty trees).
  std::vector<size_t> all_shards_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  ResultCache cache_;
  ShardRouter router_;

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
