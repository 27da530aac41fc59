// Lock-free operational counters + latency histograms for the query runtime.
//
// One MetricsRegistry lives inside each serving engine; every worker thread
// bumps the atomics as it executes queries, and the exact checks, points
// probed and bounds computed of each query's QueryStats are folded in
// through RecordQueryStats (engine shards are cell indexes: no node is
// visited and no unit list scanned). Read() takes a consistent-enough
// snapshot for monitoring (each field is individually atomic; cross-field
// skew of a few in-flight queries is acceptable by design).
//
// The counter set is declared ONCE, in the TQ_METRICS_COUNTERS X-macro
// below; the MetricsView fields, the registry atomics, Read(), ToJson()
// and ForEachCounter() are all generated from it, so the JSON key set, the
// stats wire frame, and the struct can never drift apart (the drift-guard
// test in tests/test_observability.cc holds by construction).
//
// Latency distributions (runtime/histogram.h) ride alongside the counters:
// one wait-free LatencyHistogram per OpFamily, recorded through
// RecordLatency(). Recording is unconditional, so every end-to-end number
// bench_layers reports already includes its cost.
#ifndef TQCOVER_RUNTIME_METRICS_H_
#define TQCOVER_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "query/query_stats.h"
#include "runtime/histogram.h"

namespace tq::runtime {

// The single source of truth for the counter set. Field semantics:
//   queries_total/service_queries/topk_queries  queries submitted, by kind
//   cache_*                  result-cache hits / misses / LRU evictions
//   snapshots_published      engine-wide snapshot swaps
//   shard_tasks              per-shard scatter tasks executed
//   shard_publishes          individual shard snapshots republished (a
//                            publish touching 2 of 8 shards counts 2)
//   trajectories_*           write-batch insert / remove totals
//   publish_ns               total ApplyUpdates wall ns
//   facilities_evaluated/facilities_pruned/prune_rounds
//                            bound-and-prune top-k accounting (the
//                            coordinator): exact per-participant
//                            evaluations done vs. skipped, and waves run
//                            (the bound wave + each refinement)
//   exact_checks             folded per-query QueryStats of the exact
//                            evaluations (the top-k bound sweep checks
//                            nothing exactly)
//   points_probed            folded per-query QueryStats: user points the
//                            exact evaluations passed to the serve predicate
//   bounds_computed          folded per-query QueryStats: facility bounds
//                            the top-k bound waves swept (0 for a shard
//                            holding a memo for the catalog, patched or not:
//                            a publish does not drop it)
//   bounds_patched           folded per-query QueryStats: shard writes the
//                            bound waves replayed into a memo (0 on a
//                            repeat)
//   net_*                    network front-end accounting (src/net/server.h):
//                            connections accepted, frames decoded, update
//                            frames merged into a pending publish, payload
//                            bytes in / out incl. the 4-byte frame headers,
//                            plus backpressure accounting — requests shed
//                            with kOverloaded by admission control,
//                            read-pause transitions taken when a
//                            connection's outbox crossed the high watermark,
//                            and bytes currently staged in outboxes
//                            (a gauge: Add/Sub, not monotone)
//   coord_*/heartbeats_sent/worker_failures
//                            coordinator accounting (runtime/remote_shard_set):
//                            worker RPCs issued, queries answered from fewer
//                            workers than configured, heartbeat probes sent,
//                            alive->dead worker transitions observed
//   wal_appends/wal_bytes/wal_replayed
//                            durability accounting (src/storage/): update
//                            batches logged, record payload bytes logged,
//                            batches replayed from the WAL during recovery
//   checkpoints/checkpoint_ns
//                            checkpointer accounting: checkpoints committed,
//                            total checkpoint wall ns (stream + trim +
//                            compact)
#define TQ_METRICS_COUNTERS(X) \
  X(queries_total)             \
  X(service_queries)           \
  X(topk_queries)              \
  X(cache_hits)                \
  X(cache_misses)              \
  X(cache_evictions)           \
  X(snapshots_published)       \
  X(shard_tasks)               \
  X(shard_publishes)           \
  X(trajectories_inserted)     \
  X(trajectories_removed)      \
  X(publish_ns)                \
  X(facilities_evaluated)      \
  X(facilities_pruned)         \
  X(prune_rounds)              \
  X(exact_checks)              \
  X(points_probed)             \
  X(bounds_computed)           \
  X(bounds_patched)            \
  X(net_connections)           \
  X(net_requests_decoded)      \
  X(net_batches_coalesced)     \
  X(net_bytes_in)              \
  X(net_bytes_out)             \
  X(net_shed)                  \
  X(net_paused_connections)    \
  X(net_outbox_bytes)          \
  X(coord_rpcs)                \
  X(coord_partial)             \
  X(heartbeats_sent)           \
  X(worker_failures)           \
  X(wal_appends)               \
  X(wal_bytes)                 \
  X(wal_replayed)              \
  X(checkpoints)               \
  X(checkpoint_ns)

/// Plain-value snapshot of a MetricsRegistry, safe to copy and format.
struct MetricsView {
#define TQ_METRICS_FIELD(name) uint64_t name = 0;
  TQ_METRICS_COUNTERS(TQ_METRICS_FIELD)
#undef TQ_METRICS_FIELD

  /// Merged per-OpFamily latency distributions, indexed by OpFamily value.
  std::array<HistogramSnapshot, kNumOpFamilies> op_histograms{};

  double CacheHitRate() const {
    const uint64_t looked = cache_hits + cache_misses;
    return looked == 0 ? 0.0
                       : static_cast<double>(cache_hits) /
                             static_cast<double>(looked);
  }

  /// Visits every counter as (name, value) in declaration order — the
  /// stats wire encoding and the drift-guard test iterate this way.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
#define TQ_METRICS_VISIT(name) fn(#name, name);
    TQ_METRICS_COUNTERS(TQ_METRICS_VISIT)
#undef TQ_METRICS_VISIT
  }

  /// One-object JSON rendering: every counter keyed by its field name, plus
  /// a "histograms" sub-object keyed by OpFamilyName.
  std::string ToJson() const {
    std::string s = "{";
    ForEachCounter([&s](const char* k, uint64_t v) {
      if (s.size() > 1) s += ",";
      s += "\"";
      s += k;
      s += "\":";
      s += std::to_string(v);
    });
    s += ",\"histograms\":{";
    for (size_t f = 0; f < kNumOpFamilies; ++f) {
      if (f != 0) s += ",";
      s += "\"";
      s += OpFamilyName(static_cast<OpFamily>(f));
      s += "\":";
      s += op_histograms[f].ToJson();
    }
    s += "}}";
    return s;
  }
};

/// Thread-safe counter registry. All mutators are wait-free relaxed atomic
/// increments — these sit on the query hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddQuery(bool topk) {
    queries_total_.fetch_add(1, std::memory_order_relaxed);
    (topk ? topk_queries_ : service_queries_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  void AddCacheHit() { cache_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddCacheEvictions(uint64_t n) {
    if (n) cache_evictions_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddSnapshotPublished() {
    snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddShardTask() {
    shard_tasks_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddShardPublishes(uint64_t n) {
    if (n) shard_publishes_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddInserted(uint64_t n) {
    if (n) trajectories_inserted_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddRemoved(uint64_t n) {
    if (n) trajectories_removed_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Folds one publish's wall time into the registry.
  void AddPublishCost(uint64_t ns) {
    publish_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Folds one coordinated top-k query's work accounting into the
  /// registry.
  void AddTopKPruneWork(uint64_t evaluated, uint64_t pruned,
                        uint64_t rounds) {
    facilities_evaluated_.fetch_add(evaluated, std::memory_order_relaxed);
    facilities_pruned_.fetch_add(pruned, std::memory_order_relaxed);
    prune_rounds_.fetch_add(rounds, std::memory_order_relaxed);
  }

  /// Network front-end accounting (bumped by net::NetServer only).
  void AddNetConnection() {
    net_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddNetRequestsDecoded(uint64_t n) {
    if (n) net_requests_decoded_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddNetBatchesCoalesced(uint64_t n) {
    if (n) net_batches_coalesced_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddNetBytesIn(uint64_t n) {
    if (n) net_bytes_in_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddNetBytesOut(uint64_t n) {
    if (n) net_bytes_out_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddNetShed() { net_shed_.fetch_add(1, std::memory_order_relaxed); }
  /// Read-pause transitions (pause events, cumulative — a connection that
  /// pauses, drains, and pauses again counts twice).
  void AddNetPause() {
    net_paused_connections_.fetch_add(1, std::memory_order_relaxed);
  }
  /// net_outbox_bytes is a gauge of bytes currently staged across all
  /// connection outboxes: Add when staged, Sub when written to the socket
  /// or the connection closes.
  void AddNetOutboxBytes(uint64_t n) {
    if (n) net_outbox_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void SubNetOutboxBytes(uint64_t n) {
    if (n) net_outbox_bytes_.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Multi-process accounting: partial answers (runtime::Coordinator; only
  /// a remote transport ever loses a participant), RPCs, heartbeats and
  /// worker failures (runtime::RemoteShardSet).
  void AddCoordRpcs(uint64_t n) {
    if (n) coord_rpcs_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddCoordPartial() {
    coord_partial_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddHeartbeatsSent(uint64_t n) {
    if (n) heartbeats_sent_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddWorkerFailure() {
    worker_failures_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Durability accounting (bumped by storage::DurabilityManager and the
  /// engine's recovery path only).
  void AddWalAppend(uint64_t payload_bytes) {
    wal_appends_.fetch_add(1, std::memory_order_relaxed);
    if (payload_bytes) {
      wal_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    }
  }
  void AddWalReplayed(uint64_t n) {
    if (n) wal_replayed_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddCheckpoint(uint64_t ns) {
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    checkpoint_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Folds one query's exact checks, points probed and bound sweeps and
  /// patches into the registry.
  void RecordQueryStats(const QueryStats& s) {
    if (s.exact_checks) {
      exact_checks_.fetch_add(s.exact_checks, std::memory_order_relaxed);
    }
    if (s.points_probed) {
      points_probed_.fetch_add(s.points_probed, std::memory_order_relaxed);
    }
    if (s.bounds_computed) {
      bounds_computed_.fetch_add(s.bounds_computed,
                                 std::memory_order_relaxed);
    }
    if (s.bounds_patched) {
      bounds_patched_.fetch_add(s.bounds_patched, std::memory_order_relaxed);
    }
  }

  /// One latency sample for the given family.
  void RecordLatency(OpFamily family, uint64_t ns) {
    histograms_[static_cast<size_t>(family)].Record(ns);
  }
  /// 1-in-32 gate for the PER-TASK families (kShardTask, kQueueWait): a
  /// query fans into num_shards tasks, each wanting 2-3 clock reads, which
  /// dominates the layer's hot-path cost when cores are scarce. The
  /// end-to-end families (service/topk/net_frame/publish) stay complete —
  /// sampling here only widens the per-task histograms' confidence
  /// interval, never breaks the count == queries_total invariant.
  /// Thread-local counter: contention-free, per-thread round-robin.
  static bool SampleTask() {
    thread_local uint32_t n = 0;
    return (n++ % kTaskSampleEvery) == 0;
  }
  static constexpr uint32_t kTaskSampleEvery = 32;
  const LatencyHistogram& histogram(OpFamily family) const {
    return histograms_[static_cast<size_t>(family)];
  }

  MetricsView Read() const {
    MetricsView v;
#define TQ_METRICS_LOAD(name) \
  v.name = name##_.load(std::memory_order_relaxed);
    TQ_METRICS_COUNTERS(TQ_METRICS_LOAD)
#undef TQ_METRICS_LOAD
    for (size_t f = 0; f < kNumOpFamilies; ++f) {
      v.op_histograms[f] = histograms_[f].Read();
    }
    return v;
  }

 private:
#define TQ_METRICS_ATOMIC(name) std::atomic<uint64_t> name##_{0};
  TQ_METRICS_COUNTERS(TQ_METRICS_ATOMIC)
#undef TQ_METRICS_ATOMIC

  LatencyHistogram histograms_[kNumOpFamilies];
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_METRICS_H_
