// The serving protocol (QueryRequest / QueryResponse / UpdateBatch) and the
// abstract serving-engine surface the network front-end talks to — the
// same front-end (wire protocol, epoll loop, pipelining) over an in-process
// engine and over a coordinator that owns no indexes, only connections to
// shard-worker processes. This interface is exactly the slice of engine
// behaviour the front-end consumes:
//
//   * async query dispatch (SubmitAsync) and synchronous write application
//     (ApplyUpdates) — the two data paths;
//   * metrics + tracer access, ψ, snapshot version and per-shard
//     generations — the introspection the stats/update frames report;
//   * the distributed-protocol hooks: identity (info), the round-1 top-k
//     bound sweep (TopKBoundSweepAsync, serving kBound frames), the
//     per-worker liveness table (Workers, serving kStatus frames), and the
//     periodic Tick the front-end's timerfd drives (heartbeats).
//
// Both implementations answer queries through one Coordinator
// (coordinator.h): ShardedEngine over its owned shards, RemoteShardSet over
// its workers. The front-end cannot tell them apart — which is precisely
// the test the distributed smoke matrix runs.
#ifndef TQCOVER_RUNTIME_SERVING_ENGINE_H_
#define TQCOVER_RUNTIME_SERVING_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/topk.h"
#include "runtime/histogram.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"
#include "storage/durability.h"

namespace tq::runtime {

/// Query kinds every serving engine answers.
enum class QueryKind {
  kServiceValue,  // SO(U, f) for one facility (Algorithms 1–2)
  kTopK,          // kMaxRRST (Algorithms 3–4)
};

struct QueryRequest {
  QueryKind kind = QueryKind::kServiceValue;
  FacilityId facility = 0;  // kServiceValue only
  size_t k = 8;             // kTopK only

  static QueryRequest ServiceValue(FacilityId f) {
    return QueryRequest{QueryKind::kServiceValue, f, 0};
  }
  static QueryRequest TopK(size_t k) {
    return QueryRequest{QueryKind::kTopK, 0, k};
  }
};

struct QueryResponse {
  QueryKind kind = QueryKind::kServiceValue;
  /// Non-OK when the request was rejected (e.g. facility id out of range);
  /// a serving engine must survive malformed tenant requests, so they come
  /// back as errors, never crashes. All other fields are meaningless then.
  Status status;
  /// Version of the snapshot this answer was computed against.
  uint64_t snapshot_version = 0;
  /// kServiceValue: every participant answered from its result cache.
  /// Always false for kTopK, whose bound wave runs on every query.
  bool cache_hit = false;
  double value = 0.0;                  // kServiceValue
  std::vector<RankedFacility> ranked;  // kTopK
  QueryStats stats;                    // zero for cache hits
};

/// One writer batch: trajectories to add to the user set and/or trajectory
/// ids to de-index. Applied atomically — queries see either the old snapshot
/// or the new one, never a half-applied state.
struct UpdateBatch {
  std::vector<std::vector<Point>> inserts;
  std::vector<uint32_t> removes;
};

/// Engine durability knobs and recovery report, re-exported so front-end
/// code (net/, tools/) configures engines without spelling the storage
/// namespace. The subsystem itself lives in src/storage/.
using DurabilityOptions = storage::DurabilityOptions;
using RecoveryInfo = storage::RecoveryInfo;

/// A serving process's identity: the partition geometry every peer must
/// agree on before per-shard answers compose. Mirrors net::WireWorkerInfo
/// (kept separate so runtime/ does not depend on net/).
struct EngineInfo {
  uint32_t num_shards = 0;
  uint32_t owned_begin = 0;  // owned Z-order shard range [begin, end)
  uint32_t owned_end = 0;
  double psi = 0.0;
  uint32_t num_facilities = 0;
  uint64_t users_total = 0;
  uint64_t snapshot_version = 0;
};

/// Result of a round-1 top-k bound sweep over an engine's owned shards:
/// per-facility upper bounds — one remote worker's answer to a coordinator's
/// bound wave.
struct BoundSweepResult {
  Status status;
  uint64_t snapshot_version = 0;
  std::vector<double> bounds;  // one per facility, facility order
};

/// One worker's liveness row (coordinator engines only; in-process engines
/// report an empty table). `state` uses WorkerRegistry::State values.
struct WorkerStatus {
  std::string address;
  uint8_t state = 0;
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;
  uint64_t heartbeats = 0;
  uint64_t failures = 0;
  uint64_t age_ms = 0;          // since last successful contact
  HistogramSnapshot rtt;        // per-worker RPC round-trip distribution
};

class ServingEngine {
 public:
  using ResponseCallback = std::function<void(QueryResponse)>;
  using BoundSweepCallback = std::function<void(BoundSweepResult)>;

  virtual ~ServingEngine() = default;

  // ---- introspection ---------------------------------------------------
  virtual MetricsRegistry* mutable_metrics() = 0;
  virtual const Tracer& tracer() const = 0;
  virtual Tracer* mutable_tracer() = 0;
  /// The serving ψ, fixed for the engine's lifetime.
  virtual double psi() const = 0;
  virtual uint64_t snapshot_version() const = 0;
  /// Per-shard publish generations, shard order (kUpdate responses).
  /// Contract: a shard's generation changes iff a publish modified that
  /// shard's contents, so an unchanged generation vector guarantees every
  /// query answer is unchanged — the result cache keys on it, which is why
  /// a client re-reading after a no-op publish is served from the cache.
  virtual std::vector<uint64_t> shard_generations() const = 0;
  virtual EngineInfo info() const = 0;
  /// Liveness table for kStatus frames; empty unless this is a coordinator.
  virtual std::vector<WorkerStatus> Workers() const { return {}; }

  // ---- data paths ------------------------------------------------------
  /// Async query dispatch; `done` runs exactly once, possibly inline, and
  /// must not block. `start_ns` (0 = read the clock now) backdates the
  /// latency sample to the frame's receive timestamp.
  virtual void SubmitAsync(QueryRequest request, TraceContextPtr trace,
                           ResponseCallback done, uint64_t start_ns) = 0;
  /// Synchronous write application; returns the assigned global ids.
  virtual std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) = 0;
  /// Round-1 bound sweep for one top-k query over this engine's owned
  /// shards (serves kBound frames). The sweep bounds every facility, so it
  /// does not depend on the query's k. `done` runs exactly once, possibly
  /// inline, and must not block. Engines that own no shards (coordinators
  /// are never stacked) answer kUnimplemented.
  virtual void TopKBoundSweepAsync(BoundSweepCallback done) {
    BoundSweepResult result;
    result.status =
        Status::Unimplemented("coordinators do not serve bound sweeps");
    result.snapshot_version = snapshot_version();
    done(std::move(result));
  }

  // ---- durability ------------------------------------------------------
  /// Forces one synchronous checkpoint → WAL-trim cycle.
  /// kUnimplemented on engines without a durability subsystem (the default,
  /// and any engine started without a data dir).
  virtual Status Checkpoint() {
    return Status::Unimplemented("engine has no durability subsystem");
  }
  /// What recovery did at startup (kStatus frames, CLI status). All-zero /
  /// non-durable on engines without a durability subsystem.
  virtual storage::RecoveryInfo recovery_info() const { return {}; }

  // ---- periodic maintenance --------------------------------------------
  /// How often the front-end should call Tick(); 0 = never (no timer).
  virtual uint64_t tick_period_ms() const { return 0; }
  /// Called from the front-end's event loop on the tick period. Must not
  /// block: long work (heartbeat RPCs, say) is handed to a pool inside.
  virtual void Tick() {}
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_SERVING_ENGINE_H_
