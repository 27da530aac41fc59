// The coordinator side of multi-process serving: a ServingEngine whose
// "shards" are shard-worker PROCESSES reached over the wire protocol.
//
// A RemoteShardSet owns no indexes. It holds one channel (a small pool of
// pipelined NetClient connections) per worker and a WorkerRegistry tracking
// liveness, and it is the remote ShardTransport of the serving protocol's
// one Coordinator (coordinator.h) — the same sum and bound-and-prune top-k
// loop ShardedEngine runs over its shards, with each worker a participant:
//
//   Bound     one kBound frame per alive worker. Worker w answers with
//             B_w(f) = Σ_{owned s} UB_s(f) per facility.
//   Evaluate  one plain kSum frame per worker for the facilities it owes
//             (a sum's one facility, or the window slots it has not
//             settled; a worker whose own B_w(f) is 0 is settled at 0 by
//             the planner, never asked).
//
// Each wave is one pool task: it runs the pipelined RPC wave (every frame
// flushed before any answer is read) and then continues the query, so the
// coordinator's plan loop never recurses and never holds a thread between
// waves.
//
// Bit-identity: every per-facility total is a sum of per-shard values in
// ascending shard order — workers own contiguous ascending shard ranges and
// are summed in worker order. For integer-valued service models
// (point/endpoint counts, the NYF/NYBus presets) every partial sum is exact
// below 2^53, so coordinator answers equal the single-process ShardedEngine
// bit for bit — the property the CI distributed-smoke job diffs.
// Float-valued models (e.g. "length") agree only up to summation
// associativity.
//
// Failure handling: a transport error or malformed answer moves the worker
// to kDead in the registry (worker_failures increments on the transition)
// and drops it from the rest of the query; the coordinator answers over the
// survivors with StatusCode::kUnavailable marking the result partial. A
// worker's rejection of a sum query (not of the transport) is that query's
// answer and does not score the worker. Dead workers are re-registered by
// the periodic heartbeat pass (Tick, driven by the net server's timerfd)
// once they come back AND their geometry still matches.
//
// Writes fan out to every alive worker: each applies the identical batch,
// and because global-id assignment is deterministic (ShardedEngine routes
// and numbers from the same full-user-set geometry), every worker returns
// the same assigned ids; a worker that disagrees is treated as failed.
// ApplyUpdates blocks its caller for one fan-out round-trip — acceptable on
// the serving loop because updates are already batched there.
#ifndef TQCOVER_RUNTIME_REMOTE_SHARD_SET_H_
#define TQCOVER_RUNTIME_REMOTE_SHARD_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "runtime/coordinator.h"
#include "runtime/histogram.h"
#include "runtime/metrics.h"
#include "runtime/serving_engine.h"
#include "runtime/thread_pool.h"
#include "runtime/trace.h"
#include "runtime/worker_registry.h"

namespace tq::runtime {

struct RemoteShardSetOptions {
  /// Worker endpoints, in ascending owned-shard-range order (Connect
  /// verifies the ranges are contiguous and cover [0, num_shards)).
  std::vector<std::pair<std::string, uint16_t>> workers;
  /// Pool threads running distributed queries (each wave occupies one
  /// thread for its scatter/gather round-trips).
  size_t num_threads = 4;
  /// Cap on any single worker send/recv; an expired RPC counts as a worker
  /// failure rather than hanging the query.
  uint64_t rpc_timeout_ms = 2000;
  /// Heartbeat probe period (surfaced as tick_period_ms to the front-end's
  /// timerfd) and the silence threshold that declares a worker dead.
  uint64_t heartbeat_period_ms = 1000;
  uint64_t heartbeat_timeout_ms = 5000;
};

class RemoteShardSet : public ServingEngine, private ShardTransport {
 public:
  explicit RemoteShardSet(RemoteShardSetOptions options);
  /// Drains in-flight distributed queries, then joins the pool.
  ~RemoteShardSet() override;

  RemoteShardSet(const RemoteShardSet&) = delete;
  RemoteShardSet& operator=(const RemoteShardSet&) = delete;

  /// Dials and registers every worker, verifies the partition geometry
  /// (shared num_shards / ψ / catalog size / users_total; contiguous
  /// ascending owned ranges covering every shard) and learns the initial
  /// shard generations. Must succeed before the first query.
  Status Connect();

  // ---- ServingEngine ----------------------------------------------------
  MetricsRegistry* mutable_metrics() override { return &metrics_; }
  const Tracer& tracer() const override { return tracer_; }
  Tracer* mutable_tracer() override { return &tracer_; }
  double psi() const override { return psi_; }
  uint64_t snapshot_version() const override;
  std::vector<uint64_t> shard_generations() const override;
  EngineInfo info() const override;
  std::vector<WorkerStatus> Workers() const override;
  void SubmitAsync(QueryRequest request, TraceContextPtr trace,
                   ResponseCallback done, uint64_t start_ns = 0) override;
  std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) override;
  uint64_t tick_period_ms() const override {
    return options_.heartbeat_period_ms;
  }
  /// Non-blocking: posts one heartbeat pass (probe alive workers, attempt
  /// re-registration of dead ones, sweep timeouts) onto the pool; at most
  /// one pass runs at a time.
  void Tick() override;

  size_t num_workers() const { return channels_.size(); }

  // ---- worker-set persistence (serve --coordinator --data-dir) ----------
  // The verified worker set persists as DIR/workers.txt, one HOST:PORT per
  // line, written atomically (tmp file + rename), so a coordinator restart
  // can recover its cluster membership without re-passing --workers.

  /// Creates `data_dir` if needed and writes `workers` to its worker-set
  /// file (atomic replace).
  static Status SaveWorkerSet(
      const std::string& data_dir,
      const std::vector<std::pair<std::string, uint16_t>>& workers);
  /// Appends the saved endpoints to `*workers`. NotFound when the file does
  /// not exist; IOError on an unparseable line.
  static Status LoadWorkerSet(
      const std::string& data_dir,
      std::vector<std::pair<std::string, uint16_t>>* workers);

 private:
  /// One worker's connection pool + RTT accounting. Channels are created at
  /// construction and never move (unique_ptr pins them for the histogram).
  struct Channel {
    std::string host;
    uint16_t port = 0;
    std::string address;  // "host:port"
    uint32_t owned_begin = 0;
    uint32_t owned_end = 0;
    std::mutex mu;
    std::vector<std::unique_ptr<net::NetClient>> idle;
    LatencyHistogram rtt;
  };

  /// Pops an idle connected client for worker `w`, dialing a fresh one if
  /// none is pooled. Null on connect failure (the caller scores it).
  std::unique_ptr<net::NetClient> AcquireClient(size_t w);
  void ReleaseClient(size_t w, std::unique_ptr<net::NetClient> client);
  /// Worker indices currently kAlive, ascending.
  std::vector<size_t> AliveWorkers() const;
  /// Scores one failed RPC: registry transition, worker_failures metric on
  /// alive -> dead, and the channel's (now stale) idle sockets dropped.
  void MarkFailed(size_t w);
  /// Runs one pipelined RPC wave over `parts` (ascending): every request is
  /// flushed before any response is read — workers compute concurrently —
  /// then responses are consumed in ascending worker order. `consume`
  /// returning non-OK counts as that worker failing. Failed workers are
  /// scored dead and returned.
  std::vector<size_t> RunWave(
      std::span<const size_t> parts,
      const std::function<net::NetRequest(size_t)>& make_request,
      const std::function<Status(size_t, net::NetResponse&&)>& consume);
  /// Runs `fn` against one client of worker `w`, recording the RTT into the
  /// channel histogram and liveness on success, scoring a worker failure on
  /// any error. `rtt_ns` (optional) receives the measured round-trip.
  Status Rpc(size_t w, const std::function<Status(net::NetClient*)>& fn,
             uint64_t* rtt_ns = nullptr);
  /// One kRegister round-trip + geometry verification against the cluster
  /// view; `initial` learns the geometry instead of checking it.
  Status RegisterWorker(size_t w, net::NetClient* client, bool initial);
  /// The heartbeat pass body (pool thread).
  void HeartbeatPass();

  // ShardTransport: participant p is worker p.
  std::vector<size_t> Participants() const override { return AliveWorkers(); }
  size_t num_participants() const override { return channels_.size(); }
  void Bound(const CoordinatedQueryPtr& query) override;
  void Evaluate(const CoordinatedQueryPtr& query) override;
  /// One wave of `query` as one RPC wave (pool thread), then continues it.
  void RunQueryWave(const CoordinatedQueryPtr& query, bool bound);

  RemoteShardSetOptions options_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  WorkerRegistry registry_;
  std::vector<std::unique_ptr<Channel>> channels_;

  // Cluster geometry, fixed by Connect().
  bool connected_ = false;
  uint32_t num_shards_ = 0;
  double psi_ = 0.0;
  uint32_t num_facilities_ = 0;

  // Mutable cluster state (guarded by state_mu_).
  mutable std::mutex state_mu_;
  uint64_t snapshot_version_ = 0;
  std::vector<uint64_t> generations_;
  uint64_t users_total_ = 0;

  std::mutex writer_mu_;  // serializes ApplyUpdates fan-outs
  std::atomic<uint64_t> heartbeat_seq_{0};
  std::atomic<bool> heartbeat_inflight_{false};

  Coordinator coordinator_{this, &metrics_, /*sampled_traces=*/nullptr};

  ThreadPool pool_;  // last member: joins before the rest is torn down
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_REMOTE_SHARD_SET_H_
