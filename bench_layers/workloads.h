// The four workloads, the per-layer probes and the layer ladder.
//
// Each workload builds its inputs, sets the program up (several times, for
// a stable set-up time), drives it through public entry points for a fixed
// window, and checks every answer against the brute-force oracle.
#ifndef TQCOVER_BENCH_LAYERS_WORKLOADS_H_
#define TQCOVER_BENCH_LAYERS_WORKLOADS_H_

#include <memory>
#include <string>

#include "harness.h"
#include "net/server.h"
#include "oracle.h"
#include "runtime/remote_shard_set.h"
#include "runtime/serving_engine.h"
#include "runtime/sharded_engine.h"
#include "service/models.h"
#include "tqtree/tq_tree.h"
#include "traj/dataset.h"

namespace tq::bl {

inline constexpr double kPsi = 200.0;       // ψ, metres
inline constexpr size_t kBeta = 64;         // β
inline constexpr size_t kStops = 64;        // stops per route
inline constexpr size_t kRoutes = 128;      // the paper's default |F|
inline constexpr size_t kZipfRoutes = 2024; // the paper's NY route count
inline constexpr size_t kNytUsers = 35713;  // NYT, one day x 0.1
inline constexpr size_t kNyfUsers = 21275;  // NYF x 0.1

/// One data set: users, facilities and the service model over them.
///
/// The data sets are the repository's fixed presets; --seed drives only the
/// query and update streams (and the held-out insert set). Across generator
/// seeds the same engine's cold top-k moved from 24 ms to 141 ms, because
/// some draws prune far better than others, and no regression bound
/// survives that spread.
struct Dataset {
  TrajectorySet users;
  TrajectorySet facilities;
  ServiceModel model;
  OracleModel oracle_model = OracleModel::kPointsPerUser;
};

/// NYT taxi trips under Scenario 1 over `routes` NY bus routes.
std::unique_ptr<Dataset> NytDataset(size_t routes);
/// NYF check-ins under Scenario 2 (per-user normalised) over `routes` routes.
std::unique_ptr<Dataset> NyfDataset(size_t routes);

/// Whole-trajectory TQ(Z) tree with β = 64 for `model`.
TQTreeOptions TreeOptions(const ServiceModel& model);

/// One query through any serving engine, waiting for its answer. `trace`
/// (optional) is a caller-owned context the engine appends its spans to;
/// `done_ns` (optional) receives the time the engine handed the answer
/// over, before this thread woke up to take it.
runtime::QueryResponse Call(runtime::ServingEngine& engine,
                            runtime::QueryRequest request,
                            runtime::TraceContextPtr trace = nullptr,
                            uint64_t* done_ns = nullptr);

/// A coordinator (2 threads) over 2 in-process shard workers, each a
/// slice-owning ShardedEngine (1 thread) behind its own NetServer on an
/// ephemeral loopback port, 4 shards split 2 + 2, as
/// bench/bench_distributed_topk.cc sets it up.
struct Cluster {
  std::vector<std::unique_ptr<runtime::ShardedEngine>> workers;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::unique_ptr<runtime::RemoteShardSet> coordinator;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  /// Coordinator first, then the front-ends, then the engines behind them.
  ~Cluster();
};
/// Null when a worker fails to listen or the coordinator to connect.
std::unique_ptr<Cluster> StartCluster(const Dataset& data);

/// Per-layer metrics read off a deployment over the window: ratios of its
/// counter deltas, percentiles of its latency histograms, and the net spans
/// of its recent sampled traces. All zero for a layer it does not deploy.
void AddDeploymentLayerMetrics(const WindowDelta& d,
                               const std::vector<runtime::Trace>& traces,
                               double ops, MetricList* out);

WorkloadResult RunLibNyt(const RunConfig& config, SpanLog* spans);
WorkloadResult RunEngineZipf(const RunConfig& config, SpanLog* spans);
WorkloadResult RunNetMixed(const RunConfig& config, SpanLog* spans);
WorkloadResult RunClusterTopK(const RunConfig& config, SpanLog* spans);

/// Library-level probes (service/, tqtree/, query/, cover/) on `data`:
/// times and counts from direct calls into each module.
void AddLibraryProbes(const Dataset& data, const RunConfig& config,
                      MetricList* out);

/// The layer ladder: one fixed sample on NYF replayed at each rung (single
/// tree, 1- and 4-shard engine, loopback server, coordinator + 2 workers,
/// in-memory and durable publish), with each rung's cost over the one below.
/// Returns the number of queries or steps that failed.
uint64_t AddLadder(const RunConfig& config, MetricList* out);

}  // namespace tq::bl

#endif  // TQCOVER_BENCH_LAYERS_WORKLOADS_H_
