// Distributed top-k latency: the RemoteShardSet coordinator over loopback
// shard-worker processes versus the single-process ShardedEngine, on the
// NYF preset, for the acceptance matrix shards {2, 4} × workers {1, 2}.
//
// Each "worker process" here is an in-process slice-owning ShardedEngine
// behind its own NetServer on an ephemeral loopback port — the same code a
// real `tqcover_cli serve --worker` runs, minus fork/exec, so the measured
// delta is the coordination cost (wire framing + bound-and-prune waves over
// TCP + merge) rather than process-spawn noise. Queries run as
// synchronous round-trips through SubmitAsync, one in flight at a time:
// the series is a LATENCY comparison, with rps = 1 / mean latency.
//
// Per cell:
//   * rps / p50_ms / p99_ms            — coordinator top-k round-trips
//   * single_rps / single_p50_ms       — same queries on one process
//   * sum_rps                          — coordinator scatter/gather sums
//   * slowdown                         — single_rps / rps (coordination tax)
//
// Emits "# json: distributed_topk"; CI gates on every cell's rps staying
// positive so the distributed path cannot silently stop answering.
// Honors REPRO_SCALE / REPRO_FULL (bench_util.h).
#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "net/server.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"

namespace {

using tq::net::NetServer;
using tq::net::NetServerOptions;
using tq::runtime::QueryRequest;
using tq::runtime::QueryResponse;
using tq::runtime::RemoteShardSet;
using tq::runtime::RemoteShardSetOptions;
using tq::runtime::ServingEngine;
using tq::runtime::ShardedEngine;
using tq::runtime::ShardedEngineOptions;

struct Cell {
  size_t shards = 0;
  size_t workers = 0;
  size_t queries = 0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double single_rps = 0.0;
  double single_p50_ms = 0.0;
  double sum_rps = 0.0;
  double slowdown = 0.0;
};

/// One in-process shard-worker: slice-owning engine + TCP front-end.
struct Worker {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<NetServer> server;
};

QueryResponse RunQuery(ServingEngine& engine, QueryRequest request) {
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  engine.SubmitAsync(
      std::move(request), nullptr,
      [&promise](QueryResponse r) { promise.set_value(std::move(r)); },
      /*start_ns=*/0);
  return future.get();
}

}  // namespace

int main() {
  const auto env = tq::bench::BenchEnv::FromEnv();
  const auto num_users = static_cast<size_t>(212751 * env.scale);
  const tq::TrajectorySet users = tq::presets::NyfCheckins(num_users);
  const tq::TrajectorySet routes =
      tq::presets::NyBusRoutes(env.DefaultFacilities(), env.DefaultStops());
  const size_t num_fac = routes.size();
  const size_t reps = std::max<size_t>(env.reps, 3);
  // Cycle k through small-to-broad requests so both the pruned and the
  // exhaustive protocol legs get exercised.
  const std::vector<size_t> ks = {1, 4, 8, 16};
  const size_t queries = reps * 16;

  tq::bench::Banner("Distributed top-k — coordinator vs single process");
  std::printf("users=%zu facilities=%zu queries/cell=%zu\n", num_users,
              num_fac, queries);
  tq::bench::PrintSeriesHeader(
      {"rps", "p50_ms", "p99_ms", "single_rps", "sum_rps", "slowdown"});

  std::vector<Cell> cells;
  for (const size_t shards : {2u, 4u}) {
    ShardedEngineOptions base;
    base.num_shards = shards;
    base.num_threads = 2;
    // Result caches off everywhere: the series compares the wire protocol
    // against the in-process protocol, both computing answers from
    // the trees every time — not hash-map hit rates.
    base.cache_capacity = 0;
    base.tree.beta = env.DefaultBeta();
    base.tree.model = tq::ServiceModel::PointCount(env.DefaultPsi());

    // The single-process reference for this shard count.
    ShardedEngine single(users, routes, base);

    for (const size_t num_workers : {1u, 2u}) {
      Cell cell;
      cell.shards = shards;
      cell.workers = num_workers;
      cell.queries = queries;

      // Stand up the worker fleet: contiguous even slices of the shard
      // range, the last worker taking the remainder.
      std::vector<Worker> workers;
      const auto per = static_cast<uint32_t>(shards / num_workers);
      for (size_t i = 0; i < num_workers; ++i) {
        ShardedEngineOptions so = base;
        so.owned_begin = static_cast<uint32_t>(i) * per;
        so.owned_end = i + 1 == num_workers ? static_cast<uint32_t>(shards)
                                            : so.owned_begin + per;
        Worker w;
        w.engine = std::make_unique<ShardedEngine>(users, routes, so);
        w.server =
            std::make_unique<NetServer>(w.engine.get(), NetServerOptions{});
        TQ_CHECK(w.server->Start().ok());
        workers.push_back(std::move(w));
      }
      RemoteShardSetOptions ro;
      for (const Worker& w : workers) {
        ro.workers.emplace_back("127.0.0.1", w.server->port());
      }
      ro.num_threads = 2;
      RemoteShardSet coord(ro);
      TQ_CHECK(coord.Connect().ok());

      // Warm both paths once (first-touch page faults, cold caches).
      TQ_CHECK(RunQuery(coord, QueryRequest::TopK(8)).status.ok());
      TQ_CHECK(RunQuery(single, QueryRequest::TopK(8)).status.ok());

      tq::bench::LatencyRecorder dist_lat;
      {
        tq::Timer timer;
        for (size_t i = 0; i < queries; ++i) {
          tq::Timer rt;
          const QueryResponse r =
              RunQuery(coord, QueryRequest::TopK(ks[i % ks.size()]));
          dist_lat.RecordSeconds(rt.ElapsedSeconds());
          TQ_CHECK(r.status.ok() && !r.ranked.empty());
        }
        cell.rps = static_cast<double>(queries) / timer.ElapsedSeconds();
      }
      const auto dl = dist_lat.Snapshot();
      cell.p50_ms = tq::bench::PercentileMs(dl, 0.50);
      cell.p99_ms = tq::bench::PercentileMs(dl, 0.99);

      tq::bench::LatencyRecorder single_lat;
      {
        tq::Timer timer;
        for (size_t i = 0; i < queries; ++i) {
          tq::Timer rt;
          const QueryResponse r =
              RunQuery(single, QueryRequest::TopK(ks[i % ks.size()]));
          single_lat.RecordSeconds(rt.ElapsedSeconds());
          TQ_CHECK(r.status.ok() && !r.ranked.empty());
        }
        cell.single_rps =
            static_cast<double>(queries) / timer.ElapsedSeconds();
      }
      cell.single_p50_ms =
          tq::bench::PercentileMs(single_lat.Snapshot(), 0.50);
      cell.slowdown = cell.rps > 0.0 ? cell.single_rps / cell.rps : 0.0;

      // Scatter/gather service-value sums (cache-missing: stride the
      // catalog so consecutive queries hit distinct facilities).
      {
        tq::Timer timer;
        for (size_t i = 0; i < queries; ++i) {
          const auto f = static_cast<tq::FacilityId>((i * 7) % num_fac);
          TQ_CHECK(
              RunQuery(coord, QueryRequest::ServiceValue(f)).status.ok());
        }
        cell.sum_rps = static_cast<double>(queries) / timer.ElapsedSeconds();
      }

      cells.push_back(cell);
      char label[48];
      std::snprintf(label, sizeof(label), "shards=%zu,workers=%zu", shards,
                    num_workers);
      tq::bench::PrintTimeRow(
          label,
          {"rps", "p50_ms", "p99_ms", "single_rps", "sum_rps", "slowdown"},
          {cell.rps, cell.p50_ms, cell.p99_ms, cell.single_rps, cell.sum_rps,
           cell.slowdown});
      for (Worker& w : workers) w.server->Stop();
    }
  }

  std::printf("# json: {\"bench\":\"distributed_topk\",\"preset\":\"nyf\","
              "\"users\":%zu,\"facilities\":%zu,\"results\":[",
              num_users, num_fac);
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf(
        "%s{\"shards\":%zu,\"workers\":%zu,\"queries\":%zu,"
        "\"requests_per_sec\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
        "\"single_requests_per_sec\":%.1f,\"single_p50_ms\":%.3f,"
        "\"sum_requests_per_sec\":%.1f,\"slowdown\":%.2f}",
        i == 0 ? "" : ",", c.shards, c.workers, c.queries, c.rps, c.p50_ms,
        c.p99_ms, c.single_rps, c.single_p50_ms, c.sum_rps, c.slowdown);
  }
  std::printf("]}\n");
  return 0;
}
