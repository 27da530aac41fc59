// Concurrent runtime throughput on the NYF preset: queries/sec of the
// scatter/gather serving engine (src/runtime/sharded_engine.h) across a
// shards × threads matrix (1/2/4/8 each; the shards=1 rows are the
// unpartitioned single-tree engine).
//
// Two series per configuration:
//   * qps        — result cache disabled: raw compute scaling of the
//                  executor over lock-free snapshot readers.
//   * cached_qps — warm sharded LRU cache: the serving steady state where
//                  popular facilities repeat.
//
// A second section measures the WRITE path on a one-shard engine:
// publishes/sec and p50/p99 publish latency of forked (path-copying)
// snapshot publishes at batch sizes 1/16/256, plus nodes_copied per publish
// against the tree's total — the number that proves a publish is
// O(batch × depth), not a full clone.
//
// A third section measures BOUND-AND-PRUNE top-k: per (shards, k), the
// fraction of (facility, shard) slots the pruned protocol exactly
// evaluates (exhaustive sweep = 1.0), its scatter waves per query
// (prune_rounds: the bound sweep plus each refinement wave) and the pruned
// vs exhaustive query latency. CI gates on its facilities_evaluated staying
// below total_facilities for k=10, shards=4.
//
// Besides the usual table + "# csv:" lines, emits three "# json:" lines
// ("runtime_throughput_sharded", "runtime_write_path" and
// "runtime_topk_prune") so the
// BENCH_runtime.json trajectory can track read QPS, write scaling and
// pruning effectiveness across PRs. Honors REPRO_SCALE / REPRO_FULL
// (bench_util.h).
#include <algorithm>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "runtime/sharded_engine.h"

namespace {

using tq::runtime::QueryRequest;
using tq::runtime::QueryResponse;
using tq::runtime::ShardedEngine;
using tq::runtime::ShardedEngineOptions;

struct ThroughputResult {
  size_t shards = 0;
  size_t threads = 0;
  double qps = 0.0;
  double cached_qps = 0.0;
};

// Wall-clock queries/sec for `num_queries` service-value queries issued
// round-robin over the catalog. `warm_pass` first runs the same stream once
// so a second, measured pass hits the cache.
double MeasureQps(ShardedEngine* engine, size_t num_queries, bool warm_pass) {
  const size_t num_fac = engine->snapshot()->catalog->size();
  const auto run = [&]() {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(num_queries);
    for (size_t q = 0; q < num_queries; ++q) {
      futures.push_back(engine->Submit(QueryRequest::ServiceValue(
          static_cast<tq::FacilityId>(q % num_fac))));
    }
    double checksum = 0.0;
    for (auto& f : futures) checksum += f.get().value;
    return checksum;
  };
  if (warm_pass) (void)run();
  tq::Timer timer;
  (void)run();
  return static_cast<double>(num_queries) / timer.ElapsedSeconds();
}

}  // namespace

int main() {
  const auto env = tq::bench::BenchEnv::FromEnv();
  // NYF: multipoint check-in trajectories (paper full scale 212,751) under
  // the Scenario-2 point-count model, served by NY bus routes.
  const auto num_users = static_cast<size_t>(212751 * env.scale);
  tq::TrajectorySet users = tq::presets::NyfCheckins(num_users);
  tq::TrajectorySet routes =
      tq::presets::NyBusRoutes(env.DefaultFacilities(), env.DefaultStops());
  const tq::ServiceModel model =
      tq::ServiceModel::PointCount(env.DefaultPsi());
  const size_t num_queries =
      std::max<size_t>(env.reps * routes.size(), 4 * routes.size());

  const unsigned cores = std::thread::hardware_concurrency();
  tq::bench::Banner("Runtime throughput — NYF preset, kMaxRRST serving");
  std::printf("users=%zu facilities=%zu queries=%zu psi=%.0f beta=%zu "
              "cores=%u\n",
              users.size(), routes.size(), num_queries, env.DefaultPsi(),
              env.DefaultBeta(), cores);
  if (cores < 8) {
    std::printf("note: only %u hardware threads — thread-count scaling is "
                "bounded by the machine, not the executor\n", cores);
  }
  // Scatter/gather: the shards × threads matrix. Shard count 1 is the
  // unpartitioned single-tree engine; higher shard counts show
  // partitioned-tree scaling.
  tq::bench::PrintSeriesHeader({"qps", "cached_qps"});
  std::vector<ThroughputResult> sharded_results;
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      ThroughputResult r;
      r.shards = shards;
      r.threads = threads;
      {
        ShardedEngineOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        options.cache_capacity = 0;  // raw compute scaling
        options.tree.beta = env.DefaultBeta();
        options.tree.model = model;
        ShardedEngine engine(users, routes, options);
        r.qps = MeasureQps(&engine, num_queries, /*warm_pass=*/false);
      }
      {
        ShardedEngineOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        options.cache_capacity = 4096;
        options.tree.beta = env.DefaultBeta();
        options.tree.model = model;
        ShardedEngine engine(users, routes, options);
        r.cached_qps = MeasureQps(&engine, num_queries, /*warm_pass=*/true);
      }
      sharded_results.push_back(r);
      char label[48];
      std::snprintf(label, sizeof(label), "shards=%zu,thr=%zu", shards,
                    threads);
      tq::bench::PrintTimeRow(label, {"qps", "cached_qps"},
                              {r.qps, r.cached_qps});
    }
  }

  std::printf("# json: {\"bench\":\"runtime_throughput_sharded\","
              "\"preset\":\"nyf\",\"users\":%zu,\"facilities\":%zu,"
              "\"queries\":%zu,\"cores\":%u,\"results\":[",
              users.size(), routes.size(), num_queries, cores);
  for (size_t i = 0; i < sharded_results.size(); ++i) {
    std::printf(
        "%s{\"shards\":%zu,\"threads\":%zu,\"qps\":%.1f,"
        "\"cached_qps\":%.1f}",
        i == 0 ? "" : ",", sharded_results[i].shards,
        sharded_results[i].threads, sharded_results[i].qps,
        sharded_results[i].cached_qps);
  }
  std::printf("]}\n");

  // Write path: forked snapshot publishes at growing batch sizes. Each
  // publish removes and re-inserts a block of trajectories (steady-state
  // churn, both copy-on-write paths exercised). Segmented mode is the
  // write-heavy configuration: per-segment units build the deep tree whose
  // path copies the page store is designed around.
  tq::bench::Banner("Write path — forked publishes, path-copy cost");
  struct WriteResult {
    size_t batch = 0;
    size_t publishes = 0;
    double publishes_per_sec = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double nodes_copied_per_publish = 0.0;
    double pages_shared_per_publish = 0.0;
  };
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.cache_capacity = 0;
  options.tree.beta = env.DefaultBeta();
  options.tree.mode = tq::TrajMode::kSegmented;
  options.tree.model = model;
  ShardedEngine engine(users, routes, options);
  const tq::TQTree& tree = *engine.snapshot()->shards[0]->tree;
  const size_t total_nodes = tree.num_nodes();
  std::printf("tree: %zu nodes over %zu pages (segmented)\n", total_nodes,
              tree.num_pages());
  tq::bench::PrintSeriesHeader(
      {"pub/s", "p50_ms", "p99_ms", "nodes_cp"});
  std::vector<WriteResult> write_results;
  size_t cursor = 0;
  for (const size_t batch_size : {1u, 16u, 256u}) {
    WriteResult r;
    r.batch = batch_size;
    r.publishes = batch_size >= 256 ? 8 : 32;
    tq::bench::LatencyRecorder recorder;
    const tq::runtime::MetricsView m0 = engine.metrics().Read();
    tq::Timer total_timer;
    for (size_t p = 0; p < r.publishes; ++p) {
      tq::runtime::UpdateBatch batch;
      // One shard: a global id is its local id in the shard's user set.
      const auto snap = engine.snapshot();
      for (size_t i = 0; i < batch_size; ++i) {
        const auto id = static_cast<uint32_t>(cursor++ % users.size());
        const auto pts = snap->shards[0]->users->points(id);
        batch.inserts.emplace_back(pts.begin(), pts.end());
        batch.removes.push_back(id);
      }
      tq::Timer publish_timer;
      engine.ApplyUpdates(batch);
      recorder.RecordSeconds(publish_timer.ElapsedSeconds());
    }
    const double total_s = total_timer.ElapsedSeconds();
    const tq::runtime::MetricsView m1 = engine.metrics().Read();
    const tq::runtime::HistogramSnapshot lat = recorder.Snapshot();
    r.publishes_per_sec = static_cast<double>(r.publishes) / total_s;
    r.p50_ms = tq::bench::PercentileMs(lat, 0.50);
    r.p99_ms = tq::bench::PercentileMs(lat, 0.99);
    r.nodes_copied_per_publish =
        static_cast<double>(m1.nodes_copied - m0.nodes_copied) /
        static_cast<double>(r.publishes);
    r.pages_shared_per_publish =
        static_cast<double>(m1.pages_shared - m0.pages_shared) /
        static_cast<double>(r.publishes);
    write_results.push_back(r);
    char label[32];
    std::snprintf(label, sizeof(label), "batch=%zu", batch_size);
    tq::bench::PrintTimeRow(label,
                            {"pub/s", "p50_ms", "p99_ms", "nodes_cp"},
                            {r.publishes_per_sec, r.p50_ms, r.p99_ms,
                             r.nodes_copied_per_publish});
  }

  std::printf("# json: {\"bench\":\"runtime_write_path\",\"preset\":\"nyf\","
              "\"users\":%zu,\"total_nodes\":%zu,\"results\":[",
              users.size(), total_nodes);
  for (size_t i = 0; i < write_results.size(); ++i) {
    const WriteResult& r = write_results[i];
    std::printf(
        "%s{\"batch\":%zu,\"publishes\":%zu,\"publishes_per_sec\":%.1f,"
        "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"nodes_copied_per_publish\":%.1f,"
        "\"pages_shared_per_publish\":%.1f}",
        i == 0 ? "" : ",", r.batch, r.publishes, r.publishes_per_sec,
        r.p50_ms, r.p99_ms, r.nodes_copied_per_publish,
        r.pages_shared_per_publish);
  }
  std::printf("]}\n");

  // Bound-and-prune top-k: evaluated fraction and latency against the
  // exhaustive gather. Cache capacity 0 so every query runs the full
  // protocol (no memoised-answer shortcuts, no per-facility hits).
  tq::bench::Banner("Distributed top-k — bound-and-prune vs exhaustive");
  struct PruneResult {
    size_t shards = 0;
    size_t k = 0;
    uint64_t facilities_evaluated = 0;
    uint64_t total_facilities = 0;  // (facility, shard) evaluation slots
    double prune_rounds = 0.0;      // scatter waves per query
    double evaluated_fraction = 0.0;
    double pruned_ms = 0.0;
    double exhaustive_ms = 0.0;
  };
  std::vector<PruneResult> prune_results;
  tq::bench::PrintSeriesHeader({"eval_frac", "pruned_ms", "exhaust_ms"});
  const size_t prune_reps = std::max<size_t>(3, env.reps);
  for (const size_t shards : {1u, 4u, 8u}) {
    ShardedEngineOptions pruned_options;
    pruned_options.num_shards = shards;
    pruned_options.num_threads = 4;
    pruned_options.cache_capacity = 0;
    pruned_options.prune_topk = true;
    // This series measures the bound-and-prune PROTOCOL itself, including
    // where it degrades (k=100 ≈ |F|) — pin the adaptive large-k skip off
    // so the row does not silently measure the exhaustive path instead.
    pruned_options.prune_skip_ratio = 2.0;
    pruned_options.tree.beta = env.DefaultBeta();
    pruned_options.tree.model = model;
    ShardedEngine pruned(users, routes, pruned_options);
    ShardedEngineOptions exhaustive_options = pruned_options;
    exhaustive_options.prune_topk = false;
    ShardedEngine exhaustive(users, routes, exhaustive_options);
    for (const size_t k : {1u, 10u, 100u}) {
      PruneResult r;
      r.shards = shards;
      r.k = k;
      r.total_facilities = static_cast<uint64_t>(routes.size()) * shards;
      const tq::runtime::MetricsView m0 = pruned.metrics().Read();
      r.pruned_ms = 1e3 * tq::bench::TimeAvgSeconds(prune_reps, [&]() {
        (void)pruned.Submit(tq::runtime::QueryRequest::TopK(k)).get();
      });
      const tq::runtime::MetricsView m1 = pruned.metrics().Read();
      r.facilities_evaluated =
          (m1.facilities_evaluated - m0.facilities_evaluated) / prune_reps;
      r.evaluated_fraction = static_cast<double>(r.facilities_evaluated) /
                             static_cast<double>(r.total_facilities);
      r.prune_rounds = static_cast<double>(m1.prune_rounds - m0.prune_rounds) /
                       static_cast<double>(prune_reps);
      r.exhaustive_ms = 1e3 * tq::bench::TimeAvgSeconds(prune_reps, [&]() {
        (void)exhaustive.Submit(tq::runtime::QueryRequest::TopK(k)).get();
      });
      prune_results.push_back(r);
      char label[48];
      std::snprintf(label, sizeof(label), "shards=%zu,k=%zu", shards, k);
      tq::bench::PrintTimeRow(label,
                              {"eval_frac", "pruned_ms", "exhaust_ms"},
                              {r.evaluated_fraction, r.pruned_ms,
                               r.exhaustive_ms});
    }
  }

  std::printf("# json: {\"bench\":\"runtime_topk_prune\",\"preset\":\"nyf\","
              "\"users\":%zu,\"facilities\":%zu,\"results\":[",
              users.size(), routes.size());
  for (size_t i = 0; i < prune_results.size(); ++i) {
    const PruneResult& r = prune_results[i];
    std::printf(
        "%s{\"shards\":%zu,\"k\":%zu,\"facilities_evaluated\":%llu,"
        "\"total_facilities\":%llu,\"evaluated_fraction\":%.4f,"
        "\"prune_rounds\":%.2f,\"pruned_ms\":%.3f,\"exhaustive_ms\":%.3f}",
        i == 0 ? "" : ",", r.shards, r.k,
        static_cast<unsigned long long>(r.facilities_evaluated),
        static_cast<unsigned long long>(r.total_facilities),
        r.evaluated_fraction, r.prune_rounds, r.pruned_ms, r.exhaustive_ms);
  }
  std::printf("]}\n");
  return 0;
}
