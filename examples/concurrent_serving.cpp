// Concurrent serving: run the cell index behind the multi-threaded query
// engine — shared-nothing snapshot reads, copy-on-write updates, and a
// sharded result cache — instead of calling the evaluators inline.
//
//   ./concurrent_serving
#include <cstdio>
#include <future>
#include <vector>

#include "datagen/presets.h"
#include "runtime/sharded_engine.h"

int main() {
  // 1. Data and model, as in quickstart: taxi trips vs candidate bus routes.
  tq::TrajectorySet users = tq::presets::NytTrips(20000);
  tq::TrajectorySet routes = tq::presets::NyBusRoutes(32, 24);
  tq::runtime::ShardedEngineOptions options;
  options.num_shards = 1;  // one shard; raise to scatter/gather over N
  options.num_threads = 4;
  options.cache_capacity = 1024;
  options.tree.model = tq::ServiceModel::Endpoints(200.0);

  // 2. The engine bulk-builds the index and publishes snapshot version 1.
  //    From here on, any thread may Submit queries; none of them ever block
  //    each other or the writer.
  tq::runtime::ShardedEngine engine(std::move(users), std::move(routes),
                                   options);
  std::printf("engine serving %zu routes at snapshot v%llu\n",
              engine.snapshot()->catalog->size(),
              static_cast<unsigned long long>(engine.snapshot()->version));

  // 3. A concurrent burst: every route's service value plus one kMaxRRST,
  //    all in flight at once across the worker pool.
  std::vector<std::future<tq::runtime::QueryResponse>> futures;
  for (tq::FacilityId f = 0; f < 32; ++f) {
    futures.push_back(
        engine.Submit(tq::runtime::QueryRequest::ServiceValue(f)));
  }
  std::future<tq::runtime::QueryResponse> topk =
      engine.Submit(tq::runtime::QueryRequest::TopK(5));
  double best = 0.0;
  tq::FacilityId best_id = 0;
  for (auto& f : futures) {
    const tq::runtime::QueryResponse r = f.get();
    // (QueryRequest order ties responses to facility ids 0..31.)
    if (r.value > best) best = r.value;
  }
  const tq::runtime::QueryResponse ranked = topk.get();
  best_id = ranked.ranked.front().id;
  std::printf("best route %u serves %.0f commuters (top-k agrees: %s)\n",
              best_id, ranked.ranked.front().value,
              ranked.ranked.front().value == best ? "yes" : "no");

  // 4. Live update: a new commuter cohort appears along the winning route.
  //    The writer forks the shard's index copy-on-write and publishes
  //    version 2; queries that were in flight keep reading version 1 until
  //    they finish.
  const auto stops = engine.snapshot()->facilities->points(best_id);
  tq::runtime::UpdateBatch batch;
  for (int i = 0; i < 500; ++i) {
    const tq::Point& a = stops[i % stops.size()];
    const tq::Point& b = stops[(i + 3) % stops.size()];
    batch.inserts.push_back(
        {{a.x + 50.0, a.y + 50.0}, {b.x - 50.0, b.y - 50.0}});
  }
  engine.ApplyUpdates(batch);
  const tq::runtime::QueryResponse after =
      engine.Submit(tq::runtime::QueryRequest::TopK(1)).get();
  std::printf("after publish v%llu the best route serves %.0f commuters\n",
              static_cast<unsigned long long>(after.snapshot_version),
              after.ranked.front().value);

  // 5. Serving telemetry: cache behaviour and traversal work, as JSON.
  std::printf("metrics: %s\n", engine.metrics().Read().ToJson().c_str());
  return 0;
}
