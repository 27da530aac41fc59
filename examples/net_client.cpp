// Serving over the wire: the sharded engine behind the TCP front-end, and
// a client running a batched top-k + service-value query against it —
// everything the `tqcover_cli serve --listen PORT` deployment does, in one
// self-contained process (the server binds an ephemeral loopback port).
//
//   ./net_client
//
// In a real deployment the two halves live in different processes:
//
//   ./tqcover_cli serve --users u.bin --facilities f.bin
//       --shards 4 --listen 7070            # terminal 1
//   (link src/net/client.h and Connect("...", 7070))   # terminal 2
#include <cstdio>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/sharded_engine.h"

int main() {
  // 1. An engine, as in concurrent_serving: taxi trips vs candidate bus
  //    routes, partitioned over 4 shards.
  tq::runtime::ShardedEngineOptions options;
  options.num_shards = 4;
  options.num_threads = 4;
  options.tree.model = tq::ServiceModel::Endpoints(200.0);
  tq::runtime::ShardedEngine engine(tq::presets::NytTrips(20000),
                                    tq::presets::NyBusRoutes(32, 24),
                                    options);

  // 2. The network front-end: one epoll thread, no thread per connection.
  //    Port 0 asks the kernel for an ephemeral port.
  tq::net::NetServer server(&engine, tq::net::NetServerOptions{});
  if (const tq::Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // 3. A client connection. One frame can carry a BATCH of queries — here
  //    three kMaxRRST queries (k = 1, 3, 5) in a single round-trip.
  tq::net::NetClient client;
  if (const tq::Status st = client.Connect("127.0.0.1", server.port());
      !st.ok()) {
    std::fprintf(stderr, "connect: %s\n", st.ToString().c_str());
    return 1;
  }
  tq::net::NetResponse response;
  if (const tq::Status st = client.TopK({1, 3, 5}, &response); !st.ok()) {
    std::fprintf(stderr, "topk: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("top-k over the wire (snapshot v%llu):\n",
              static_cast<unsigned long long>(response.snapshot_version));
  for (const tq::net::RankedResult& q : response.topks) {
    std::printf("  k=%zu:", q.ranked.size());
    for (const tq::RankedFacility& rf : q.ranked) {
      std::printf(" route %u (SO %.0f)", rf.id, rf.value);
    }
    std::printf("\n");
  }

  // 4. Batched service values for the winning route and its runner-up, and
  //    the same numbers straight from the engine — the wire adds framing,
  //    not arithmetic: values match bit for bit.
  const tq::FacilityId best = response.topks.back().ranked.front().id;
  const tq::FacilityId second = response.topks.back().ranked[1].id;
  if (const tq::Status st = client.Sum({best, second}, &response);
      !st.ok()) {
    std::fprintf(stderr, "sum: %s\n", st.ToString().c_str());
    return 1;
  }
  const double direct =
      engine.Submit(tq::runtime::QueryRequest::ServiceValue(best))
          .get()
          .value;
  std::printf("route %u serves %.0f commuters over the wire, %.0f direct "
              "(%s)\n",
              best, response.sums[0].value, direct,
              response.sums[0].value == direct ? "bit-identical" : "MISMATCH");

  // 5. A write batch over the wire: 100 new commuters along the winning
  //    route; the response reports the new snapshot version, the per-shard
  //    generations, and the ids assigned to the inserts.
  const auto stops = engine.snapshot()->facilities->points(best);
  std::vector<std::vector<tq::Point>> inserts;
  for (int i = 0; i < 100; ++i) {
    const tq::Point& a = stops[i % stops.size()];
    const tq::Point& b = stops[(i + 3) % stops.size()];
    inserts.push_back({{a.x + 50.0, a.y + 50.0}, {b.x - 50.0, b.y - 50.0}});
  }
  if (const tq::Status st = client.Update(std::move(inserts), {}, &response);
      !st.ok()) {
    std::fprintf(stderr, "update: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("update published snapshot v%llu (%zu ids assigned)\n",
              static_cast<unsigned long long>(response.snapshot_version),
              response.assigned_ids.size());
  if (const tq::Status st = client.Sum({best}, &response); !st.ok()) {
    std::fprintf(stderr, "sum: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("route %u now serves %.0f commuters\n", best,
              response.sums[0].value);

  client.Close();
  server.Stop();
  std::printf("metrics: %s\n", engine.metrics().Read().ToJson().c_str());
  return 0;
}
