// Tests for the multi-process serving layer: the RemoteShardSet coordinator
// over loopback shard-worker processes (each a ShardedEngine owning a slice
// of the partition behind a NetServer) answers sums and top-k BIT-IDENTICALLY
// to a single-process ShardedEngine over the full partition, for shards
// {2, 4} × workers {1, 2} on the NYF preset, across several refinement
// waves; no wave asks a worker for a facility its own bound already settled
// at 0; updates fan out and keep the identity; a worker killed between waves
// degrades answers to StatusCode::kUnavailable without hanging; and the new
// wire frame types (kRegister, kHeartbeat, kBound, kStatus) round-trip
// losslessly.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/prune_plan.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using net::MessageType;
using net::NetClient;
using net::NetRequest;
using net::NetResponse;
using net::NetServer;
using net::NetServerOptions;
using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::RemoteShardSet;
using runtime::RemoteShardSetOptions;
using runtime::ServingEngine;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::UpdateBatch;

ShardedEngineOptions EngineOptions(size_t shards) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 2;
  so.cache_capacity = 1024;
  so.tree.beta = 16;
  // Integer-valued model: cross-process sums must match bit for bit.
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  return so;
}

/// One in-process "shard-worker process": a slice-owning engine behind the
/// TCP front-end on an ephemeral loopback port.
struct Worker {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<NetServer> server;
  uint16_t port() const { return server->port(); }
};

Worker MakeWorker(const TrajectorySet& users, const TrajectorySet& fac,
                  size_t shards, uint32_t lo, uint32_t hi) {
  ShardedEngineOptions so = EngineOptions(shards);
  so.owned_begin = lo;
  so.owned_end = hi;
  Worker w;
  w.engine = std::make_unique<ShardedEngine>(users, fac, so);
  w.server = std::make_unique<NetServer>(w.engine.get(), NetServerOptions{});
  EXPECT_TRUE(w.server->Start().ok());
  return w;
}

std::vector<Worker> MakeWorkers(const TrajectorySet& users,
                                const TrajectorySet& fac, size_t shards,
                                size_t num_workers) {
  std::vector<Worker> workers;
  const uint32_t per =
      static_cast<uint32_t>(shards) / static_cast<uint32_t>(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    const auto lo = static_cast<uint32_t>(i) * per;
    const uint32_t hi = i + 1 == num_workers
                            ? static_cast<uint32_t>(shards)
                            : lo + per;
    workers.push_back(MakeWorker(users, fac, shards, lo, hi));
  }
  return workers;
}

RemoteShardSetOptions CoordOptions(const std::vector<Worker>& workers) {
  RemoteShardSetOptions ro;
  for (const Worker& w : workers) {
    ro.workers.emplace_back("127.0.0.1", w.port());
  }
  ro.num_threads = 2;
  return ro;
}

/// Synchronous query through any ServingEngine. With `waves`, the query runs
/// under a caller-owned trace and *waves receives the number of refinement
/// waves the coordinator scattered (one rpc_round2 span each).
QueryResponse RunQuery(ServingEngine& engine, QueryRequest request,
                       size_t* waves = nullptr) {
  runtime::TraceContextPtr trace;
  if (waves != nullptr) {
    trace = std::make_shared<runtime::TraceContext>("topk", request.k);
  }
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();
  engine.SubmitAsync(
      std::move(request), trace,
      [&promise](QueryResponse r) { promise.set_value(std::move(r)); }, 0);
  QueryResponse response = future.get();
  if (waves != nullptr) {
    *waves = 0;
    for (size_t i = 0; i < trace->num_spans(); ++i) {
      if (std::string_view(trace->span(i).name) == "rpc_round2") ++*waves;
    }
  }
  return response;
}

void ExpectSameRanking(const std::vector<RankedFacility>& got,
                       const std::vector<RankedFacility>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "rank " << i;
  }
}

void ExpectIdenticalAnswers(ServingEngine& reference, ServingEngine& coord,
                            size_t num_facilities) {
  for (FacilityId f = 0; f < num_facilities; ++f) {
    const QueryResponse want = RunQuery(reference, QueryRequest::ServiceValue(f));
    const QueryResponse got = RunQuery(coord, QueryRequest::ServiceValue(f));
    ASSERT_TRUE(want.status.ok());
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(want.value, got.value) << "facility " << f;
  }
  for (const size_t k : {size_t{1}, size_t{3}, size_t{8}, num_facilities}) {
    const QueryResponse want = RunQuery(reference, QueryRequest::TopK(k));
    const QueryResponse got = RunQuery(coord, QueryRequest::TopK(k));
    ASSERT_TRUE(want.status.ok());
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectSameRanking(got.ranked, want.ranked);
  }
}

// ------------------------------------------------- bit-identity matrix

TEST(Distributed, CoordinatorMatchesSingleProcessMatrixNyf) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet fac = presets::NyBusRoutes(24, 12);
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    ShardedEngine reference(users, fac, EngineOptions(shards));
    for (const size_t num_workers : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(num_workers));
      std::vector<Worker> workers =
          MakeWorkers(users, fac, shards, num_workers);
      RemoteShardSet coord(CoordOptions(workers));
      ASSERT_TRUE(coord.Connect().ok());
      const runtime::EngineInfo info = coord.info();
      EXPECT_EQ(info.num_shards, shards);
      EXPECT_EQ(info.num_facilities, fac.size());
      EXPECT_EQ(info.users_total, users.size());
      ExpectIdenticalAnswers(reference, coord, fac.size());
    }
  }
}

// k = 3 takes at least three refinement waves on the coordinator, so
// bit-identity holds across the whole re-planning loop, not one plan; at
// k = |F| the window is the whole catalog.
TEST(Distributed, MultiWaveTopKMatchesInProcessEngine) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet fac = presets::NyBusRoutes(24, 8);
  constexpr size_t kMultiWaveK = 3;
  ShardedEngine reference(users, fac, EngineOptions(4));
  std::vector<Worker> workers = MakeWorkers(users, fac, 4, 2);
  RemoteShardSet coord(CoordOptions(workers));
  ASSERT_TRUE(coord.Connect().ok());
  for (const size_t k : {size_t{1}, kMultiWaveK, fac.size()}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    size_t waves = 0;
    const QueryResponse want = RunQuery(reference, QueryRequest::TopK(k));
    const QueryResponse got = RunQuery(coord, QueryRequest::TopK(k), &waves);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    ExpectSameRanking(got.ranked, want.ranked);
    if (k == kMultiWaveK) {
      EXPECT_GE(waves, 3u);
    }
  }
}

// ------------------------------------------------- zero-bound settlement

// Two user clusters far apart land on different workers, so each worker's
// bound is exactly 0 for the other cluster's facilities. When another
// worker's positive bound puts such a facility in the refinement window,
// the coordinator must settle the zero-bound slot at 0 — never send it in a
// kSum. The expected asks come from replaying the planner loop on the
// workers' own bounds and exact values.
TEST(Distributed, ZeroBoundSlotsAreNeverRefined) {
  Rng rng(404);
  const Rect west = Rect::Of(0, 0, 2000, 2000);
  const Rect east = Rect::Of(48000, 48000, 50000, 50000);
  TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 5, west);
  const TrajectorySet east_users = testing::RandomUsers(&rng, 300, 2, 5, east);
  for (uint32_t u = 0; u < east_users.size(); ++u) {
    users.Add(east_users.points(u));
  }
  TrajectorySet fac;
  for (const Rect& r : {west, east}) {
    const TrajectorySet group = testing::RandomFacilities(&rng, 6, 8, r);
    for (uint32_t f = 0; f < group.size(); ++f) fac.Add(group.points(f));
  }
  const size_t num_fac = fac.size();
  ShardedEngine reference(users, fac, EngineOptions(2));
  for (uint32_t u = 0; u < users.size(); ++u) {
    ASSERT_EQ(reference.LocateUser(u).shard, u < 300 ? 0u : 1u);
  }
  std::vector<Worker> workers = MakeWorkers(users, fac, 2, 2);
  RemoteShardSet coord(CoordOptions(workers));
  ASSERT_TRUE(coord.Connect().ok());

  // Each worker's bound sweep and exact per-facility sums, as the
  // coordinator will see them (fetched before the measured query).
  constexpr size_t kK = 1;
  const std::vector<size_t> parts = {0, 1};
  runtime::FacilityMatrix bounds(workers.size());
  runtime::FacilityMatrix truth(workers.size());
  std::vector<FacilityId> all(num_fac);
  for (size_t f = 0; f < num_fac; ++f) all[f] = static_cast<FacilityId>(f);
  for (size_t w = 0; w < workers.size(); ++w) {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", workers[w].port()).ok());
    NetResponse bound;
    ASSERT_TRUE(client.Bound(kK, &bound).ok());
    ASSERT_EQ(bound.bounds.size(), num_fac);
    EXPECT_TRUE(bound.bound_exacts.empty());  // the sweep settles nothing
    bounds[w] = bound.bounds;
    NetResponse sums;
    ASSERT_TRUE(client.Sum(all, &sums).ok());
    ASSERT_EQ(sums.sums.size(), num_fac);
    for (const net::SumResult& s : sums.sums) truth[w].push_back(s.value);
  }
  // The coordinator's loop: plan the window, refine its unsettled slots.
  runtime::FacilityMatrix exact(workers.size(),
                                std::vector<double>(num_fac, 0.0));
  runtime::KnownMatrix known(workers.size(),
                             std::vector<uint8_t>(num_fac, 0));
  std::vector<uint64_t> positive_asks(workers.size(), 0);
  uint64_t zero_bound_candidates = 0;
  for (;;) {
    const std::vector<uint32_t> window =
        runtime::PlanWindow(parts, bounds, &exact, &known, kK, num_fac);
    if (window.empty()) break;
    for (const uint32_t f : window) {
      for (size_t w = 0; w < workers.size(); ++w) {
        if (bounds[w][f] <= 0.0) ++zero_bound_candidates;
        if (known[w][f]) continue;
        ++positive_asks[w];
        exact[w][f] = truth[w][f];
        known[w][f] = 1;
      }
    }
  }
  ASSERT_GT(zero_bound_candidates, 0u)
      << "no window facility had a zero-bound slot; the scenario does not "
         "exercise settlement";

  std::vector<uint64_t> before;
  for (const Worker& w : workers) {
    before.push_back(w.engine->metrics().Read().service_queries);
  }
  const QueryResponse got = RunQuery(coord, QueryRequest::TopK(kK));
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  for (size_t w = 0; w < workers.size(); ++w) {
    // Round 2's kSum frames are the only service queries a worker sees.
    EXPECT_EQ(workers[w].engine->metrics().Read().service_queries - before[w],
              positive_asks[w])
        << "worker " << w << " was asked to refine a zero-bound slot";
  }
  ExpectIdenticalAnswers(reference, coord, num_fac);
}

// ------------------------------------------------------ update fan-out

TEST(Distributed, UpdateFanOutKeepsBitIdentity) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet fac = presets::NyBusRoutes(12, 10);
  ShardedEngine reference(users, fac, EngineOptions(4));
  std::vector<Worker> workers = MakeWorkers(users, fac, 4, 2);
  RemoteShardSet coord(CoordOptions(workers));
  ASSERT_TRUE(coord.Connect().ok());

  UpdateBatch batch;
  for (uint32_t id = 0; id < 5; ++id) {
    const auto pts = users.points(id);
    batch.inserts.emplace_back(pts.begin(), pts.end());
    batch.removes.push_back(id);
  }
  const std::vector<uint32_t> want_ids = reference.ApplyUpdates(batch);
  const std::vector<uint32_t> got_ids = coord.ApplyUpdates(batch);
  EXPECT_EQ(want_ids, got_ids);
  EXPECT_EQ(coord.info().users_total, users.size() + batch.inserts.size());
  EXPECT_GE(coord.snapshot_version(), 2u);
  ExpectIdenticalAnswers(reference, coord, fac.size());
}

// ------------------------------------------------------- failure paths

/// A worker front-end that dies mid-query: once armed, the first
/// service-value query to reach it — the coordinator's first refinement
/// wave — stops its NetServer from a side thread. Stop() drains and flushes
/// that wave's answer before the sockets drop, so the worker dies between
/// waves and the next wave finds it gone. Everything else is the engine's.
class DiesAfterFirstWave : public ServingEngine {
 public:
  explicit DiesAfterFirstWave(ShardedEngine* engine) : engine_(engine) {}
  ~DiesAfterFirstWave() override { Join(); }
  DiesAfterFirstWave(const DiesAfterFirstWave&) = delete;
  DiesAfterFirstWave& operator=(const DiesAfterFirstWave&) = delete;

  void Arm(NetServer* server) {
    server_ = server;
    armed_.store(true);
  }
  /// Waits for the kill to finish; true when it happened.
  bool Join() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!killer_.joinable()) return false;
    killer_.join();
    return true;
  }

  void SubmitAsync(QueryRequest request, runtime::TraceContextPtr trace,
                   ResponseCallback done, uint64_t start_ns) override {
    if (request.kind == runtime::QueryKind::kServiceValue &&
        armed_.exchange(false)) {
      std::lock_guard<std::mutex> lock(mu_);
      killer_ = std::thread([this] { server_->Stop(); });
    }
    engine_->SubmitAsync(std::move(request), std::move(trace),
                         std::move(done), start_ns);
  }
  runtime::MetricsRegistry* mutable_metrics() override {
    return engine_->mutable_metrics();
  }
  const runtime::Tracer& tracer() const override { return engine_->tracer(); }
  runtime::Tracer* mutable_tracer() override {
    return engine_->mutable_tracer();
  }
  double psi() const override { return engine_->psi(); }
  uint64_t snapshot_version() const override {
    return engine_->snapshot_version();
  }
  std::vector<uint64_t> shard_generations() const override {
    return engine_->shard_generations();
  }
  runtime::EngineInfo info() const override { return engine_->info(); }
  std::vector<uint32_t> ApplyUpdates(const UpdateBatch& batch) override {
    return engine_->ApplyUpdates(batch);
  }
  void TopKBoundSweepAsync(BoundSweepCallback done) override {
    engine_->TopKBoundSweepAsync(std::move(done));
  }

 private:
  ShardedEngine* engine_;
  NetServer* server_ = nullptr;
  std::atomic<bool> armed_{false};
  std::mutex mu_;  // guards killer_ (started on the worker's loop thread)
  std::thread killer_;
};

TEST(Distributed, WorkerDeathDegradesWithoutHanging) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet fac = presets::NyBusRoutes(12, 10);
  constexpr size_t kK = 3;  // three or more refinement waves on two workers
  Worker survivor = MakeWorker(users, fac, 4, 0, 2);
  ShardedEngineOptions so = EngineOptions(4);
  so.owned_begin = 2;
  so.owned_end = 4;
  ShardedEngine victim_engine(users, fac, so);
  DiesAfterFirstWave victim(&victim_engine);
  NetServer victim_server(&victim, NetServerOptions{});
  ASSERT_TRUE(victim_server.Start().ok());

  RemoteShardSetOptions ro;
  ro.workers = {{"127.0.0.1", survivor.port()},
                {"127.0.0.1", victim_server.port()}};
  ro.num_threads = 2;
  RemoteShardSet coord(ro);
  ASSERT_TRUE(coord.Connect().ok());
  ASSERT_TRUE(RunQuery(coord, QueryRequest::ServiceValue(0)).status.ok());
  size_t waves = 0;
  ASSERT_TRUE(RunQuery(coord, QueryRequest::TopK(kK), &waves).status.ok());
  ASSERT_GE(waves, 3u) << "k=" << kK << " no longer needs three waves";

  // The victim answers the first refinement wave, then dies. The query
  // finishes on the survivor, marked partial; the survivor owns shards
  // [0, 2) of 4, so the answer is exactly its local engine's ranking.
  victim.Arm(&victim_server);
  const uint64_t victim_before =
      victim_engine.metrics().Read().service_queries;
  const QueryResponse partial = RunQuery(coord, QueryRequest::TopK(kK), &waves);
  ASSERT_TRUE(victim.Join()) << "no refinement wave reached the victim";
  EXPECT_GT(victim_engine.metrics().Read().service_queries, victim_before);
  EXPECT_GE(waves, 2u) << "no wave left after the victim's first";
  EXPECT_EQ(partial.status.code(), StatusCode::kUnavailable);
  ExpectSameRanking(
      partial.ranked,
      RunQuery(*survivor.engine, QueryRequest::TopK(kK)).ranked);
  EXPECT_EQ(coord.mutable_metrics()->Read().coord_partial, 1u);

  // Later queries keep answering from the survivor, marked partial too.
  const QueryResponse sum = RunQuery(coord, QueryRequest::ServiceValue(3));
  EXPECT_EQ(sum.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sum.value,
            RunQuery(*survivor.engine, QueryRequest::ServiceValue(3)).value);

  const QueryResponse topk = RunQuery(coord, QueryRequest::TopK(5));
  EXPECT_EQ(topk.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(topk.ranked.size(), 5u);

  const auto m = coord.mutable_metrics()->Read();
  EXPECT_EQ(m.worker_failures, 1u);
  EXPECT_EQ(m.coord_partial, 3u);

  const auto status = coord.Workers();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].state, 1u);  // alive
  EXPECT_EQ(status[1].state, 2u);  // dead
}

TEST(Distributed, ConnectRejectsBadGeometry) {
  const TrajectorySet users = presets::NyfCheckins(300);
  const TrajectorySet fac = presets::NyBusRoutes(8, 8);
  // Workers from DIFFERENT partitions (4-way vs 2-way) must not compose.
  Worker a = MakeWorker(users, fac, 4, 0, 2);
  Worker b = MakeWorker(users, fac, 2, 1, 2);
  {
    RemoteShardSetOptions ro;
    ro.workers.emplace_back("127.0.0.1", a.port());
    ro.workers.emplace_back("127.0.0.1", b.port());
    RemoteShardSet coord(ro);
    EXPECT_FALSE(coord.Connect().ok());
  }
  // A gap in the tiling ([0,2) + [3,4)) must be refused too.
  Worker c = MakeWorker(users, fac, 4, 3, 4);
  {
    RemoteShardSetOptions ro;
    ro.workers.emplace_back("127.0.0.1", a.port());
    ro.workers.emplace_back("127.0.0.1", c.port());
    RemoteShardSet coord(ro);
    EXPECT_FALSE(coord.Connect().ok());
  }
}

// -------------------------------------------------- wire frame round-trips

TEST(DistributedProtocol, NewRequestTypesRoundTrip) {
  for (const NetRequest& original :
       {NetRequest::Register(), NetRequest::Heartbeat(77),
        NetRequest::Bound(9), NetRequest::ClusterStatus()}) {
    std::string wire;
    EncodeRequest(original, &wire);
    NetRequest decoded;
    ASSERT_TRUE(
        DecodeRequest(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.bound_k, original.bound_k);
    EXPECT_EQ(decoded.heartbeat_seq, original.heartbeat_seq);
  }
}

TEST(DistributedProtocol, StatusAndBoundResponsesRoundTrip) {
  NetResponse status;
  status.type = MessageType::kStatus;
  status.snapshot_version = 7;
  status.worker_info = {4, 0, 4, 200.0, 32, 2000};
  net::WireWorkerStatus row;
  row.address = "127.0.0.1:7102";
  row.state = 1;
  row.owned_begin = 0;
  row.owned_end = 2;
  row.heartbeats = 12;
  row.failures = 1;
  row.age_ms = 450;
  row.rtt_count = 99;
  row.rtt_p50_ns = 120'000;
  row.rtt_p99_ns = 4'000'000;
  status.workers.push_back(row);
  std::string wire;
  EncodeResponse(status, &wire);
  NetResponse decoded;
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kStatus);
  EXPECT_EQ(decoded.worker_info.num_shards, 4u);
  EXPECT_EQ(decoded.worker_info.users_total, 2000u);
  ASSERT_EQ(decoded.workers.size(), 1u);
  EXPECT_EQ(decoded.workers[0].address, row.address);
  EXPECT_EQ(decoded.workers[0].state, row.state);
  EXPECT_EQ(decoded.workers[0].heartbeats, row.heartbeats);
  EXPECT_EQ(decoded.workers[0].rtt_p99_ns, row.rtt_p99_ns);

  NetResponse bound;
  bound.type = MessageType::kBound;
  bound.snapshot_version = 3;
  bound.bounds = {1.5, 0.0, 2.25};
  bound.bound_exacts = {{1, 0.0}, {2, 2.0}};
  wire.clear();
  EncodeResponse(bound, &wire);
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kBound);
  EXPECT_EQ(decoded.bounds, bound.bounds);
  EXPECT_EQ(decoded.bound_exacts, bound.bound_exacts);
}

// A live worker answers kRegister / kHeartbeat / kBound / kStatus frames
// consistently with its engine.
TEST(DistributedProtocol, WorkerServesIdentityFrames) {
  const TrajectorySet users = presets::NyfCheckins(400);
  const TrajectorySet fac = presets::NyBusRoutes(8, 8);
  Worker w = MakeWorker(users, fac, 4, 1, 3);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", w.port()).ok());

  NetResponse reg;
  ASSERT_TRUE(client.Register(&reg).ok());
  ASSERT_TRUE(reg.status.ok());
  EXPECT_EQ(reg.worker_info.num_shards, 4u);
  EXPECT_EQ(reg.worker_info.owned_begin, 1u);
  EXPECT_EQ(reg.worker_info.owned_end, 3u);
  EXPECT_EQ(reg.worker_info.num_facilities, fac.size());
  EXPECT_EQ(reg.worker_info.users_total, users.size());

  NetResponse hb;
  ASSERT_TRUE(client.Heartbeat(4242, &hb).ok());
  ASSERT_TRUE(hb.status.ok());
  EXPECT_EQ(hb.heartbeat_seq, 4242u);

  NetResponse bound;
  ASSERT_TRUE(client.Bound(3, &bound).ok());
  ASSERT_TRUE(bound.status.ok());
  ASSERT_EQ(bound.bounds.size(), fac.size());
  // Every settled exact must respect its own bound.
  for (const auto& [f, exact] : bound.bound_exacts) {
    ASSERT_LT(f, fac.size());
    EXPECT_LE(exact, bound.bounds[f]);
  }

  NetResponse status;
  ASSERT_TRUE(client.ClusterStatus(&status).ok());
  ASSERT_TRUE(status.status.ok());
  EXPECT_EQ(status.worker_info.owned_begin, 1u);
  EXPECT_TRUE(status.workers.empty());  // workers have no table
}

}  // namespace
}  // namespace tq
