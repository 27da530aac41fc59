// Tests for the network front-end (src/net/): the wire protocol encodes and
// decodes losslessly and rejects malformed bytes, and the epoll server over
// a loopback socket answers sum / top-k / update requests BIT-IDENTICALLY
// to direct ShardedEngine calls for shards ∈ {1, 4, 8}, pipelines
// multi-request connections in arrival order, coalesces update frames into
// one publish, survives malformed frames and oversized length prefixes, and
// shuts down cleanly with requests still in flight. Run under
// -fsanitize=thread (cmake -DTQ_SANITIZE=thread) to check the
// loop-thread / pool-callback handoff for races; CI does.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using net::FrameAssembler;
using net::MessageType;
using net::NetClient;
using net::NetRequest;
using net::NetResponse;
using net::NetServer;
using net::NetServerOptions;
using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;

ShardedEngineOptions EngineOptions(size_t shards, size_t cache = 2048) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 4;
  so.cache_capacity = cache;
  so.tree.beta = 16;
  // Integer-valued model: cross-process sums must match bit for bit.
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  return so;
}

// ------------------------------------------------------------- protocol

// Little-endian writers for hand-built payloads, independent of the codec.
void PutLe(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>(v >> (8 * i)));
  }
}
void PutLeF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutLe(out, bits, 8);
}

// A request payload of type 9 — retired; it once carried a standing-query
// registration (op 0, kind 1, k = 8) — which must now decode as unknown.
std::string RetiredRequestPayload() {
  std::string p;
  PutLe(&p, net::kProtocolVersion, 1);
  PutLe(&p, 9, 1);
  PutLeF64(&p, 0.0);  // ψ
  PutLe(&p, 0, 1);
  PutLe(&p, 1, 1);
  PutLe(&p, 8, 4);
  return p;
}

// The common head of an OK response payload: version, type, status 0, an
// empty message and the snapshot version.
std::string OkResponseHead(uint8_t type, uint64_t snapshot_version) {
  std::string p;
  PutLe(&p, net::kProtocolVersion, 1);
  PutLe(&p, type, 1);
  PutLe(&p, 0, 1);
  PutLe(&p, 0, 4);
  PutLe(&p, snapshot_version, 8);
  return p;
}

TEST(NetProtocol, RequestRoundTripsAllTypes) {
  for (const NetRequest& original :
       {NetRequest::Sum({3, 0, 99}), NetRequest::TopK({1, 8, 0}),
        NetRequest::Update({{{1.5, -2.5}, {3.0, 4.0}}, {{0.0, 0.0}}},
                           {7, 8})}) {
    std::string wire;
    EncodeRequest(original, &wire);
    FrameAssembler frames;
    frames.Feed(wire.data(), wire.size());
    std::string payload;
    ASSERT_EQ(frames.Next(&payload), FrameAssembler::Result::kFrame);
    NetRequest decoded;
    const Status st = DecodeRequest(payload, &decoded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.psi, original.psi);
    EXPECT_EQ(decoded.facilities, original.facilities);
    EXPECT_EQ(decoded.ks, original.ks);
    EXPECT_EQ(decoded.removes, original.removes);
    ASSERT_EQ(decoded.inserts.size(), original.inserts.size());
    for (size_t i = 0; i < original.inserts.size(); ++i) {
      EXPECT_EQ(decoded.inserts[i], original.inserts[i]);
    }
  }
}

TEST(NetProtocol, ResponseRoundTripsValuesAndErrors) {
  NetResponse original;
  original.type = MessageType::kTopK;
  original.snapshot_version = 42;
  original.topks.resize(2);
  original.topks[0].ranked = {{5, 12.0}, {1, 12.0}};
  original.topks[1].code = StatusCode::kOutOfRange;
  std::string wire;
  EncodeResponse(original, &wire);
  FrameAssembler frames;
  frames.Feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_EQ(frames.Next(&payload), FrameAssembler::Result::kFrame);
  NetResponse decoded;
  ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.snapshot_version, 42u);
  ASSERT_EQ(decoded.topks.size(), 2u);
  EXPECT_EQ(decoded.topks[0].ranked.size(), 2u);
  EXPECT_EQ(decoded.topks[0].ranked[0].id, 5u);
  EXPECT_EQ(decoded.topks[0].ranked[0].value, 12.0);
  EXPECT_EQ(decoded.topks[1].code, StatusCode::kOutOfRange);

  // Frame-level errors carry code + message through the wire.
  NetResponse error;
  error.type = MessageType::kError;
  error.status = Status::InvalidArgument("bad things");
  wire.clear();
  EncodeResponse(error, &wire);
  frames.Feed(wire.data(), wire.size());
  ASSERT_EQ(frames.Next(&payload), FrameAssembler::Result::kFrame);
  ASSERT_TRUE(DecodeResponse(payload, &decoded).ok());
  EXPECT_EQ(decoded.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.status.message(), "bad things");

  // kBound keeps its settled (u32 id, f64 value) list slot: the encoder
  // writes a zero count, and a decoder skips a peer's non-empty list.
  NetResponse bound;
  bound.type = MessageType::kBound;
  bound.snapshot_version = 7;
  bound.bounds = {1.5, 0.0, 2.25};
  wire.clear();
  EncodeResponse(bound, &wire);
  std::string bounds_only =
      OkResponseHead(static_cast<uint8_t>(MessageType::kBound), 7);
  PutLe(&bounds_only, 3, 4);
  for (const double b : bound.bounds) PutLeF64(&bounds_only, b);
  EXPECT_EQ(wire.substr(net::kFrameHeaderBytes),
            bounds_only + std::string(4, '\0'));  // zero settled count
  // Two settled pairs follow, under a count of `count`.
  const auto with_settled = [&bounds_only](uint32_t count) {
    std::string p = bounds_only;
    PutLe(&p, count, 4);
    PutLe(&p, 1, 4);
    PutLeF64(&p, 0.0);
    PutLe(&p, 2, 4);
    PutLeF64(&p, 2.0);
    return p;
  };
  NetResponse from_peer;
  ASSERT_TRUE(DecodeResponse(with_settled(2), &from_peer).ok());
  EXPECT_EQ(from_peer.type, MessageType::kBound);
  EXPECT_EQ(from_peer.snapshot_version, 7u);
  EXPECT_EQ(from_peer.bounds, bound.bounds);
  // A settled count running past the payload is truncation.
  const Status st = DecodeResponse(with_settled(3), &from_peer);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("truncated bound response"), std::string::npos)
      << st.ToString();
}

TEST(NetProtocol, DecodeRejectsGarbageAndTruncation) {
  NetRequest out;
  EXPECT_FALSE(DecodeRequest("", &out).ok());
  EXPECT_FALSE(DecodeRequest("garbage bytes here", &out).ok());
  // Types 9 and 10 are retired: unknown in both directions.
  EXPECT_EQ(DecodeRequest(RetiredRequestPayload(), &out).code(),
            StatusCode::kInvalidArgument);
  {
    std::string retired_push = OkResponseHead(10, 3);
    PutLe(&retired_push, 7, 8);  // what was a subscription id
    NetResponse decoded;
    const Status st = DecodeResponse(retired_push, &decoded);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("unknown response type"), std::string::npos)
        << st.ToString();
  }
  // An empty insert trajectory violates the library invariant the shard
  // router depends on — it must die at decode, never reach the engine.
  {
    std::string wire;
    EncodeRequest(NetRequest::Update({{}}, {}), &wire);
    NetRequest decoded;
    const Status st =
        DecodeRequest(wire.substr(net::kFrameHeaderBytes), &decoded);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // A valid frame truncated anywhere must fail, never crash or over-read.
  std::string wire;
  EncodeRequest(NetRequest::Update({{{1.0, 2.0}}}, {3}), &wire);
  const std::string payload = wire.substr(net::kFrameHeaderBytes);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(payload.substr(0, len), &out).ok())
        << "truncation at " << len << " decoded";
  }
  EXPECT_TRUE(DecodeRequest(payload, &out).ok());
}

TEST(NetProtocol, OverloadedResponseRoundTrips) {
  // The kOverloaded status code survives the wire with its message — the
  // shed answer must be recognizable in-protocol, not a generic error.
  NetResponse shed;
  shed.type = MessageType::kTopK;
  shed.status = Status::Overloaded("134 queries queued (max 128)");
  std::string wire;
  EncodeResponse(shed, &wire);
  NetResponse decoded;
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kTopK);
  EXPECT_EQ(decoded.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(decoded.status.message(), "134 queries queued (max 128)");
  EXPECT_TRUE(decoded.topks.empty());
}

TEST(NetProtocol, FrameAssemblerSplitsByteDribble) {
  std::string wire;
  EncodeRequest(NetRequest::Sum({1}), &wire);
  EncodeRequest(NetRequest::TopK({2}), &wire);
  FrameAssembler frames;
  std::string payload;
  size_t got = 0;
  for (size_t i = 0; i < wire.size(); ++i) {
    frames.Feed(wire.data() + i, 1);  // one byte at a time
    while (frames.Next(&payload) == FrameAssembler::Result::kFrame) ++got;
  }
  EXPECT_EQ(got, 2u);

  // Oversized and zero length prefixes are unrecoverable.
  FrameAssembler small(/*max_frame_bytes=*/16);
  const char big[4] = {0x00, 0x01, 0x00, 0x00};  // length 256 > 16
  small.Feed(big, 4);
  EXPECT_EQ(small.Next(&payload), FrameAssembler::Result::kBad);
  FrameAssembler zero;
  const char nil[4] = {0x00, 0x00, 0x00, 0x00};
  zero.Feed(nil, 4);
  EXPECT_EQ(zero.Next(&payload), FrameAssembler::Result::kBad);
}

// ------------------------------------------------------ loopback serving

// THE acceptance check: answers over the wire are the direct ShardedEngine
// answers, bit for bit, at every shard count — for sums, top-k (both below
// and above the adaptive prune threshold), and post-update states.
TEST(NetServer, LoopbackAgreesBitIdenticallyWithDirectEngine) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  for (const size_t shards : {1u, 4u, 8u}) {
    ShardedEngine direct(users, routes, EngineOptions(shards));
    ShardedEngine served(users, routes, EngineOptions(shards));
    NetServer server(&served, NetServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

    // One sum frame batching every facility.
    std::vector<FacilityId> all(routes.size());
    for (uint32_t f = 0; f < routes.size(); ++f) all[f] = f;
    NetResponse response;
    ASSERT_TRUE(client.Sum(all, &response).ok());
    ASSERT_TRUE(response.status.ok());
    ASSERT_EQ(response.sums.size(), routes.size());
    for (uint32_t f = 0; f < routes.size(); ++f) {
      const QueryResponse want =
          direct.Submit(QueryRequest::ServiceValue(f)).get();
      EXPECT_EQ(response.sums[f].code, StatusCode::kOk);
      EXPECT_EQ(response.sums[f].value, want.value)
          << "shards=" << shards << " facility=" << f;
    }

    // One top-k frame batching k = 1, 5 and k = |F| (the window is the
    // whole catalog).
    const auto full = static_cast<uint32_t>(routes.size());
    ASSERT_TRUE(client.TopK({1, 5, full}, &response).ok());
    ASSERT_TRUE(response.status.ok());
    ASSERT_EQ(response.topks.size(), 3u);
    const std::vector<uint32_t> ks = {1, 5, full};
    for (size_t q = 0; q < ks.size(); ++q) {
      const QueryResponse want =
          direct.Submit(QueryRequest::TopK(ks[q])).get();
      ASSERT_EQ(response.topks[q].ranked.size(), want.ranked.size())
          << "shards=" << shards << " k=" << ks[q];
      for (size_t i = 0; i < want.ranked.size(); ++i) {
        EXPECT_EQ(response.topks[q].ranked[i].id, want.ranked[i].id)
            << "shards=" << shards << " k=" << ks[q] << " rank=" << i;
        EXPECT_EQ(response.topks[q].ranked[i].value, want.ranked[i].value)
            << "shards=" << shards << " k=" << ks[q] << " rank=" << i;
      }
    }

    // The same write batch through both paths; states must stay in step.
    std::vector<std::vector<Point>> inserts;
    for (uint32_t u = 0; u < 10; ++u) {
      const auto pts = users.points(u);
      inserts.emplace_back(pts.begin(), pts.end());
    }
    const std::vector<uint32_t> removes = {0, 3};
    runtime::UpdateBatch batch;
    batch.inserts = inserts;
    batch.removes = removes;
    const std::vector<uint32_t> direct_ids = direct.ApplyUpdates(batch);
    ASSERT_TRUE(client.Update(inserts, removes, &response).ok());
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.assigned_ids, direct_ids);
    EXPECT_EQ(response.snapshot_version, 2u);
    ASSERT_EQ(response.shard_generations.size(), shards);
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(response.shard_generations[s],
                served.snapshot()->shards[s]->generation);
    }
    ASSERT_TRUE(client.Sum(all, &response).ok());
    for (uint32_t f = 0; f < routes.size(); ++f) {
      const QueryResponse want =
          direct.Submit(QueryRequest::ServiceValue(f)).get();
      EXPECT_EQ(response.sums[f].value, want.value)
          << "post-update shards=" << shards << " facility=" << f;
    }
    server.Stop();
  }
}

TEST(NetServer, PerQueryErrorsDoNotFailTheFrame) {
  Rng rng(91);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 4, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  ASSERT_TRUE(client.Sum({0, 999, 1}, &response).ok());
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.sums.size(), 3u);
  EXPECT_EQ(response.sums[0].code, StatusCode::kOk);
  EXPECT_EQ(response.sums[1].code, StatusCode::kOutOfRange);
  EXPECT_EQ(response.sums[2].code, StatusCode::kOk);
}

TEST(NetServer, MismatchedPsiIsRejectedPerFrame) {
  Rng rng(92);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 80, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  NetRequest wrong_psi = NetRequest::Sum({0});
  wrong_psi.psi = 123.0;  // engine serves ψ = 200
  ASSERT_TRUE(client.Send(wrong_psi).ok());
  NetResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  // ψ = 200 (exact) and ψ = 0 (server default) both serve; the connection
  // survived the per-frame error.
  NetRequest right_psi = NetRequest::Sum({0});
  right_psi.psi = 200.0;
  ASSERT_TRUE(client.Send(right_psi).ok());
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_TRUE(response.status.ok());
  ASSERT_TRUE(client.Sum({0}, &response).ok());
  EXPECT_TRUE(response.status.ok());
}

// Pipelining: many frames of mixed types sent before any response is read;
// responses must come back 1:1 in arrival order.
TEST(NetServer, PipelinedFramesAnswerInArrivalOrder) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngine direct(users, routes, EngineOptions(4));
  ShardedEngine served(users, routes, EngineOptions(4));
  NetServer server(&served, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr size_t kRounds = 24;
  for (size_t i = 0; i < kRounds; ++i) {
    if (i % 3 == 2) {
      ASSERT_TRUE(
          client.Send(NetRequest::TopK({static_cast<uint32_t>(1 + i % 4)}))
              .ok());
    } else {
      ASSERT_TRUE(client
                      .Send(NetRequest::Sum(
                          {static_cast<FacilityId>(i % routes.size())}))
                      .ok());
    }
  }
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_EQ(client.pending(), kRounds);
  for (size_t i = 0; i < kRounds; ++i) {
    NetResponse response;
    ASSERT_TRUE(client.Receive(&response).ok()) << "frame " << i;
    ASSERT_TRUE(response.status.ok()) << "frame " << i;
    if (i % 3 == 2) {
      ASSERT_EQ(response.type, MessageType::kTopK) << "frame " << i;
      const QueryResponse want =
          direct.Submit(QueryRequest::TopK(1 + i % 4)).get();
      ASSERT_EQ(response.topks.size(), 1u);
      ASSERT_EQ(response.topks[0].ranked.size(), want.ranked.size());
      for (size_t r = 0; r < want.ranked.size(); ++r) {
        EXPECT_EQ(response.topks[0].ranked[r].id, want.ranked[r].id);
        EXPECT_EQ(response.topks[0].ranked[r].value, want.ranked[r].value);
      }
    } else {
      ASSERT_EQ(response.type, MessageType::kSum) << "frame " << i;
      const QueryResponse want =
          direct
              .Submit(QueryRequest::ServiceValue(
                  static_cast<FacilityId>(i % routes.size())))
              .get();
      ASSERT_EQ(response.sums.size(), 1u);
      EXPECT_EQ(response.sums[0].value, want.value) << "frame " << i;
    }
  }
  EXPECT_EQ(client.pending(), 0u);
  server.Stop();
}

// Coalescing: with update_batch = 4, three update frames pipelined in one
// burst flush through the idle path (3 < 4) — normally as ONE publish, and
// in every case upholding the accounting invariant publishes + coalesced =
// frames, with each frame answered with its own densely-assigned ids.
// (Strict one-publish assertions would race TCP segmentation: a burst the
// loop happens to read in two chunks legitimately flushes twice.)
TEST(NetServer, UpdateFramesCoalesceIntoOnePublish) {
  const TrajectorySet users = presets::NyfCheckins(500);
  const TrajectorySet routes = presets::NyBusRoutes(6, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.update_batch = 4;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t published_before =
      engine.metrics().Read().snapshots_published;

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < 3; ++i) {
    const auto pts = users.points(static_cast<uint32_t>(i));
    ASSERT_TRUE(client
                    .Send(NetRequest::Update(
                        {std::vector<Point>(pts.begin(), pts.end())}, {}))
                    .ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  const uint32_t base = static_cast<uint32_t>(users.size());
  uint64_t last_version = 0;
  NetResponse response;
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_TRUE(response.status.ok());
    ASSERT_EQ(response.assigned_ids.size(), 1u);
    // Global ids are dense in arrival order however the frames grouped.
    EXPECT_EQ(response.assigned_ids[0], base + i);
    EXPECT_GE(response.snapshot_version, std::max<uint64_t>(last_version, 2));
    last_version = response.snapshot_version;
  }
  const runtime::MetricsView m = engine.metrics().Read();
  const uint64_t publishes = m.snapshots_published - published_before;
  EXPECT_GE(publishes, 1u);
  EXPECT_LE(publishes, 3u);
  EXPECT_EQ(m.net_batches_coalesced + publishes, 3u);
  EXPECT_EQ(m.trajectories_inserted, 3u);
  EXPECT_EQ(last_version, 1 + publishes);

  // No-op updates. Removing an unknown id changes no shard, so the ack
  // repeats the generations and a re-issued read is a cache hit with the
  // same bits; an all-empty frame is answered without a publish.
  NetResponse first, remove_ack, again, empty_ack;
  ASSERT_TRUE(client.Sum({0, 3}, &first).ok());
  ASSERT_TRUE(client.Update({}, {1000000}, &remove_ack).ok());
  ASSERT_TRUE(remove_ack.status.ok());
  EXPECT_EQ(remove_ack.shard_generations, response.shard_generations);
  const runtime::MetricsView before = engine.metrics().Read();
  ASSERT_TRUE(client.Sum({0, 3}, &again).ok());
  const runtime::MetricsView after = engine.metrics().Read();
  EXPECT_GT(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  ASSERT_EQ(again.sums.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(again.sums[i].code, StatusCode::kOk);
    EXPECT_EQ(again.sums[i].value, first.sums[i].value);
  }
  ASSERT_TRUE(client.Update({}, {}, &empty_ack).ok());
  ASSERT_TRUE(empty_ack.status.ok());
  EXPECT_EQ(engine.metrics().Read().snapshots_published,
            after.snapshots_published);
}

// ------------------------------------------------------ failure handling

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads frames until EOF; returns the decoded responses.
std::vector<NetResponse> DrainResponses(int fd) {
  std::vector<NetResponse> responses;
  FrameAssembler frames;
  char buf[4096];
  for (;;) {
    std::string payload;
    while (frames.Next(&payload) == FrameAssembler::Result::kFrame) {
      NetResponse r;
      if (DecodeResponse(payload, &r).ok()) responses.push_back(r);
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    frames.Feed(buf, static_cast<size_t>(n));
  }
  return responses;
}

TEST(NetServer, MalformedFrameGetsErrorResponseThenClose) {
  Rng rng(93);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 60, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Well-framed garbage (length says 7, payload is no valid request), and
  // a well-formed frame of the retired request type 9.
  std::string retired;
  PutLe(&retired, RetiredRequestPayload().size(), 4);
  retired += RetiredRequestPayload();
  for (const std::string& bad :
       {std::string("\x07\x00\x00\x00garbage", 11), retired}) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, bad.data(), bad.size(), 0),
              static_cast<ssize_t>(bad.size()));
    const std::vector<NetResponse> responses = DrainResponses(fd);
    ASSERT_EQ(responses.size(), 1u);  // error response, then EOF
    EXPECT_EQ(responses[0].type, MessageType::kError);
    EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
    ::close(fd);
  }

  // The server survives and keeps serving fresh connections.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  ASSERT_TRUE(client.Sum({0}, &response).ok());
  EXPECT_TRUE(response.status.ok());
}

// Regression: an update frame with a zero-point insert used to reach the
// shard router's non-empty-trajectory TQ_CHECK — a remotely triggerable
// abort of the whole serving process. It must die at decode: one error
// response, connection closed, server alive.
TEST(NetServer, EmptyInsertTrajectoryIsRejectedNotFatal) {
  Rng rng(95);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 60, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  std::string wire;
  EncodeRequest(NetRequest::Update({{}}, {}), &wire);  // one 0-point insert
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  const std::vector<NetResponse> responses = DrainResponses(fd);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  ::close(fd);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  ASSERT_TRUE(client.Sum({0}, &response).ok());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(engine.metrics().Read().trajectories_inserted, 0u);
}

// A response that would blow past the frame cap (which the client's
// assembler would reject as unframeable) is replaced by an in-protocol
// error; the connection keeps serving smaller requests.
TEST(NetServer, OversizedResponseBecomesFrameError) {
  Rng rng(96);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 60, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServerOptions options;
  options.max_frame_bytes = 512;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Request payload: 14 + 4 + 64·4 = 274 B (fits); sum response payload:
  // 15 + 4 + 64·9 = 595 B (> 512) — must come back as an error frame.
  std::vector<FacilityId> many(64, 0);
  NetResponse response;
  ASSERT_TRUE(client.Sum(many, &response).ok());
  EXPECT_EQ(response.type, MessageType::kError);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  // Splitting the batch, as the error suggests, works on the same socket.
  ASSERT_TRUE(client.Sum({0, 1, 2}, &response).ok());
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.sums.size(), 3u);
}

TEST(NetServer, OversizedLengthPrefixIsRejected) {
  Rng rng(94);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 60, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs, EngineOptions(2));
  NetServerOptions options;
  options.max_frame_bytes = 1024;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(server.port());
  ASSERT_GE(fd, 0);
  const uint32_t huge = 1u << 20;  // 1 MiB > the 1 KiB cap
  ASSERT_EQ(::send(fd, &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  const std::vector<NetResponse> responses = DrainResponses(fd);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].type, MessageType::kError);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  ::close(fd);
}

// Stop() with requests still in flight: every dispatched query completes
// before sockets close (no use-after-free for TSan/ASan to find), the call
// does not hang, and the engine stays healthy afterwards.
TEST(NetServer, CleanShutdownWithInFlightRequests) {
  const TrajectorySet users = presets::NyfCheckins(1000);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  // Cache off: every query does real tree work, so Stop() genuinely races
  // in-flight gathers.
  ShardedEngine engine(users, routes, EngineOptions(4, /*cache=*/0));
  auto server = std::make_unique<NetServer>(&engine, NetServerOptions{});
  ASSERT_TRUE(server->Start().ok());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  std::vector<FacilityId> all(routes.size());
  for (uint32_t f = 0; f < routes.size(); ++f) all[f] = f;
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(client.Send(NetRequest::Sum(all)).ok());
    ASSERT_TRUE(client.Send(NetRequest::TopK({4})).ok());
  }
  ASSERT_TRUE(client.Flush().ok());
  server->Stop();  // must drain dispatched work and return
  server.reset();

  // Whatever the client still receives is well-formed; then EOF.
  NetResponse response;
  while (client.pending() > 0 && client.Receive(&response).ok()) {
    EXPECT_TRUE(response.status.ok());
  }
  // The engine is untouched by the shutdown: direct queries still work.
  const QueryResponse direct =
      engine.Submit(QueryRequest::ServiceValue(0)).get();
  EXPECT_TRUE(direct.status.ok());
}

// An update sent around shutdown is never half-lost: whether the loop's
// round-flush or the shutdown-path FlushUpdates wins the race, Stop()
// returns without hanging and the insert is fully applied. (The high
// update_batch keeps the THRESHOLD flush out of the picture, so this
// exercises the round/shutdown flush paths only.)
TEST(NetServer, ShutdownFlushesParkedUpdates) {
  const TrajectorySet users = presets::NyfCheckins(400);
  const TrajectorySet routes = presets::NyBusRoutes(6, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.update_batch = 100;  // threshold unreachable with one frame
  auto server = std::make_unique<NetServer>(&engine, options);
  ASSERT_TRUE(server->Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  const auto pts = users.points(0);
  ASSERT_TRUE(client
                  .Send(NetRequest::Update(
                      {std::vector<Point>(pts.begin(), pts.end())}, {}))
                  .ok());
  ASSERT_TRUE(client.Flush().ok());
  // Give the loop a chance to decode and park the frame, then stop.
  NetResponse response;
  const Status received = client.Receive(&response);
  server->Stop();
  server.reset();
  if (received.ok()) {
    EXPECT_TRUE(response.status.ok());
  }
  EXPECT_EQ(engine.metrics().Read().trajectories_inserted, 1u);
  EXPECT_EQ(engine.NumUsersTotal(), users.size() + 1);
}

// ------------------------------------------------------- stats frame

TEST(NetProtocol, StatsRequestAndResponseRoundTrip) {
  // Request side: the max-traces cap survives the wire.
  {
    std::string wire;
    EncodeRequest(NetRequest::Stats(17), &wire);
    NetRequest decoded;
    ASSERT_TRUE(
        DecodeRequest(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
    EXPECT_EQ(decoded.type, MessageType::kStats);
    EXPECT_EQ(decoded.stats_max_traces, 17u);
  }
  // Response side: counters, histograms and traces all round-trip.
  NetResponse original;
  original.type = MessageType::kStats;
  original.snapshot_version = 3;
  original.stats.counters = {{"queries_total", 42}, {"cache_hits", 7}};
  net::WireHistogram h;
  h.name = "topk_query";
  h.count = 10;
  h.sum_ns = 1000;
  h.p50_ns = 90;
  h.p90_ns = 180;
  h.p99_ns = 270;
  h.max_ns = 512;
  original.stats.histograms.push_back(h);
  net::WireTrace t;
  t.op = "net_topk";
  t.detail = 8;
  t.total_ns = 5000000;
  t.snapshot_version = 3;
  t.unix_ms = 1754600000000ull;
  t.dropped_spans = 2;
  t.spans = {{"decode", -1, 0, 4200}, {"shard_sweep", 5, 5000, 90000}};
  original.stats.traces.push_back(t);
  std::string wire;
  EncodeResponse(original, &wire);
  NetResponse decoded;
  ASSERT_TRUE(
      DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.type, MessageType::kStats);
  ASSERT_EQ(decoded.stats.counters.size(), 2u);
  EXPECT_EQ(decoded.stats.counters[0].first, "queries_total");
  EXPECT_EQ(decoded.stats.counters[0].second, 42u);
  ASSERT_EQ(decoded.stats.histograms.size(), 1u);
  EXPECT_EQ(decoded.stats.histograms[0].name, "topk_query");
  EXPECT_EQ(decoded.stats.histograms[0].p99_ns, 270u);
  EXPECT_EQ(decoded.stats.histograms[0].max_ns, 512u);
  ASSERT_EQ(decoded.stats.traces.size(), 1u);
  const net::WireTrace& dt = decoded.stats.traces[0];
  EXPECT_EQ(dt.op, "net_topk");
  EXPECT_EQ(dt.total_ns, 5000000u);
  EXPECT_EQ(dt.dropped_spans, 2u);
  ASSERT_EQ(dt.spans.size(), 2u);
  EXPECT_EQ(dt.spans[0].name, "decode");
  EXPECT_EQ(dt.spans[0].shard, -1);
  EXPECT_EQ(dt.spans[1].shard, 5);
  EXPECT_EQ(dt.spans[1].end_ns, 90000u);
  // The CLI/CI JSON rendering carries the key sections.
  const std::string json = net::WireStatsToJson(decoded.stats);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"queries_total\":42"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"traces\":["), std::string::npos);
  EXPECT_NE(json.find("\"shard_sweep\""), std::string::npos);
}

// A live loopback scrape: drive traffic, then assert the stats frame's
// internal consistency — the acceptance invariant is that the per-query
// latency histograms count EVERY submitted query (service + topk counts
// equal queries_total), and at least one trace carries per-shard spans.
TEST(NetServer, LoopbackStatsScrapeIsConsistent) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  ShardedEngine engine(users, routes, EngineOptions(4));
  NetServerOptions options;
  options.trace_sample = 1;  // trace every frame: the scrape must see spans
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  std::vector<FacilityId> all(routes.size());
  for (uint32_t f = 0; f < routes.size(); ++f) all[f] = f;
  NetResponse response;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Sum(all, &response).ok() && response.status.ok());
  }
  ASSERT_TRUE(client.TopK({3, 5}, &response).ok() && response.status.ok());

  ASSERT_TRUE(client.Stats(32, &response).ok());
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.type, MessageType::kStats);
  const net::WireStats& stats = response.stats;

  uint64_t queries_total = 0, service_queries = 0, topk_queries = 0;
  for (const auto& [name, value] : stats.counters) {
    if (name == "queries_total") queries_total = value;
    if (name == "service_queries") service_queries = value;
    if (name == "topk_queries") topk_queries = value;
  }
  EXPECT_EQ(service_queries, 5u * routes.size());
  EXPECT_EQ(topk_queries, 2u);
  EXPECT_EQ(queries_total, service_queries + topk_queries);

  // Histogram-count invariant: every query recorded exactly one latency.
  uint64_t hist_service = 0, hist_topk = 0, hist_frames = 0;
  for (const net::WireHistogram& h : stats.histograms) {
    if (h.name == "service_query") hist_service = h.count;
    if (h.name == "topk_query") hist_topk = h.count;
    if (h.name == "net_frame") hist_frames = h.count;
    EXPECT_GE(h.max_ns, h.p99_ns) << h.name;
    EXPECT_GE(h.p99_ns, h.p50_ns) << h.name;
  }
  EXPECT_EQ(hist_service, service_queries);
  EXPECT_EQ(hist_topk, topk_queries);
  EXPECT_EQ(hist_frames, 6u);  // 5 sum + 1 topk frames answered so far

  // Sampled frame traces landed in the ring with per-shard spans.
  ASSERT_FALSE(stats.traces.empty());
  // Slowest-first ordering.
  for (size_t i = 1; i < stats.traces.size(); ++i) {
    EXPECT_GE(stats.traces[i - 1].total_ns, stats.traces[i].total_ns);
  }
  bool saw_shard_span = false, saw_decode = false;
  for (const net::WireTrace& t : stats.traces) {
    EXPECT_TRUE(t.op == "net_sum" || t.op == "net_topk" || t.op == "sum" ||
                t.op == "topk")
        << t.op;
    for (const net::WireSpan& s : t.spans) {
      EXPECT_LE(s.start_ns, s.end_ns);
      if (s.shard >= 0) saw_shard_span = true;
      if (s.name == "decode") saw_decode = true;
    }
  }
  EXPECT_TRUE(saw_shard_span);
  EXPECT_TRUE(saw_decode);
  server.Stop();
}

// Disabling trace sampling serves untraced frames; the stats frame still
// answers (engine-owned query traces may appear, frame traces must not).
TEST(NetServer, StatsWithSamplingDisabled) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(6, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.trace_sample = 0;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  ASSERT_TRUE(client.Sum({0, 1, 2}, &response).ok() && response.status.ok());
  ASSERT_TRUE(client.Stats(8, &response).ok());
  ASSERT_TRUE(response.status.ok());
  for (const net::WireTrace& t : response.stats.traces) {
    EXPECT_NE(t.op.substr(0, 4), "net_") << "frame trace despite sample=0";
  }
  server.Stop();
}

}  // namespace
}  // namespace tq