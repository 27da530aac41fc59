// Adversarial-client tests for the net front-end's production hardening
// (src/net/): backpressure watermarks and admission-control load shedding.
//
//   * A pipelining client that NEVER reads must not grow server memory
//     without bound: the per-connection outbox gauge stays bounded while
//     megabytes of responses are owed, the connection's reads pause at the
//     high watermark (net_paused_connections), and draining resumes it —
//     every frame still gets its answer.
//   * A stalled connection must not starve the others: a second client's
//     round-trips keep completing while the first is paused.
//   * Overload sheds with an IN-PROTOCOL kOverloaded answer (net_shed),
//     never an OOM, a hang, or a dropped frame — and the stats frame stays
//     answerable throughout, so overload is observable.
//
// Run under -fsanitize=thread (cmake -DTQ_SANITIZE=thread) to check the
// loop-thread / pool-callback handoffs; CI does,
// and under ASan via the ctest sweep.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/remote_shard_set.h"
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
using runtime::MetricsView;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;

ShardedEngineOptions EngineOptions(size_t shards, size_t cache = 2048,
                                   size_t threads = 4) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = threads;
  so.cache_capacity = cache;
  so.tree.beta = 16;
  // Integer-valued model: every answer is exact, so comparisons are bitwise.
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  return so;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

int RawConnect(uint16_t port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    // Before connect(), so the shrunken window is what gets advertised —
    // the server's sends then hit EAGAIN (and its watermarks) sooner.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
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

// Reads decoded response frames from `fd` until `want` frames arrived or a
// recv timeout/EOF; malformed frames fail the count (caller asserts size).
std::vector<NetResponse> ReadFrames(int fd, size_t want, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<NetResponse> out;
  FrameAssembler frames;
  char buf[64 << 10];
  while (out.size() < want) {
    std::string payload;
    if (frames.Next(&payload) == FrameAssembler::Result::kFrame) {
      NetResponse r;
      if (DecodeResponse(payload, &r).ok()) out.push_back(std::move(r));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout or EOF
    frames.Feed(buf, static_cast<size_t>(n));
  }
  return out;
}

// One big-batch sum request frame (identical repeated facility): ~2 KiB of
// request buys ~4.6 KiB of response, so a pipelined burst owes the server
// far more output than it received input — the adversarial shape.
std::string BigSumFrame(size_t batch) {
  std::string wire;
  EncodeRequest(NetRequest::Sum(std::vector<FacilityId>(batch, 0)), &wire);
  return wire;
}

// Blocking firehose writer on its own thread — a client that pipelines as
// fast as the kernel accepts and never touches its receive path. The
// destructor unsticks a still-blocked send with shutdown() so a failing
// assertion mid-test cannot hang on join.
class BurstSender {
 public:
  BurstSender(int fd, const std::string& bytes) : fd_(fd) {
    thread_ = std::thread([this, &bytes] {
      size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return;
        }
        off += static_cast<size_t>(n);
      }
      sent_all_.store(true);
    });
  }
  ~BurstSender() {
    if (thread_.joinable()) {
      ::shutdown(fd_, SHUT_RDWR);
      thread_.join();
    }
  }
  void Join() { thread_.join(); }
  bool sent_all() const { return sent_all_.load(); }

 private:
  int fd_;
  std::thread thread_;
  std::atomic<bool> sent_all_{false};
};

// Waits until the outbox gauge stops moving (already-read frames keep
// completing through the pool for a while after the pause lands), then
// returns the settled value.
uint64_t SettledOutboxGauge(ShardedEngine* engine) {
  uint64_t gauge = engine->metrics().Read().net_outbox_bytes;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    const uint64_t now = engine->metrics().Read().net_outbox_bytes;
    if (now == gauge) return gauge;
    gauge = now;
  }
  return gauge;
}

// ------------------------------------------------- backpressure watermarks

// THE boundedness check: a client pipelines ~9 MB worth of responses and
// reads NOTHING until the very end. The server must pause the connection at
// the high watermark instead of buffering it all (outbox gauge stays far
// below the owed bytes and stops growing), then resume on drain and answer
// every single frame.
TEST(NetBackpressure, NeverReadingPipelinerIsBoundedPausedThenResumed) {
  const TrajectorySet users = presets::NyfCheckins(1000);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.outbox_high_bytes = 32u << 10;
  options.outbox_low_bytes = 8u << 10;
  // Pin the kernel send buffer: with the autotuned default the kernel
  // absorbs multiple MB before the first EAGAIN, so how fast the pause
  // lands depends on response-production speed — too slow under TSan.
  options.sndbuf_bytes = 32 << 10;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kFrames = 2000;  // ≈9 MB of owed responses
  constexpr size_t kBatch = 512;    // response ≈4.6 KiB per frame
  const std::string one = BigSumFrame(kBatch);
  std::string burst;
  burst.reserve(one.size() * kFrames);
  for (size_t i = 0; i < kFrames; ++i) burst += one;

  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/8 << 10);
  ASSERT_GE(fd, 0);
  BurstSender sender(fd, burst);

  // The connection must hit the high watermark and pause.
  ASSERT_TRUE(WaitFor([&] {
    return engine.metrics().Read().net_paused_connections >= 1;
  })) << "connection never paused";

  // Bounded: wait for the staged-bytes gauge to settle, then check it is
  // nowhere near the ~9 MB owed. (The bound is the watermark plus the
  // responses for whatever the loop had read before the pause landed — a
  // couple hundred KB — asserted here with generous margin.)
  const uint64_t gauge = SettledOutboxGauge(&engine);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(engine.metrics().Read().net_outbox_bytes, gauge)
      << "outbox still growing while paused";
  EXPECT_LE(gauge, 2u << 20) << "outbox not bounded by the watermarks";

  // Drain: the pause must lift (low watermark) and every pipelined frame
  // must still be answered, in order, well-formed.
  const std::vector<NetResponse> responses =
      ReadFrames(fd, kFrames, /*timeout_ms=*/5000);
  sender.Join();
  EXPECT_TRUE(sender.sent_all());
  ASSERT_EQ(responses.size(), kFrames);
  for (const NetResponse& r : responses) {
    ASSERT_EQ(r.type, MessageType::kSum);
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.sums.size(), kBatch);
  }
  // Everything delivered: the gauge returns to zero.
  EXPECT_TRUE(
      WaitFor([&] { return engine.metrics().Read().net_outbox_bytes == 0; }));
  EXPECT_GE(engine.metrics().Read().net_paused_connections, 1u);
  ::close(fd);
  server.Stop();
}

// Fairness: while one connection sits paused at its watermark, a second
// client's round-trips must keep completing promptly — pausing is per
// connection, never a loop-wide stall.
TEST(NetBackpressure, PausedConnectionDoesNotStarveOthers) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.outbox_high_bytes = 32u << 10;
  options.outbox_low_bytes = 8u << 10;
  options.sndbuf_bytes = 32 << 10;  // deterministic EAGAIN, as above
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Big enough that the owed responses overflow the pinned kernel send
  // buffer — the pause only triggers once writes actually hit EAGAIN.
  constexpr size_t kFrames = 2000;
  constexpr size_t kBatch = 512;
  const std::string one = BigSumFrame(kBatch);
  std::string burst;
  burst.reserve(one.size() * kFrames);
  for (size_t i = 0; i < kFrames; ++i) burst += one;
  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/8 << 10);
  ASSERT_GE(fd, 0);
  BurstSender sender(fd, burst);
  ASSERT_TRUE(WaitFor([&] {
    return engine.metrics().Read().net_paused_connections >= 1;
  }));

  // 50 sequential round-trips on a fresh connection while the firehose
  // connection is stalled; a per-call timeout turns starvation into a
  // visible failure instead of a test hang.
  NetClient other;
  other.set_timeout_ms(2000);
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 50; ++i) {
    NetResponse response;
    ASSERT_TRUE(other.Sum({0, 1, 2}, &response).ok()) << "round-trip " << i;
    ASSERT_TRUE(response.status.ok());
    ASSERT_EQ(response.sums.size(), 3u);
  }

  const std::vector<NetResponse> responses =
      ReadFrames(fd, kFrames, /*timeout_ms=*/5000);
  sender.Join();
  EXPECT_EQ(responses.size(), kFrames);
  ::close(fd);
  server.Stop();
}

// --------------------------------------------------- admission control

// Overload: with max_queued armed and slow uncached queries on one pool
// thread, a pipelined burst must split into served answers plus in-protocol
// kOverloaded answers — every frame answered, nothing dropped, nothing
// hung, net_shed matching exactly — and a stats scrape must still answer
// mid-overload (inline frames are never shed).
TEST(NetBackpressure, OverloadShedsWithInProtocolAnswers) {
  const TrajectorySet users = presets::NyfCheckins(4000);
  const TrajectorySet routes = presets::NyBusRoutes(16, 10);
  // One pool thread + no cache: every top-k does real multi-shard work, so
  // the queue genuinely backs up behind the first few.
  ShardedEngine engine(users, routes,
                       EngineOptions(4, /*cache=*/0, /*threads=*/1));
  NetServerOptions options;
  options.max_queued = 4;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr size_t kFrames = 120;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.Send(NetRequest::TopK({8})).ok());
  }
  ASSERT_TRUE(client.Flush().ok());

  // Mid-burst observability: a second connection's stats scrape answers
  // while the engine is saturated.
  NetClient scraper;
  scraper.set_timeout_ms(5000);
  ASSERT_TRUE(scraper.Connect("127.0.0.1", server.port()).ok());
  NetResponse stats;
  ASSERT_TRUE(scraper.Stats(0, &stats).ok());
  ASSERT_TRUE(stats.status.ok());

  size_t served = 0, shed = 0;
  for (size_t i = 0; i < kFrames; ++i) {
    NetResponse response;
    ASSERT_TRUE(client.Receive(&response).ok()) << "frame " << i;
    ASSERT_EQ(response.type, MessageType::kTopK);
    if (response.status.ok()) {
      ++served;
      ASSERT_EQ(response.topks.size(), 1u);
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kOverloaded)
          << response.status.ToString();
      EXPECT_NE(response.status.message().find("back off"),
                std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, kFrames);
  EXPECT_GE(served, 1u) << "admission control shed everything";
  EXPECT_GE(shed, 1u) << "no overload observed — tighten the test";
  const MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.net_shed, shed);

  // The shed counter is scrape-visible (what the CI overload gate reads).
  ASSERT_TRUE(scraper.Stats(0, &stats).ok());
  uint64_t scraped_shed = 0;
  for (const auto& [name, value] : stats.stats.counters) {
    if (name == "net_shed") scraped_shed = value;
  }
  EXPECT_EQ(scraped_shed, shed);
  server.Stop();
}

// ------------------------------------- coordinator worker-set persistence

// serve --coordinator --data-dir persists the verified worker set; the
// restart path reloads it without --workers (the PR-9 carry-forward). The
// file logic lives in RemoteShardSet so it is testable here; the CI
// distributed-smoke job restarts a real coordinator on top of it.
TEST(NetBackpressure, WorkerSetPersistsAndRecovers) {
  using runtime::RemoteShardSet;
  const std::string dir =
      ::testing::TempDir() + "tq_worker_set_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  std::remove((dir + "/workers.txt").c_str());

  std::vector<std::pair<std::string, uint16_t>> saved = {
      {"127.0.0.1", 7001}, {"10.1.2.3", 7002}, {"worker-c.local", 65535}};
  ASSERT_TRUE(RemoteShardSet::SaveWorkerSet(dir, saved).ok());
  std::vector<std::pair<std::string, uint16_t>> loaded;
  ASSERT_TRUE(RemoteShardSet::LoadWorkerSet(dir, &loaded).ok());
  EXPECT_EQ(loaded, saved);

  // Overwrite semantics: a re-save replaces, never appends.
  saved.pop_back();
  ASSERT_TRUE(RemoteShardSet::SaveWorkerSet(dir, saved).ok());
  loaded.clear();
  ASSERT_TRUE(RemoteShardSet::LoadWorkerSet(dir, &loaded).ok());
  EXPECT_EQ(loaded, saved);

  // Missing file is NotFound (the CLI falls through to "needs --workers").
  std::vector<std::pair<std::string, uint16_t>> none;
  const Status missing =
      RemoteShardSet::LoadWorkerSet(dir + "_nonexistent", &none);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_TRUE(none.empty());

  // A corrupt line is a loud IOError, not a silently skipped worker.
  std::FILE* f = std::fopen((dir + "/workers.txt").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("127.0.0.1:7001\nnot-an-endpoint\n", f);
  std::fclose(f);
  const Status corrupt = RemoteShardSet::LoadWorkerSet(dir, &none);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.code(), StatusCode::kNotFound);
  std::remove((dir + "/workers.txt").c_str());
}

}  // namespace
}  // namespace tq
