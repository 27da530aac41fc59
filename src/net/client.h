// Client side of the network front-end (net/protocol.h): a blocking TCP
// connection with two API levels.
//
//   * Sync — Sum / TopK / Update send one request frame and block for its
//     response. One round-trip per call; simple, right for low rates.
//   * Async batch — Send() queues any number of request frames locally,
//     Flush() writes them in one burst, Receive() drains the responses in
//     send order. Because the server pipelines responses per connection in
//     arrival order, N requests cost one round-trip instead of N — this is
//     the API any high-rate caller should use.
//
// A NetClient is NOT thread-safe; use one per thread (connections are
// cheap — the server spends no thread on them).
#ifndef TQCOVER_NET_CLIENT_H_
#define TQCOVER_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace tq::net {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects to `host:port` (IPv4 dotted quad or a resolvable name).
  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Caps how long any single send/recv may block (0 = forever, the
  /// default). Applies to the current connection immediately and to later
  /// Connect()s. A coordinator probing possibly-dead workers needs this:
  /// an RPC that would otherwise hang becomes an IOError it can score as a
  /// worker failure.
  void set_timeout_ms(uint64_t ms);

  // ---- sync API: one frame out, one frame back -------------------------

  /// Batched service values, one per facility id. Transport errors come
  /// back as the return Status; per-query errors in response->sums[i].code.
  Status Sum(const std::vector<FacilityId>& facilities,
             NetResponse* response);
  /// Batched kMaxRRST queries, one per k.
  Status TopK(const std::vector<uint32_t>& ks, NetResponse* response);
  /// One write batch: trajectories to insert and global ids to remove.
  /// response->assigned_ids holds the ids given to `inserts`, in order.
  Status Update(std::vector<std::vector<Point>> inserts,
                std::vector<uint32_t> removes, NetResponse* response);
  /// Scrapes the server's metrics, per-op latency histograms, and up to
  /// `max_traces` recent traces (slowest first) into response->stats.
  Status Stats(uint32_t max_traces, NetResponse* response);

  // ---- coordinator/worker RPCs (the distributed serving layer) ---------

  /// Asks the peer to identify itself: response->worker_info carries its
  /// partition geometry (num_shards, owned range, ψ, catalog size, users).
  Status Register(NetResponse* response);
  /// Liveness probe; the response echoes `seq` and reports queries_total.
  Status Heartbeat(uint64_t seq, NetResponse* response);
  /// Round-1 top-k bound sweep over the peer's owned shards: response->
  /// bounds (per facility).
  Status Bound(uint32_t k, NetResponse* response);
  /// Cluster status: the peer's own info plus, on a coordinator, its
  /// per-worker liveness table.
  Status ClusterStatus(NetResponse* response);

  // ---- async batch API: pipeline frames, then drain --------------------

  /// Queues one request frame locally (no I/O). Pair every Send with one
  /// later Receive, in order.
  Status Send(const NetRequest& request);
  /// Writes every queued frame to the socket.
  Status Flush();
  /// Blocks for the next response frame (send order). Flushes first if
  /// frames are still queued locally.
  Status Receive(NetResponse* response);
  /// Frames sent (or queued) whose responses have not been received yet.
  size_t pending() const { return pending_; }

 private:
  Status WriteAll(const char* data, size_t n);
  Status ReadFrame(std::string* payload);

  void ApplyTimeout();

  int fd_ = -1;
  uint64_t timeout_ms_ = 0;  // 0 = block forever
  std::string sendbuf_;  // frames queued by Send, drained by Flush
  FrameAssembler frames_;
  size_t pending_ = 0;
};

}  // namespace tq::net

#endif  // TQCOVER_NET_CLIENT_H_
