// Async batched network front-end over the sharded engine.
//
// One epoll event-loop thread owns every socket — a single non-blocking
// listener plus N non-blocking connections; there is no thread per
// connection, so idle connections cost one epoll registration and a few KB.
// The loop's only jobs are framing and dispatch:
//
//   * READ  — bytes are fed to a per-connection FrameAssembler; every
//     complete frame is decoded (net/protocol.h) and its queries are
//     dispatched straight onto the ShardedEngine's worker pool via
//     SubmitAsync. The loop never evaluates a query itself.
//   * COMPLETE — the pool thread that finishes a gather runs the completion
//     callback: it fills the frame's slot in the connection's arrival-order
//     FIFO, and when the FIFO head becomes ready, encodes and stages the
//     response bytes and wakes the loop through an eventfd. Responses are
//     therefore PIPELINED per connection: many request frames may be in
//     flight, and answers always come back in arrival order.
//   * WRITE — the loop drains each connection's staged bytes with
//     non-blocking sends, falling back to EPOLLOUT when the socket's buffer
//     fills.
//   * UPDATES — write frames are not applied one by one: they accumulate in
//     a pending batch that is flushed through one ApplyUpdates call when
//     `update_batch` frames have arrived, and otherwise within one poll
//     round (an update parked in round i flushes by the end of round i+1,
//     even under sustained traffic on other connections). Same coalescing
//     economics as the CLI's --update-batch: one forked publish per batch,
//     not per write. Each frame still gets its
//     own response with its own assigned ids.
//
// Ordering contract: responses are in request-arrival order per connection,
// but EXECUTION order across request types is not guaranteed — a read
// pipelined behind an update may run against the pre-update snapshot (its
// response still waits behind the update's). A client needing
// read-your-writes waits for the update response before issuing reads.
//
// Error handling: a request the server cannot decode still yields a
// response frame (type kError) so pipelined clients never stall, after
// which the connection is closed — framing may be intact but the stream is
// no longer trusted. An unframeable byte stream (oversized or zero length
// prefix) is answered the same way and closed immediately.
#ifndef TQCOVER_NET_SERVER_H_
#define TQCOVER_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "runtime/serving_engine.h"

namespace tq::net {

struct NetServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Payload cap per frame, both directions; larger length prefixes close
  /// the connection.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Update frames coalesced into one ApplyUpdates publish. The pending
  /// batch also flushes after one poll round regardless, so a lone update
  /// is never parked behind an unreachable threshold or starved by other
  /// connections' traffic.
  size_t update_batch = 1;
  /// Per-connection frame-trace sampling: every `trace_sample`-th read
  /// frame (the first included) gets a TraceContext threaded through its
  /// sub-queries and lands in the engine's recent-trace ring. 0 disables
  /// frame traces entirely. Sampling keeps the pipelined hot path's
  /// allocation cost amortized; untraced cache-miss queries still get
  /// engine-owned traces, so slow-query coverage does not depend on it.
  size_t trace_sample = 32;
  /// Backpressure watermarks on a connection's staged-but-unsent response
  /// bytes. When the backlog reaches `outbox_high_bytes` the server stops
  /// READING from that connection (EPOLLIN deregistered; the TCP receive
  /// window then closes end-to-end) until the client drains it back below
  /// `outbox_low_bytes` — so a client that pipelines requests without ever
  /// reading responses caps the server's per-connection memory at roughly
  /// high + one read buffer of responses instead of growing without bound.
  /// 0 disables pausing entirely.
  size_t outbox_high_bytes = 4u << 20;
  size_t outbox_low_bytes = 1u << 20;
  /// Admission control: when more than this many engine sub-queries are
  /// queued or running on behalf of the whole server, new kSum/kTopK/kBound
  /// frames are answered immediately with StatusCode::kOverloaded instead
  /// of being dispatched (`net_shed` counts them). Already-dispatched work
  /// and inline frame types (stats, register, heartbeat, status) and
  /// updates are never shed. 0 disables admission control.
  size_t max_queued = 0;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel's autotuned
  /// default. Setting it pins the kernel-side buffering per connection,
  /// which makes the watermark/pause behavior above deterministic — the
  /// backpressure tests rely on that; production normally leaves it 0.
  int sndbuf_bytes = 0;
};

/// The TCP front-end. Construction binds nothing; Start() binds, listens,
/// and spawns the event-loop thread; Stop() (idempotent, also run by the
/// destructor) drains in-flight work and closes every socket. The engine
/// must outlive the server.
///
/// The server speaks to any runtime::ServingEngine — the in-process
/// ShardedEngine (a single process or a shard worker, which additionally
/// answers kRegister/kHeartbeat/kBound) or the RemoteShardSet coordinator
/// (whose Workers() table fills kStatus and whose Tick() drives heartbeats
/// off this loop's timerfd).
class NetServer {
 public:
  NetServer(runtime::ServingEngine* engine, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  Status Start();
  /// Flushes the pending update batch, waits for every dispatched query to
  /// complete, then closes all sockets. Responses already staged are given
  /// one best-effort non-blocking flush; undeliverable ones are dropped
  /// (clients see EOF).
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The actually-bound port (resolves port 0 requests after Start()).
  uint16_t port() const { return port_; }

 private:
  struct Connection;
  struct PendingUpdate;

  void EventLoop();
  void Accept();
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& payload);
  void DispatchSum(const std::shared_ptr<Connection>& conn, uint64_t seq,
                   NetRequest request, runtime::TraceContextPtr trace,
                   uint64_t rx_ns);
  void DispatchTopK(const std::shared_ptr<Connection>& conn, uint64_t seq,
                    NetRequest request, runtime::TraceContextPtr trace,
                    uint64_t rx_ns);
  /// The shared fan-in machinery of both batched read paths: one engine
  /// sub-query per item (`make_request` is only invoked during this call),
  /// each completion extracts its per-query Result, and the last one
  /// encodes the response frame into `results_field` and completes slot
  /// `seq`. `trace` (nullable) is the frame's sampled trace — shared by
  /// every sub-query, encode-span'd and finished by the last completion.
  /// `rx_ns` is the frame's decode timestamp feeding the kNetFrame
  /// histogram.
  template <typename Result>
  void DispatchBatch(
      const std::shared_ptr<Connection>& conn, uint64_t seq,
      MessageType type, size_t count,
      const std::function<runtime::QueryRequest(size_t)>& make_request,
      std::function<Result(runtime::QueryResponse&&)> extract,
      std::vector<Result> NetResponse::* results_field,
      runtime::TraceContextPtr trace, uint64_t rx_ns);
  void FlushUpdates();
  /// Re-arms the one-shot timerfd to the nearest pending deadline (update
  /// flush, engine tick) — a no-op syscall-wise when the target is
  /// unchanged. Loop thread only.
  void RearmTimer();
  /// Fills slot `seq` with encoded bytes and stages any newly-ready FIFO
  /// prefix for writing. Safe from any thread. A non-zero `rx_ns` (the
  /// frame's decode timestamp) records decode-to-staged latency into the
  /// kNetFrame histogram.
  void Complete(const std::shared_ptr<Connection>& conn, uint64_t seq,
                std::string frame_bytes, uint64_t rx_ns = 0);
  /// Non-blocking send of a connection's staged bytes (loop thread only).
  void FlushOutbox(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void WakeLoop();
  /// Claims the next arrival-order response slot (any thread).
  uint64_t AllocSlot(Connection* conn);
  /// Recomputes a connection's epoll interest set (loop thread only).
  void UpdateInterest(Connection* conn);
  /// Stages an error response into the next FIFO slot and begins a graceful
  /// close (answer everything already pipelined, then hang up).
  void FailConnection(const std::shared_ptr<Connection>& conn,
                      MessageType type, Status status);
  /// Answers one frame inline on the loop thread (stats, register, errors,
  /// shed responses): encodes and completes the next slot.
  void AnswerInline(const std::shared_ptr<Connection>& conn,
                    NetResponse&& resp, uint64_t rx_ns);
  /// Applies the backpressure watermarks to a connection's current backlog
  /// (loop thread only): pauses reads at/above high, resumes at/below low.
  void ReconsiderPause(const std::shared_ptr<Connection>& conn,
                       size_t backlog);
  /// True when admission control should shed new dispatchable work.
  bool Overloaded() const {
    return options_.max_queued != 0 &&
           queued_work_.load(std::memory_order_relaxed) >=
               options_.max_queued;
  }
  /// In-flight work accounting shared by every dispatched engine call:
  /// Stop() waits on it, and admission control reads the atomic mirror.
  void BeginWork(size_t n);
  void EndWork();

  runtime::ServingEngine* engine_;
  runtime::MetricsRegistry* metrics_;
  NetServerOptions options_;
  /// The serving ψ, fixed for the engine's lifetime (the catalog is shared
  /// unchanged across publishes) — cached so the per-frame mismatch check
  /// does not take the snapshot mutex.
  double engine_psi_ = 0.0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;   // eventfd: completion callbacks wake the loop
  /// One CLOCK_MONOTONIC timerfd carries BOTH timed duties of the loop —
  /// the parked-update flush and the engine's periodic Tick — so
  /// epoll_wait always blocks with timeout -1 instead of recomputing a
  /// timeout every poll round. One-shot, re-armed to the nearest deadline.
  int timer_fd_ = -1;
  int spare_fd_ = -1;  // reserve fd, sacrificed to shed accepts on EMFILE
  uint16_t port_ = 0;
  // Timer deadlines (loop thread only, NowNs clock, 0 = none).
  uint64_t flush_deadline_ns_ = 0;  // set when the first update is parked
  uint64_t next_tick_ns_ = 0;       // next engine Tick, when period > 0
  uint64_t tick_period_ns_ = 0;
  uint64_t timer_armed_ns_ = 0;     // what the timerfd is currently set to
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Loop-thread-only state.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::vector<PendingUpdate> pending_updates_;

  // Connections with staged response bytes, appended by completion
  // callbacks (any thread) and drained by the loop on each wake.
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Connection>> dirty_;

  // Outstanding engine sub-queries; Stop() waits for zero so no callback
  // can outlive the server.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  size_t inflight_ = 0;
  /// Relaxed mirror of inflight_ for the admission-control fast path (the
  /// loop thread must not contend on inflight_mu_ per frame).
  std::atomic<size_t> queued_work_{0};
};

}  // namespace tq::net

#endif  // TQCOVER_NET_SERVER_H_
