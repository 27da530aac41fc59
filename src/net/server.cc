#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace tq::net {

namespace {

Status Errno(const char* what) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(errno));
}

/// Monotone max over an atomic (sub-queries of one frame may straddle a
/// publish; the frame reports the newest snapshot any of them saw).
void RaiseVersion(std::atomic<uint64_t>* v, uint64_t seen) {
  uint64_t cur = v->load(std::memory_order_relaxed);
  while (cur < seen && !v->compare_exchange_weak(
                           cur, seen, std::memory_order_relaxed)) {
  }
}

/// One response slot in a connection's arrival-order FIFO. A request frame
/// claims its slot when decoded; the slot turns ready when the last of the
/// frame's sub-queries completes.
struct Slot {
  bool ready = false;
  std::string bytes;  // the encoded response frame
};

}  // namespace

struct NetServer::Connection {
  Connection(int fd, size_t max_frame_bytes)
      : fd(fd), frames(max_frame_bytes) {}

  const int fd;
  // --- event-loop thread only ---
  FrameAssembler frames;
  uint64_t frames_seen = 0;  // drives frame-trace sampling
  bool want_write = false;  // EPOLLOUT armed
  bool closing = false;     // stop reading; close once fifo+outbox drain
  bool paused = false;      // EPOLLIN dropped: outbox crossed the high mark

  // --- guarded by mu (completion callbacks run on pool threads) ---
  std::mutex mu;
  std::deque<Slot> fifo;
  uint64_t base_seq = 0;  // sequence number of fifo.front()
  std::string outbox;     // staged, not-yet-sent response bytes
  size_t out_off = 0;     // sent prefix of outbox
  bool closed = false;    // fd closed; stage nothing further
  bool dirty = false;     // already queued on the server's dirty list
};

/// A decoded update frame parked for coalescing: it is applied (and its
/// response slot filled) by the next FlushUpdates.
struct NetServer::PendingUpdate {
  std::shared_ptr<Connection> conn;
  uint64_t seq = 0;
  uint64_t rx_ns = 0;  // decode timestamp; coalescing wait counts as frame time
  std::vector<std::vector<Point>> inserts;
  std::vector<uint32_t> removes;
};

namespace {

/// Fan-in state of one batched read frame: sub-query i writes its own slot;
/// the last decrement owns the vectors and encodes the response.
template <typename Result>
struct FrameState {
  explicit FrameState(size_t count) : remaining(count), results(count) {}
  std::atomic<size_t> remaining;
  std::vector<Result> results;
  std::atomic<uint64_t> snapshot_version{0};
};

/// The server answers a kStats frame from a registry snapshot plus the
/// tracer's recent ring, slowest trace first (the "recent slow traces" the
/// protocol promises). Computed at frame-DECODE time — responses pipelined
/// behind in-flight queries do not include them; see docs/PROTOCOL.md.
WireStats BuildWireStats(const runtime::MetricsView& m,
                         std::vector<runtime::Trace> traces) {
  WireStats st;
  m.ForEachCounter([&st](const char* name, uint64_t value) {
    st.counters.emplace_back(name, value);
  });
  st.histograms.reserve(runtime::kNumOpFamilies);
  for (size_t f = 0; f < runtime::kNumOpFamilies; ++f) {
    const runtime::HistogramSnapshot& h = m.op_histograms[f];
    WireHistogram wh;
    wh.name = runtime::OpFamilyName(static_cast<runtime::OpFamily>(f));
    wh.count = h.count;
    wh.sum_ns = h.sum_ns;
    wh.p50_ns = h.Percentile(0.50);
    wh.p90_ns = h.Percentile(0.90);
    wh.p99_ns = h.Percentile(0.99);
    wh.max_ns = h.MaxNs();
    st.histograms.push_back(std::move(wh));
  }
  std::sort(traces.begin(), traces.end(),
            [](const runtime::Trace& a, const runtime::Trace& b) {
              return a.total_ns > b.total_ns;
            });
  st.traces.reserve(traces.size());
  for (runtime::Trace& t : traces) {
    WireTrace wt;
    wt.op = std::move(t.op);
    wt.detail = t.detail;
    wt.total_ns = t.total_ns;
    wt.snapshot_version = t.snapshot_version;
    wt.unix_ms = static_cast<uint64_t>(t.unix_ms);
    wt.dropped_spans = t.dropped_spans;
    wt.spans.reserve(t.spans.size());
    for (runtime::Trace::Span& s : t.spans) {
      wt.spans.push_back(
          WireSpan{std::move(s.name), s.shard, s.start_ns, s.end_ns});
    }
    st.traces.push_back(std::move(wt));
  }
  return st;
}

/// Hard cap on traces in one stats response, whatever the client asked for.
constexpr uint32_t kMaxStatsTraces = 64;
/// Pending-connection queue of the listening socket.
constexpr int kListenBacklog = 64;

WireWorkerInfo ToWireInfo(const runtime::EngineInfo& info) {
  WireWorkerInfo w;
  w.num_shards = info.num_shards;
  w.owned_begin = info.owned_begin;
  w.owned_end = info.owned_end;
  w.psi = info.psi;
  w.num_facilities = info.num_facilities;
  w.users_total = info.users_total;
  return w;
}

}  // namespace

NetServer::NetServer(runtime::ServingEngine* engine, NetServerOptions options)
    : engine_(engine),
      metrics_(engine->mutable_metrics()),
      options_(options) {
  TQ_CHECK(engine != nullptr);
  engine_psi_ = engine_->psi();
  if (options_.update_batch == 0) options_.update_batch = 1;
  // A low watermark at or above the high one would pause and resume in the
  // same breath; clamp it to half the span so pausing always hysteresis-es.
  if (options_.outbox_high_bytes != 0 &&
      options_.outbox_low_bytes >= options_.outbox_high_bytes) {
    options_.outbox_low_bytes = options_.outbox_high_bytes / 2;
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    const Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || timer_fd_ < 0) {
    const Status st = Errno("epoll/eventfd/timerfd");
    Stop();
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.fd = timer_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  tick_period_ns_ = engine_->tick_period_ms() * 1'000'000ull;
  flush_deadline_ns_ = 0;
  next_tick_ns_ = 0;
  timer_armed_ns_ = 0;

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread(&NetServer::EventLoop, this);
  return Status::OK();
}

void NetServer::Stop() {
  if (loop_.joinable()) {
    stopping_.store(true, std::memory_order_release);
    WakeLoop();
    loop_.join();
  }
  running_.store(false, std::memory_order_release);
  // Every dispatched sub-query must complete before sockets go away: the
  // completion callbacks hold connection pointers and this server.
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  // Best-effort delivery of whatever completed during shutdown, then close.
  for (auto& [fd, conn] : connections_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->out_off < conn->outbox.size()) {
      const ssize_t n =
          ::send(fd, conn->outbox.data() + conn->out_off,
                 conn->outbox.size() - conn->out_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) metrics_->AddNetBytesOut(static_cast<uint64_t>(n));
      // Sent or dropped, every staged byte leaves the outboxes now.
      metrics_->SubNetOutboxBytes(conn->outbox.size() - conn->out_off);
    }
    conn->closed = true;
    ::close(fd);
  }
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.clear();
  }
  for (int* fd :
       {&listen_fd_, &epoll_fd_, &wake_fd_, &timer_fd_, &spare_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void NetServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::RearmTimer() {
  uint64_t want = flush_deadline_ns_;
  if (next_tick_ns_ != 0 && (want == 0 || next_tick_ns_ < want)) {
    want = next_tick_ns_;
  }
  if (want == timer_armed_ns_) return;  // same target: no syscall
  itimerspec its{};  // all-zero it_value disarms
  if (want != 0) {
    // Relative one-shot arm: independent of any epoch agreement between
    // NowNs and the timerfd clock. A deadline already in the past becomes
    // a 1 ns timer — an immediate wake. If the fd ever fires early, the
    // expiry handler re-arms with the remainder (timer_armed_ns_ is reset
    // to 0 on every fire), so nothing is ever missed.
    const uint64_t now = runtime::NowNs();
    const uint64_t delta = want > now ? want - now : 1;
    its.it_value.tv_sec = static_cast<time_t>(delta / 1'000'000'000ull);
    its.it_value.tv_nsec = static_cast<long>(delta % 1'000'000'000ull);
    if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
      its.it_value.tv_nsec = 1;
    }
  }
  ::timerfd_settime(timer_fd_, 0, &its, nullptr);
  timer_armed_ns_ = want;
}

void NetServer::EventLoop() {
  if (tick_period_ns_ != 0) {
    next_tick_ns_ = runtime::NowNs() + tick_period_ns_;
  }
  RearmTimer();
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    // The loop always parks with an infinite timeout: every timed duty —
    // the parked-update flush and the periodic engine tick — lives on the
    // one-shot timerfd, re-armed only when the nearest deadline changes,
    // instead of a per-round timeout recomputation.
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool timer_fired = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        Accept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == timer_fd_) {
        uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(timer_fd_, &expirations, sizeof(expirations));
        timer_armed_ns_ = 0;  // one-shot consumed; RearmTimer re-targets
        timer_fired = true;
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this round
      const std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        ReadFrom(conn);
      }
      if ((events[i].events & EPOLLOUT) && connections_.count(fd)) {
        FlushOutbox(conn);
      }
    }
    if (timer_fired) {
      const uint64_t now = runtime::NowNs();
      // Pending coalesced updates flush within one poll round of parking:
      // the flush deadline is the parking instant itself, so the timer is
      // already expired when armed and the very next round flushes —
      // whatever arrived in between coalesces with it, and busy traffic on
      // OTHER connections cannot starve it.
      if (flush_deadline_ns_ != 0 && now >= flush_deadline_ns_) {
        FlushUpdates();
      }
      if (next_tick_ns_ != 0 && now >= next_tick_ns_) {
        engine_->Tick();
        next_tick_ns_ = runtime::NowNs() + tick_period_ns_;
      }
    }
    // Stage-to-socket handoff: connections whose callbacks completed
    // responses since the last round.
    std::vector<std::shared_ptr<Connection>> dirty;
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (const auto& conn : dirty) {
      // Pointer identity, not just fd: a closed connection's fd number may
      // already belong to a newer accept.
      const auto it = connections_.find(conn->fd);
      if (it != connections_.end() && it->second == conn) FlushOutbox(conn);
    }
    RearmTimer();
  }
  // Shutdown: parked update frames still get applied and answered (their
  // responses are flushed best-effort by Stop()).
  FlushUpdates();
}

void NetServer::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of file descriptors: the backlog entry would keep the
      // level-triggered listener ready forever and busy-spin the loop.
      // Shed the connection instead — close the reserve fd, accept, close
      // the accepted socket (client sees a clean ECONNRESET/EOF), reopen
      // the reserve. If a previous reacquire lost the ENFILE race, retry
      // it now — some fd was just released or this branch would not help.
      if (errno == EMFILE || errno == ENFILE) {
        if (spare_fd_ < 0) {
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        if (spare_fd_ < 0) return;  // truly nothing to sacrifice
        ::close(spare_fd_);
        spare_fd_ = -1;
        const int shed = ::accept4(listen_fd_, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (shed >= 0) ::close(shed);
        spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // EAGAIN (or a transient error): nothing to accept
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    auto conn = std::make_shared<Connection>(fd, options_.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    metrics_->AddNetConnection();
  }
}

void NetServer::ReadFrom(const std::shared_ptr<Connection>& conn) {
  if (conn->closing) return;  // EOF or protocol failure already seen
  char buf[64 << 10];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    CloseConnection(conn);
    return;
  }
  if (n == 0) {
    // Peer half-closed: answer what is already pipelined, then hang up.
    bool idle;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      idle = conn->fifo.empty() && conn->out_off == conn->outbox.size();
    }
    if (idle) {
      CloseConnection(conn);
    } else {
      conn->closing = true;
      UpdateInterest(conn.get());
    }
    return;
  }
  metrics_->AddNetBytesIn(static_cast<uint64_t>(n));
  conn->frames.Feed(buf, static_cast<size_t>(n));
  std::string payload;
  for (;;) {
    const FrameAssembler::Result r = conn->frames.Next(&payload);
    if (r == FrameAssembler::Result::kNeedMore) break;
    if (r == FrameAssembler::Result::kBad) {
      FailConnection(conn, MessageType::kError,
                     Status::InvalidArgument(
                         "unframeable stream: zero or oversized length "
                         "prefix (max " +
                         std::to_string(options_.max_frame_bytes) +
                         " payload bytes)"));
      return;
    }
    HandleFrame(conn, payload);
    if (conn->closing) return;  // a malformed frame ended the conversation
  }
}

uint64_t NetServer::AllocSlot(Connection* conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->fifo.emplace_back();
  return conn->base_seq + conn->fifo.size() - 1;
}

void NetServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  // Frame receive timestamp: start of the kNetFrame decode→respond
  // histogram window.
  const uint64_t rx_ns = runtime::NowNs();
  const uint64_t frame_idx = conn->frames_seen++;
  NetRequest request;
  const Status st = DecodeRequest(payload, &request);
  if (!st.ok()) {
    FailConnection(conn, MessageType::kError, st);
    return;
  }
  metrics_->AddNetRequestsDecoded(1);
  // The engine's index is built for exactly one ψ; a mismatched request is
  // answerable only wrongly, so it gets a per-frame error (the connection
  // survives — the frame itself was well-formed).
  if (request.psi != 0.0 && request.psi != engine_psi_) {
    NetResponse resp;
    resp.type = request.type;
    resp.status = Status::InvalidArgument(
        "engine serves psi=" + std::to_string(engine_psi_) +
        ", request asked for psi=" + std::to_string(request.psi));
    AnswerInline(conn, std::move(resp), rx_ns);
    return;
  }
  // Admission control: the dispatchable read paths are the unbounded work
  // queue — once the global backlog crosses the limit, answer in-protocol
  // with kOverloaded instead of queueing more. The frame is still answered
  // (pipelining never stalls) and the connection survives; a well-behaved
  // client backs off and retries. Inline types (stats, heartbeat, status)
  // cost no pool work and are never shed — so overload stays observable
  // while shedding.
  if ((request.type == MessageType::kSum ||
       request.type == MessageType::kTopK ||
       request.type == MessageType::kBound) &&
      Overloaded()) {
    metrics_->AddNetShed();
    NetResponse resp;
    resp.type = request.type;
    resp.status = Status::Overloaded(
        "server overloaded: " +
        std::to_string(queued_work_.load(std::memory_order_relaxed)) +
        " queries queued (limit " + std::to_string(options_.max_queued) +
        "); back off and retry");
    AnswerInline(conn, std::move(resp), rx_ns);
    return;
  }
  // Sampled frame trace for the read paths: the frame's sub-queries share
  // one context (decode span here, per-shard spans in the engine, encode
  // span + Finish in the last completion).
  runtime::TraceContextPtr trace;
  if (options_.trace_sample != 0 &&
      frame_idx % options_.trace_sample == 0 &&
      (request.type == MessageType::kSum ||
       request.type == MessageType::kTopK)) {
    const bool sum = request.type == MessageType::kSum;
    trace = engine_->tracer().Start(
        sum ? "net_sum" : "net_topk",
        sum ? request.facilities.size() : request.ks.size(), rx_ns);
    trace->AddSpan("decode", -1, rx_ns, runtime::NowNs());
  }
  switch (request.type) {
    case MessageType::kSum:
      DispatchSum(conn, AllocSlot(conn.get()), std::move(request),
                  std::move(trace), rx_ns);
      break;
    case MessageType::kTopK:
      DispatchTopK(conn, AllocSlot(conn.get()), std::move(request),
                   std::move(trace), rx_ns);
      break;
    case MessageType::kUpdate: {
      PendingUpdate pending;
      pending.conn = conn;
      pending.seq = AllocSlot(conn.get());
      pending.rx_ns = rx_ns;
      pending.inserts = std::move(request.inserts);
      pending.removes = std::move(request.removes);
      pending_updates_.push_back(std::move(pending));
      if (pending_updates_.size() >= options_.update_batch) {
        FlushUpdates();
      } else if (flush_deadline_ns_ == 0) {
        // First parked update: the flush deadline is NOW, so the timerfd
        // (re-armed at the end of this round) wakes the loop immediately
        // and the next round flushes.
        flush_deadline_ns_ = runtime::NowNs();
      }
      break;
    }
    case MessageType::kStats: {
      // Answered inline on the loop thread — a pure read of atomics plus a
      // bounded ring copy, so it cannot block behind the worker pool.
      NetResponse resp;
      resp.type = MessageType::kStats;
      const uint32_t max_traces =
          std::min(request.stats_max_traces, kMaxStatsTraces);
      resp.stats = BuildWireStats(metrics_->Read(),
                                  engine_->tracer().Recent(max_traces));
      AnswerInline(conn, std::move(resp), rx_ns);
      break;
    }
    case MessageType::kRegister: {
      // Identity handshake, answered inline (no engine work): the peer
      // verifies partition geometry before trusting composed answers.
      NetResponse resp;
      resp.type = MessageType::kRegister;
      const runtime::EngineInfo info = engine_->info();
      resp.snapshot_version = info.snapshot_version;
      resp.worker_info = ToWireInfo(info);
      AnswerInline(conn, std::move(resp), rx_ns);
      break;
    }
    case MessageType::kHeartbeat: {
      // Echo the probe sequence inline; queries_total rides along so a
      // coordinator can watch worker progress without a stats scrape.
      NetResponse resp;
      resp.type = MessageType::kHeartbeat;
      resp.heartbeat_seq = request.heartbeat_seq;
      resp.heartbeat_queries = metrics_->Read().queries_total;
      AnswerInline(conn, std::move(resp), rx_ns);
      break;
    }
    case MessageType::kStatus: {
      NetResponse resp;
      resp.type = MessageType::kStatus;
      const runtime::EngineInfo info = engine_->info();
      resp.snapshot_version = info.snapshot_version;
      resp.worker_info = ToWireInfo(info);
      for (const runtime::WorkerStatus& w : engine_->Workers()) {
        WireWorkerStatus row;
        row.address = w.address;
        row.state = w.state;
        row.owned_begin = w.owned_begin;
        row.owned_end = w.owned_end;
        row.heartbeats = w.heartbeats;
        row.failures = w.failures;
        row.age_ms = w.age_ms;
        row.rtt_count = w.rtt.count;
        row.rtt_p50_ns = w.rtt.Percentile(0.50);
        row.rtt_p99_ns = w.rtt.Percentile(0.99);
        resp.workers.push_back(std::move(row));
      }
      const runtime::RecoveryInfo rec = engine_->recovery_info();
      resp.durability.flags = static_cast<uint8_t>(
          (rec.durable ? 1 : 0) | (rec.recovered ? 2 : 0) |
          (rec.wal_torn_tail ? 4 : 0));
      resp.durability.checkpoint_lsn = rec.checkpoint_lsn;
      resp.durability.last_lsn = rec.last_lsn;
      resp.durability.replayed_batches = rec.replayed_batches;
      resp.durability.recovery_ns = rec.recovery_ns;
      AnswerInline(conn, std::move(resp), rx_ns);
      break;
    }
    case MessageType::kBound: {
      // One round-1 bound sweep, dispatched to the engine's pool like the
      // read paths (inflight-accounted so Stop() outlives the callback).
      // The frame's k is ignored: the sweep bounds every facility.
      const uint64_t seq = AllocSlot(conn.get());
      BeginWork(1);
      engine_->TopKBoundSweepAsync(
          [this, conn, seq, rx_ns](runtime::BoundSweepResult result) {
            NetResponse resp;
            resp.type = MessageType::kBound;
            resp.status = std::move(result.status);
            resp.snapshot_version = result.snapshot_version;
            resp.bounds = std::move(result.bounds);
            std::string bytes;
            EncodeResponse(resp, &bytes);
            Complete(conn, seq, std::move(bytes), rx_ns);
            EndWork();
          });
      break;
    }
    case MessageType::kError:
      // Response-only; DecodeRequest already rejected it, so this arm is
      // unreachable — kept for switch exhaustiveness.
      FailConnection(conn, MessageType::kError,
                     Status::InvalidArgument("not a request type"));
      break;
  }
}

template <typename Result>
void NetServer::DispatchBatch(
    const std::shared_ptr<Connection>& conn, uint64_t seq, MessageType type,
    size_t count,
    const std::function<runtime::QueryRequest(size_t)>& make_request,
    std::function<Result(runtime::QueryResponse&&)> extract,
    std::vector<Result> NetResponse::* results_field,
    runtime::TraceContextPtr trace, uint64_t rx_ns) {
  if (count == 0) {
    NetResponse header;
    header.type = type;
    header.snapshot_version = engine_->snapshot_version();
    std::string bytes;
    EncodeResponse(header, &bytes);
    Complete(conn, seq, std::move(bytes), rx_ns);
    if (trace) engine_->mutable_tracer()->Finish(*trace,
                                                 header.snapshot_version);
    return;
  }
  auto state = std::make_shared<FrameState<Result>>(count);
  BeginWork(count);
  for (size_t i = 0; i < count; ++i) {
    engine_->SubmitAsync(
        make_request(i), trace,
        [this, conn, seq, state, type, extract, results_field, trace, rx_ns,
         i](runtime::QueryResponse r) {
          RaiseVersion(&state->snapshot_version, r.snapshot_version);
          state->results[i] = extract(std::move(r));
          // acq_rel: the last decrementer acquires every slot write.
          if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            NetResponse resp;
            resp.type = type;
            resp.snapshot_version =
                state->snapshot_version.load(std::memory_order_relaxed);
            resp.*results_field = std::move(state->results);
            const uint64_t encode_t0 = trace ? runtime::NowNs() : 0;
            std::string bytes;
            EncodeResponse(resp, &bytes);
            if (trace) {
              trace->AddSpan("encode", -1, encode_t0, runtime::NowNs());
            }
            Complete(conn, seq, std::move(bytes), rx_ns);
            // The frame trace ends once its response is staged; the barrier
            // above ordered every sub-query's spans before this read.
            if (trace) {
              engine_->mutable_tracer()->Finish(*trace,
                                                resp.snapshot_version);
            }
          }
          EndWork();
        },
        rx_ns);
  }
}

void NetServer::DispatchSum(const std::shared_ptr<Connection>& conn,
                            uint64_t seq, NetRequest request,
                            runtime::TraceContextPtr trace, uint64_t rx_ns) {
  DispatchBatch<SumResult>(
      conn, seq, MessageType::kSum, request.facilities.size(),
      [&request](size_t i) {
        return runtime::QueryRequest::ServiceValue(request.facilities[i]);
      },
      [](runtime::QueryResponse&& r) {
        return SumResult{r.status.code(), r.value};
      },
      &NetResponse::sums, std::move(trace), rx_ns);
}

void NetServer::DispatchTopK(const std::shared_ptr<Connection>& conn,
                             uint64_t seq, NetRequest request,
                             runtime::TraceContextPtr trace, uint64_t rx_ns) {
  DispatchBatch<RankedResult>(
      conn, seq, MessageType::kTopK, request.ks.size(),
      [&request](size_t i) {
        return runtime::QueryRequest::TopK(request.ks[i]);
      },
      [](runtime::QueryResponse&& r) {
        return RankedResult{r.status.code(), std::move(r.ranked)};
      },
      &NetResponse::topks, std::move(trace), rx_ns);
}

void NetServer::FlushUpdates() {
  flush_deadline_ns_ = 0;  // everything parked is about to be applied
  if (pending_updates_.empty()) return;
  std::vector<PendingUpdate> pending;
  pending.swap(pending_updates_);

  runtime::UpdateBatch batch;
  std::vector<size_t> insert_counts;
  insert_counts.reserve(pending.size());
  for (PendingUpdate& p : pending) {
    insert_counts.push_back(p.inserts.size());
    for (auto& traj : p.inserts) batch.inserts.push_back(std::move(traj));
    batch.removes.insert(batch.removes.end(), p.removes.begin(),
                         p.removes.end());
  }
  // One forked publish for the whole batch (the --update-batch economics);
  // an all-empty batch skips the publish (and the coalescing accounting —
  // nothing was merged into a publish) but still answers every frame.
  std::vector<uint32_t> ids;
  const bool published = !batch.inserts.empty() || !batch.removes.empty();
  if (published) {
    ids = engine_->ApplyUpdates(batch);
    metrics_->AddNetBatchesCoalesced(pending.size() - 1);
  }
  const std::vector<uint64_t> generations = engine_->shard_generations();
  const uint64_t version = engine_->snapshot_version();
  size_t id_offset = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    NetResponse resp;
    resp.type = MessageType::kUpdate;
    resp.snapshot_version = version;
    resp.shard_generations = generations;
    resp.assigned_ids.assign(
        ids.begin() + static_cast<std::ptrdiff_t>(id_offset),
        ids.begin() + static_cast<std::ptrdiff_t>(id_offset +
                                                  insert_counts[i]));
    id_offset += insert_counts[i];
    std::string bytes;
    EncodeResponse(resp, &bytes);
    Complete(pending[i].conn, pending[i].seq, std::move(bytes),
             pending[i].rx_ns);
  }
}

void NetServer::Complete(const std::shared_ptr<Connection>& conn,
                         uint64_t seq, std::string frame_bytes,
                         uint64_t rx_ns) {
  // Decode-to-staged latency; writes drained later by the loop are not
  // counted (the histogram measures serving latency, not socket drain).
  if (rx_ns != 0) {
    const uint64_t now = runtime::NowNs();
    metrics_->RecordLatency(runtime::OpFamily::kNetFrame,
                            now > rx_ns ? now - rx_ns : 0);
  }
  // Responses honor the same frame cap requests do — a peer's assembler
  // would reject anything larger as unframeable. The request stays
  // answered (slot accounting intact), just with an error the client can
  // act on.
  if (frame_bytes.size() - kFrameHeaderBytes > options_.max_frame_bytes) {
    NetResponse err;
    err.type = MessageType::kError;
    err.status = Status::InvalidArgument(
        "response would exceed the frame cap (" +
        std::to_string(options_.max_frame_bytes) +
        " payload bytes) — split the request batch");
    frame_bytes.clear();
    EncodeResponse(err, &frame_bytes);
  }
  bool stage = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    TQ_CHECK(seq >= conn->base_seq &&
             seq - conn->base_seq < conn->fifo.size());
    Slot& slot = conn->fifo[seq - conn->base_seq];
    slot.ready = true;
    slot.bytes = std::move(frame_bytes);
    // Pump the ready prefix: pipelined responses leave in arrival order.
    uint64_t staged_bytes = 0;
    while (!conn->fifo.empty() && conn->fifo.front().ready) {
      staged_bytes += conn->fifo.front().bytes.size();
      conn->outbox += conn->fifo.front().bytes;
      conn->fifo.pop_front();
      ++conn->base_seq;
    }
    // A closed connection's outbox is never flushed (and was already
    // subtracted wholesale on close) — keep late completions off the gauge.
    if (!conn->closed) metrics_->AddNetOutboxBytes(staged_bytes);
    if (staged_bytes != 0 && !conn->closed && !conn->dirty) {
      conn->dirty = true;
      stage = true;
    }
  }
  if (stage) {
    {
      std::lock_guard<std::mutex> lock(dirty_mu_);
      dirty_.push_back(conn);
    }
    WakeLoop();
  }
}

void NetServer::FlushOutbox(const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  size_t backlog = 0;
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    conn->dirty = false;
    if (conn->closed) return;  // raced with a close; fd may be reused
    while (conn->out_off < conn->outbox.size()) {
      const ssize_t n = ::send(conn->fd, conn->outbox.data() + conn->out_off,
                               conn->outbox.size() - conn->out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        metrics_->AddNetBytesOut(static_cast<uint64_t>(n));
        metrics_->SubNetOutboxBytes(static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // The peer's receive path is full. Arm EPOLLOUT to finish the
        // drain, and let the watermarks decide whether to keep reading
        // from a connection that is sitting on this much backlog.
        if (!conn->want_write) {
          conn->want_write = true;
          UpdateInterest(conn.get());
        }
        backlog = conn->outbox.size() - conn->out_off;
        lock.unlock();
        ReconsiderPause(conn, backlog);
        return;
      }
      lock.unlock();
      CloseConnection(conn);  // peer went away mid-response
      return;
    }
    conn->outbox.clear();
    conn->out_off = 0;
    if (conn->want_write) {
      conn->want_write = false;
      UpdateInterest(conn.get());
    }
    close_now = conn->closing && conn->fifo.empty();
  }
  if (close_now) {
    CloseConnection(conn);
    return;
  }
  ReconsiderPause(conn, 0);  // fully drained: resume a paused connection
}

void NetServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    // Whatever was still queued will never be sent: take it off the gauge.
    metrics_->SubNetOutboxBytes(conn->outbox.size() - conn->out_off);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_.erase(conn->fd);
}

void NetServer::FailConnection(const std::shared_ptr<Connection>& conn,
                               MessageType type, Status status) {
  NetResponse resp;
  resp.type = type;
  resp.status = std::move(status);
  std::string bytes;
  EncodeResponse(resp, &bytes);
  Complete(conn, AllocSlot(conn.get()), std::move(bytes));
  conn->closing = true;  // everything already pipelined still gets answered
  UpdateInterest(conn.get());
}

void NetServer::UpdateInterest(Connection* conn) {
  epoll_event ev{};
  ev.events = (conn->closing || conn->paused ? 0u
                                             : static_cast<uint32_t>(EPOLLIN)) |
              (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::AnswerInline(const std::shared_ptr<Connection>& conn,
                             NetResponse&& resp, uint64_t rx_ns) {
  if (resp.snapshot_version == 0) {
    resp.snapshot_version = engine_->snapshot_version();
  }
  std::string bytes;
  EncodeResponse(resp, &bytes);
  Complete(conn, AllocSlot(conn.get()), std::move(bytes), rx_ns);
}

void NetServer::ReconsiderPause(const std::shared_ptr<Connection>& conn,
                                size_t backlog) {
  if (options_.outbox_high_bytes == 0) return;  // watermarks disabled
  if (!conn->paused && backlog >= options_.outbox_high_bytes) {
    // The peer has stopped draining: stop reading from it. Its already
    // pipelined frames keep completing into the outbox (bounded — the FIFO
    // holds only frames read before the pause), but no new frames enter.
    conn->paused = true;
    metrics_->AddNetPause();
    UpdateInterest(conn.get());
  } else if (conn->paused && backlog <= options_.outbox_low_bytes) {
    conn->paused = false;
    UpdateInterest(conn.get());
  }
}

void NetServer::BeginWork(size_t n) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_ += n;
  }
  queued_work_.fetch_add(n, std::memory_order_relaxed);
}

void NetServer::EndWork() {
  queued_work_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(inflight_mu_);
  if (--inflight_ == 0) inflight_cv_.notify_all();
}

}  // namespace tq::net
