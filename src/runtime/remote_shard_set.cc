#include "runtime/remote_shard_set.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/prune_plan.h"

namespace tq::runtime {

namespace {

constexpr char kWorkerSetFile[] = "workers.txt";

// Span names must have static storage duration (trace.h contract).
constexpr const char* kSpanRound1 = "rpc_round1";
constexpr const char* kSpanCoordinate = "coordinate";
constexpr const char* kSpanRound2 = "rpc_round2";
constexpr const char* kSpanScatter = "rpc_scatter";
constexpr const char* kSpanMerge = "merge";

}  // namespace

RemoteShardSet::RemoteShardSet(RemoteShardSetOptions options)
    : options_(std::move(options)),
      registry_(options_.heartbeat_timeout_ms),
      pool_(options_.num_threads, &metrics_) {
  for (const auto& [host, port] : options_.workers) {
    auto ch = std::make_unique<Channel>();
    ch->host = host;
    ch->port = port;
    ch->address = host + ":" + std::to_string(port);
    registry_.AddWorker(ch->address);
    channels_.push_back(std::move(ch));
  }
}

RemoteShardSet::~RemoteShardSet() { pool_.Drain(); }

Status RemoteShardSet::Connect() {
  TQ_CHECK(!connected_);
  if (channels_.empty()) {
    return Status::InvalidArgument("no worker endpoints configured");
  }
  uint64_t version = 0;
  std::vector<uint64_t> generations;
  for (size_t w = 0; w < channels_.size(); ++w) {
    Channel& ch = *channels_[w];
    auto client = std::make_unique<net::NetClient>();
    client->set_timeout_ms(options_.rpc_timeout_ms);
    Status st = client->Connect(ch.host, ch.port);
    if (!st.ok()) {
      return Status::IOError("worker " + ch.address + ": " + st.message());
    }
    st = RegisterWorker(w, client.get(), /*initial=*/w == 0);
    if (!st.ok()) {
      return Status(st.code(), "worker " + ch.address + ": " + st.message());
    }
    if (w == 0) generations.assign(num_shards_, 0);
    // An empty kUpdate publishes nothing but reports the worker's current
    // per-shard generations and snapshot version — the cheapest way to
    // learn the initial state without a dedicated frame type.
    net::NetResponse resp;
    st = client->Update({}, {}, &resp);
    if (st.ok() && !resp.status.ok()) st = resp.status;
    if (st.ok() && resp.shard_generations.size() != num_shards_) {
      st = Status::Internal("generation vector size mismatch");
    }
    if (!st.ok()) {
      return Status(st.code(), "worker " + ch.address + ": " + st.message());
    }
    for (uint32_t s = ch.owned_begin; s < ch.owned_end; ++s) {
      generations[s] = resp.shard_generations[s];
    }
    version = std::max(version, resp.snapshot_version);
    registry_.RecordRegistered(w, ch.owned_begin, ch.owned_end);
    ReleaseClient(w, std::move(client));
  }
  // The owned ranges must tile [0, num_shards) contiguously IN THE GIVEN
  // ORDER: summing workers in index order is then identical to summing
  // shards in ascending order, which is what bit-identity with the
  // single-process engine rests on.
  uint32_t expect = 0;
  for (size_t w = 0; w < channels_.size(); ++w) {
    const Channel& ch = *channels_[w];
    if (ch.owned_begin != expect || ch.owned_end <= ch.owned_begin) {
      return Status::InvalidArgument(
          "worker " + ch.address + " owns [" +
          std::to_string(ch.owned_begin) + ", " +
          std::to_string(ch.owned_end) + ") but the partition needs [" +
          std::to_string(expect) + ", ...): workers must be listed in "
          "ascending contiguous shard-range order");
    }
    expect = ch.owned_end;
  }
  if (expect != num_shards_) {
    return Status::InvalidArgument(
        "worker ranges cover [0, " + std::to_string(expect) + ") of " +
        std::to_string(num_shards_) + " shards");
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    snapshot_version_ = std::max(snapshot_version_, version);
    generations_ = std::move(generations);
  }
  connected_ = true;
  return Status::OK();
}

Status RemoteShardSet::RegisterWorker(size_t w, net::NetClient* client,
                                      bool initial) {
  net::NetResponse resp;
  TQ_RETURN_NOT_OK(client->Register(&resp));
  if (!resp.status.ok()) return resp.status;
  const net::WireWorkerInfo& info = resp.worker_info;
  if (info.num_shards == 0 || info.owned_end <= info.owned_begin ||
      info.owned_end > info.num_shards) {
    return Status::Internal("registration reported an empty shard range");
  }
  Channel& ch = *channels_[w];
  if (initial) {
    num_shards_ = info.num_shards;
    psi_ = info.psi;
    num_facilities_ = info.num_facilities;
    std::lock_guard<std::mutex> lock(state_mu_);
    users_total_ = info.users_total;
    snapshot_version_ = resp.snapshot_version;
  } else {
    // Geometry agreement: per-shard answers only compose when every worker
    // partitioned the SAME user set the same way. ψ is compared exactly —
    // it is a configured constant, not a computed value.
    uint64_t users_total;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      users_total = users_total_;
    }
    if (info.num_shards != num_shards_ || info.psi != psi_ ||
        info.num_facilities != num_facilities_ ||
        info.users_total != users_total) {
      return Status::InvalidArgument(
          "partition geometry disagrees with the cluster (num_shards/psi/"
          "num_facilities/users_total)");
    }
    if (ch.owned_end != 0 && (info.owned_begin != ch.owned_begin ||
                              info.owned_end != ch.owned_end)) {
      return Status::InvalidArgument("owned shard range changed across rejoin");
    }
  }
  ch.owned_begin = info.owned_begin;
  ch.owned_end = info.owned_end;
  return Status::OK();
}

std::unique_ptr<net::NetClient> RemoteShardSet::AcquireClient(size_t w) {
  Channel& ch = *channels_[w];
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    if (!ch.idle.empty()) {
      std::unique_ptr<net::NetClient> client = std::move(ch.idle.back());
      ch.idle.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<net::NetClient>();
  client->set_timeout_ms(options_.rpc_timeout_ms);
  if (!client->Connect(ch.host, ch.port).ok()) return nullptr;
  return client;
}

void RemoteShardSet::ReleaseClient(size_t w,
                                   std::unique_ptr<net::NetClient> client) {
  if (!client || !client->connected()) return;
  Channel& ch = *channels_[w];
  std::lock_guard<std::mutex> lock(ch.mu);
  ch.idle.push_back(std::move(client));
}

std::vector<size_t> RemoteShardSet::AliveWorkers() const {
  std::vector<size_t> alive;
  for (size_t w = 0; w < channels_.size(); ++w) {
    if (registry_.alive(w)) alive.push_back(w);
  }
  return alive;
}

void RemoteShardSet::MarkFailed(size_t w) {
  if (registry_.RecordFailure(w)) {
    metrics_.AddWorkerFailure();
    // Sockets pooled before the death are stale (the peer is gone or
    // restarted); drop them so a rejoin starts from fresh dials.
    std::lock_guard<std::mutex> lock(channels_[w]->mu);
    channels_[w]->idle.clear();
  }
}

bool RemoteShardSet::RunWave(
    std::vector<size_t>* parts,
    const std::function<net::NetRequest(size_t)>& make_request,
    const std::function<Status(size_t, net::NetResponse&&)>& consume) {
  struct Slot {
    size_t w = 0;
    std::unique_ptr<net::NetClient> client;
    uint64_t t0 = 0;
    bool sent = false;
  };
  std::vector<Slot> slots;
  slots.reserve(parts->size());
  metrics_.AddCoordRpcs(parts->size());
  // Scatter: send + flush to every participant before reading anyone's
  // answer, so the workers compute concurrently.
  for (size_t w : *parts) {
    Slot slot;
    slot.w = w;
    slot.client = AcquireClient(w);
    slot.t0 = NowNs();
    if (slot.client) {
      Status st = slot.client->Send(make_request(w));
      if (st.ok()) st = slot.client->Flush();
      if (st.ok()) {
        slot.sent = true;
      } else {
        slot.client.reset();
      }
    }
    slots.push_back(std::move(slot));
  }
  // Gather in ascending worker order (parts is ascending).
  std::vector<size_t> failed;
  for (Slot& slot : slots) {
    Status st = slot.sent ? Status::OK()
                          : Status::IOError("worker unreachable");
    if (st.ok()) {
      net::NetResponse resp;
      st = slot.client->Receive(&resp);
      if (st.ok()) {
        channels_[slot.w]->rtt.Record(NowNs() - slot.t0);
        st = consume(slot.w, std::move(resp));
      }
    }
    if (st.ok()) {
      registry_.RecordContact(slot.w);
      ReleaseClient(slot.w, std::move(slot.client));
    } else {
      MarkFailed(slot.w);
      failed.push_back(slot.w);
    }
  }
  if (failed.empty()) return false;
  parts->erase(std::remove_if(parts->begin(), parts->end(),
                              [&failed](size_t w) {
                                return std::find(failed.begin(), failed.end(),
                                                 w) != failed.end();
                              }),
               parts->end());
  return true;
}

Status RemoteShardSet::Rpc(size_t w,
                           const std::function<Status(net::NetClient*)>& fn,
                           uint64_t* rtt_ns) {
  std::unique_ptr<net::NetClient> client = AcquireClient(w);
  if (!client) {
    MarkFailed(w);
    return Status::IOError("worker " + channels_[w]->address +
                           " unreachable");
  }
  metrics_.AddCoordRpcs(1);
  const uint64_t t0 = NowNs();
  const Status st = fn(client.get());
  if (!st.ok()) {
    MarkFailed(w);
    return st;
  }
  const uint64_t rtt = NowNs() - t0;
  channels_[w]->rtt.Record(rtt);
  if (rtt_ns != nullptr) *rtt_ns = rtt;
  registry_.RecordContact(w);
  ReleaseClient(w, std::move(client));
  return st;
}

uint64_t RemoteShardSet::snapshot_version() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return snapshot_version_;
}

std::vector<uint64_t> RemoteShardSet::shard_generations() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return generations_;
}

EngineInfo RemoteShardSet::info() const {
  EngineInfo info;
  info.num_shards = num_shards_;
  info.owned_begin = 0;
  info.owned_end = num_shards_;  // the cluster as a whole owns every shard
  info.psi = psi_;
  info.num_facilities = num_facilities_;
  std::lock_guard<std::mutex> lock(state_mu_);
  info.users_total = users_total_;
  info.snapshot_version = snapshot_version_;
  return info;
}

std::vector<WorkerStatus> RemoteShardSet::Workers() const {
  const std::vector<WorkerRegistry::RowView> rows = registry_.Snapshot();
  std::vector<WorkerStatus> out;
  out.reserve(rows.size());
  for (size_t w = 0; w < rows.size(); ++w) {
    WorkerStatus s;
    s.address = rows[w].address;
    s.state = static_cast<uint8_t>(rows[w].state);
    s.owned_begin = rows[w].owned_begin;
    s.owned_end = rows[w].owned_end;
    s.heartbeats = rows[w].heartbeats;
    s.failures = rows[w].failures;
    s.age_ms = rows[w].age_ms;
    s.rtt = channels_[w]->rtt.Read();
    out.push_back(std::move(s));
  }
  return out;
}

void RemoteShardSet::SubmitAsync(QueryRequest request, TraceContextPtr trace,
                                 ResponseCallback done, uint64_t start_ns) {
  const bool topk = request.kind == QueryKind::kTopK;
  metrics_.AddQuery(topk);
  const uint64_t t0 =
      metrics_.latency_recording() ? (start_ns != 0 ? start_ns : NowNs()) : 0;
  const OpFamily family =
      topk ? OpFamily::kTopKQuery : OpFamily::kServiceQuery;
  if (topk && (request.k == 0 || num_facilities_ == 0)) {
    QueryResponse response;
    response.kind = QueryKind::kTopK;
    response.snapshot_version = snapshot_version();
    if (t0 != 0) metrics_.RecordLatency(family, NowNs() - t0);
    done(std::move(response));
    return;
  }
  pool_.Post([this, request, trace = std::move(trace),
              done = std::move(done), t0, family]() {
    QueryResponse response =
        request.kind == QueryKind::kServiceValue
            ? RunSum(request.facility, trace.get())
            : RunTopK(request.k, trace.get());
    if (t0 != 0) metrics_.RecordLatency(family, NowNs() - t0);
    done(std::move(response));
  });
}

void RemoteShardSet::MarkPartialIfDegraded(size_t answered,
                                           QueryResponse* response) {
  if (answered >= channels_.size()) return;
  metrics_.AddCoordPartial();
  if (response->status.ok()) {
    response->status = Status::Unavailable(
        "partial result: answered by " + std::to_string(answered) + " of " +
        std::to_string(channels_.size()) + " workers");
  }
}

QueryResponse RemoteShardSet::RunSum(FacilityId facility,
                                     TraceContext* trace) {
  QueryResponse response;
  response.kind = QueryKind::kServiceValue;
  response.snapshot_version = snapshot_version();
  if (facility >= num_facilities_) {
    response.status = Status::OutOfRange(
        "facility " + std::to_string(facility) + " >= " +
        std::to_string(num_facilities_));
    return response;
  }
  std::vector<size_t> parts = AliveWorkers();
  const size_t n = channels_.size();
  std::vector<double> values(n, 0.0);
  std::vector<uint8_t> answered(n, 0);
  uint64_t version = 0;
  Status query_status;  // first per-query (not transport) error, if any
  const uint64_t span0 = trace != nullptr ? NowNs() : 0;
  RunWave(
      &parts,
      [facility](size_t) {
        return net::NetRequest::Sum({facility});
      },
      [&](size_t w, net::NetResponse&& resp) -> Status {
        if (!resp.status.ok()) return resp.status;
        if (resp.sums.size() != 1) {
          return Status::Internal("sum frame answer-count mismatch");
        }
        if (resp.sums[0].code != StatusCode::kOk) {
          // The worker rejected the QUERY (not the transport): propagate
          // without scoring the worker dead.
          if (query_status.ok()) {
            query_status = Status(resp.sums[0].code,
                                  "worker rejected facility query");
          }
          return Status::OK();
        }
        values[w] = resp.sums[0].value;
        answered[w] = 1;
        version = std::max(version, resp.snapshot_version);
        return Status::OK();
      });
  if (trace != nullptr) trace->AddSpan(kSpanScatter, -1, span0, NowNs());
  if (!query_status.ok()) {
    response.status = query_status;
    return response;
  }
  // Ascending worker order == ascending shard order (Connect() verified the
  // tiling), so this sum is bit-identical to the single-process gather for
  // integer-valued models.
  double sum = 0.0;
  size_t count = 0;
  for (size_t w = 0; w < n; ++w) {
    if (answered[w] == 0) continue;
    sum += values[w];
    ++count;
  }
  response.value = sum;
  if (version != 0) response.snapshot_version = version;
  MarkPartialIfDegraded(count, &response);
  return response;
}

QueryResponse RemoteShardSet::RunTopK(size_t k, TraceContext* trace) {
  const size_t num_fac = num_facilities_;
  const size_t eff_k = std::min(k, num_fac);

  QueryResponse response;
  response.kind = QueryKind::kTopK;
  response.snapshot_version = snapshot_version();

  const size_t n = channels_.size();
  std::vector<size_t> parts = AliveWorkers();
  // Per-worker bound/exact state; only slots in `parts` are ever read, so a
  // worker dying mid-protocol implicitly drops its contribution.
  FacilityMatrix bounds(n);
  FacilityMatrix exact(n);
  KnownMatrix known(n);
  uint64_t version = 0;

  const uint64_t r1_t0 = trace != nullptr ? NowNs() : 0;
  RunWave(
      &parts,
      [eff_k](size_t) {
        return net::NetRequest::Bound(static_cast<uint32_t>(eff_k));
      },
      [&](size_t w, net::NetResponse&& resp) -> Status {
        if (!resp.status.ok()) return resp.status;
        if (resp.bounds.size() != num_fac) {
          return Status::Internal("bound sweep facility-count mismatch");
        }
        bounds[w] = std::move(resp.bounds);
        exact[w].assign(num_fac, 0.0);
        known[w].assign(num_fac, 0);
        // Current workers settle nothing in the sweep; a settled list from
        // an older worker is still exact, so it is still used.
        for (const auto& [f, value] : resp.bound_exacts) {
          if (f >= num_fac) {
            return Status::Internal("bound sweep exact id out of range");
          }
          exact[w][f] = value;
          known[w][f] = 1;
        }
        version = std::max(version, resp.snapshot_version);
        return Status::OK();
      });
  if (trace != nullptr) trace->AddSpan(kSpanRound1, -1, r1_t0, NowNs());

  // Refinement: plan the window over the CURRENT survivors and scatter one
  // wave for its unsettled slots until the window is settled. Each wave
  // settles at least one slot or loses at least one worker, so the loop
  // ends.
  for (;;) {
    if (parts.empty()) {
      response.status =
          Status::Unavailable("no workers available for top-k");
      metrics_.AddCoordPartial();
      return response;
    }
    const uint64_t co_t0 = trace != nullptr ? NowNs() : 0;
    // Plan over the survivors only (prune_plan.h); zero-bound slots are
    // settled there, so no worker is asked for a facility it cannot serve.
    const std::vector<uint32_t> window =
        PlanWindow(parts, bounds, &exact, &known, eff_k, num_fac);
    std::vector<std::vector<FacilityId>> need(n);
    std::vector<size_t> wave;
    for (size_t w : parts) {
      for (const uint32_t f : window) {
        if (known[w][f] == 0) need[w].push_back(f);
      }
      if (!need[w].empty()) wave.push_back(w);
    }
    if (trace != nullptr) trace->AddSpan(kSpanCoordinate, -1, co_t0, NowNs());
    if (wave.empty()) break;

    const uint64_t r2_t0 = trace != nullptr ? NowNs() : 0;
    const bool lost = RunWave(
        &wave,
        [&need](size_t w) { return net::NetRequest::Sum(need[w]); },
        [&](size_t w, net::NetResponse&& resp) -> Status {
          if (!resp.status.ok()) return resp.status;
          if (resp.sums.size() != need[w].size()) {
            return Status::Internal("refinement answer-count mismatch");
          }
          for (size_t i = 0; i < need[w].size(); ++i) {
            if (resp.sums[i].code != StatusCode::kOk) {
              return Status::Internal("refinement per-query error");
            }
            exact[w][need[w][i]] = resp.sums[i].value;
            known[w][need[w][i]] = 1;
          }
          version = std::max(version, resp.snapshot_version);
          return Status::OK();
        });
    if (trace != nullptr) trace->AddSpan(kSpanRound2, -1, r2_t0, NowNs());
    if (lost) {
      parts.erase(
          std::remove_if(parts.begin(), parts.end(),
                         [this](size_t w) { return !registry_.alive(w); }),
          parts.end());
    }
  }

  // Merge: a facility is complete when every survivor settled it. The
  // settled window is among them, and every other facility provably ranks
  // after it.
  const uint64_t mg_t0 = trace != nullptr ? NowNs() : 0;
  response.ranked =
      Rank(CompleteFacilities(parts, exact, known, num_fac), eff_k);
  if (version != 0) response.snapshot_version = version;
  if (trace != nullptr) trace->AddSpan(kSpanMerge, -1, mg_t0, NowNs());
  MarkPartialIfDegraded(parts.size(), &response);
  return response;
}

std::vector<uint32_t> RemoteShardSet::ApplyUpdates(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  // Global ids are assigned deterministically (dense append in arrival
  // order over the full user set), so the coordinator can compute them
  // without any worker — and every worker's echo must agree.
  uint64_t base;
  std::vector<uint64_t> merged;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    base = users_total_;
    merged = generations_;
  }
  std::vector<uint32_t> ids(batch.inserts.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>(base + i);
  }

  std::vector<size_t> parts = AliveWorkers();
  uint64_t version = 0;
  RunWave(
      &parts,
      [&batch](size_t) {
        return net::NetRequest::Update(batch.inserts, batch.removes);
      },
      [&](size_t w, net::NetResponse&& resp) -> Status {
        if (!resp.status.ok()) return resp.status;
        if (resp.assigned_ids != ids) {
          return Status::Internal("assigned-id divergence");
        }
        if (resp.shard_generations.size() != num_shards_) {
          return Status::Internal("generation vector size mismatch");
        }
        const Channel& ch = *channels_[w];
        for (uint32_t s = ch.owned_begin; s < ch.owned_end; ++s) {
          merged[s] = resp.shard_generations[s];
        }
        version = std::max(version, resp.snapshot_version);
        return Status::OK();
      });
  metrics_.AddInserted(ids.size());
  metrics_.AddRemoved(batch.removes.size());
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    users_total_ = base + ids.size();
    generations_ = std::move(merged);
    snapshot_version_ = std::max(snapshot_version_, version);
  }
  return ids;
}

void RemoteShardSet::TopKBoundSweepAsync(BoundSweepCallback done) {
  BoundSweepResult result;
  result.status =
      Status::Unimplemented("coordinators do not serve bound sweeps");
  result.snapshot_version = snapshot_version();
  done(std::move(result));
}

void RemoteShardSet::Tick() {
  if (!connected_) return;
  if (heartbeat_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  pool_.Post([this]() { HeartbeatPass(); });
}

void RemoteShardSet::HeartbeatPass() {
  for (size_t w = 0; w < channels_.size(); ++w) {
    if (registry_.alive(w)) {
      const uint64_t seq =
          heartbeat_seq_.fetch_add(1, std::memory_order_relaxed);
      metrics_.AddHeartbeatsSent(1);
      uint64_t rtt = 0;
      const Status st = Rpc(
          w,
          [seq](net::NetClient* client) -> Status {
            net::NetResponse resp;
            TQ_RETURN_NOT_OK(client->Heartbeat(seq, &resp));
            if (!resp.status.ok()) return resp.status;
            if (resp.heartbeat_seq != seq) {
              return Status::Internal("heartbeat sequence echo mismatch");
            }
            return Status::OK();
          },
          &rtt);
      if (st.ok()) registry_.RecordHeartbeat(w, rtt);
    } else {
      // Dead worker: attempt a rejoin. Fresh dial (the pool was cleared on
      // death), full re-registration so the geometry is re-verified — a
      // restarted worker that missed updates reports a stale users_total
      // and is refused until it is rebuilt consistently.
      auto client = std::make_unique<net::NetClient>();
      client->set_timeout_ms(options_.rpc_timeout_ms);
      if (!client->Connect(channels_[w]->host, channels_[w]->port).ok()) {
        continue;
      }
      if (RegisterWorker(w, client.get(), /*initial=*/false).ok()) {
        registry_.RecordRegistered(w, channels_[w]->owned_begin,
                                   channels_[w]->owned_end);
        ReleaseClient(w, std::move(client));
      }
    }
  }
  for (size_t w : registry_.CheckTimeouts()) {
    metrics_.AddWorkerFailure();
    std::lock_guard<std::mutex> lock(channels_[w]->mu);
    channels_[w]->idle.clear();
  }
  heartbeat_inflight_.store(false, std::memory_order_release);
}

Status RemoteShardSet::SaveWorkerSet(
    const std::string& data_dir,
    const std::vector<std::pair<std::string, uint16_t>>& workers) {
  if (::mkdir(data_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + data_dir + ": " +
                           std::strerror(errno));
  }
  const std::string path = data_dir + "/" + kWorkerSetFile;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("open " + tmp + ": " + std::strerror(errno));
  }
  for (const auto& [host, port] : workers) {
    std::fprintf(f, "%s:%u\n", host.c_str(), port);
  }
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("write " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status RemoteShardSet::LoadWorkerSet(
    const std::string& data_dir,
    std::vector<std::pair<std::string, uint16_t>>* workers) {
  const std::string path = data_dir + "/" + kWorkerSetFile;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("no saved worker set at " + path);
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string endpoint(line);
    while (!endpoint.empty() &&
           (endpoint.back() == '\n' || endpoint.back() == '\r')) {
      endpoint.pop_back();
    }
    if (endpoint.empty()) continue;
    const size_t colon = endpoint.rfind(':');
    unsigned long port = 0;
    if (colon == 0 || colon == std::string::npos ||
        colon + 1 == endpoint.size()) {
      std::fclose(f);
      return Status::IOError("bad worker endpoint '" + endpoint + "' in " +
                             path);
    }
    const std::string digits = endpoint.substr(colon + 1);
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        std::fclose(f);
        return Status::IOError("bad worker endpoint '" + endpoint +
                               "' in " + path);
      }
    }
    port = std::strtoul(digits.c_str(), nullptr, 10);
    if (port == 0 || port > 65535) {
      std::fclose(f);
      return Status::IOError("bad worker endpoint '" + endpoint + "' in " +
                             path);
    }
    workers->emplace_back(endpoint.substr(0, colon),
                          static_cast<uint16_t>(port));
  }
  std::fclose(f);
  return Status::OK();
}

}  // namespace tq::runtime
