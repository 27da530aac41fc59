// net_mixed — writes beside reads over two loopback connections into a
// durable engine: NetServer (default options) over a 4-shard, 2-thread
// ShardedEngine with wal_sync=always (an update is acknowledged after
// fsync) and a checkpoint every 5 s. 75 % sum frames (1 facility,
// uniform), 10 % top-k frames (k in {1, 4, 8}), 15 % update frames (4
// inserts from a held-out check-in set, 4 removes of live global ids).
// Each publish invalidates the shards it touches, so the result cache is
// mostly bypassed although its working set (128 x 4 entries) fits: the
// opposite of engine_zipf. Exercises net/, the forked path-copy publish,
// the WAL and checkpoints.
//
// Load: two connections, each a closed loop with one frame in flight on its
// own client thread: reads (sum and top-k) on one, updates on the other. So
// reads run while a publish is being logged and applied, as they would with
// one reading and one writing client. Both threads take the mix's cards in
// deck order; a card waits until its connection's previous frame has been
// answered, which keeps the mix exact. Pipelining reads on one connection
// instead queued sum frames behind 80 ms top-k frames, and an open loop at
// a fixed rate mostly measured the generator's wake-ups on 2 cores.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <condition_variable>
#include <cstdlib>  // mkdtemp
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/sharded_engine.h"
#include "workloads.h"

namespace tq::bl {
namespace {

constexpr size_t kMaxFrames = 16384;
constexpr size_t kHeldOut = 4096;
constexpr size_t kPerUpdate = 4;
constexpr uint64_t kCheckpointMs = 5000;
const std::vector<uint32_t> kFinalKs = {1, 4, 8};

/// The benchmark's model of the engine's live users: the engine assigns
/// global ids densely in insertion order, and only this benchmark writes, so
/// every id and every removal is known before the frame is sent.
class UpdateStream {
 public:
  struct Plan {
    std::vector<uint32_t> held;     // held-out rows inserted
    std::vector<uint32_t> removes;  // global ids removed
    std::vector<uint32_t> ids;      // ids the inserts must be assigned
  };

  UpdateStream(const TrajectorySet* held, size_t initial_users, uint64_t seed)
      : held_(held), initial_(initial_users), rng_(seed) {
    for (uint32_t g = 0; g < initial_users; ++g) live_.push_back(g);
  }

  Plan Next() {
    Plan plan;
    for (size_t i = 0; i < kPerUpdate; ++i) {
      const size_t r = rng_.NextBelow(live_.size());
      plan.removes.push_back(live_[r]);
      live_[r] = live_.back();
      live_.pop_back();
    }
    for (size_t i = 0; i < kPerUpdate; ++i) {
      const auto row = static_cast<uint32_t>(cursor_++ % held_->size());
      const auto id = static_cast<uint32_t>(initial_ + held_of_id_.size());
      held_of_id_.push_back(row);
      plan.held.push_back(row);
      plan.ids.push_back(id);
      live_.push_back(id);
    }
    return plan;
  }

  net::NetRequest Frame(const Plan& plan) const {
    std::vector<std::vector<Point>> inserts;
    for (const uint32_t row : plan.held) {
      const auto pts = held_->points(row);
      inserts.emplace_back(pts.begin(), pts.end());
    }
    return net::NetRequest::Update(std::move(inserts), plan.removes);
  }

  /// Applies `plan` to an oracle value vector.
  void Apply(const Plan& plan, const ContributionTable& base,
             const ContributionTable& held, std::vector<double>* so) const {
    for (const uint32_t row : plan.held) held.AddTo(row, 1.0, so);
    for (const uint32_t g : plan.removes) {
      if (g < initial_) {
        base.AddTo(g, -1.0, so);
      } else {
        held.AddTo(held_of_id_[g - initial_], -1.0, so);
      }
    }
  }

 private:
  const TrajectorySet* held_;
  size_t initial_;
  Rng rng_;
  std::vector<uint32_t> live_;
  std::vector<uint32_t> held_of_id_;  // global id - initial -> held row
  size_t cursor_ = 0;
};

struct Frame {
  Op op = kSO;
  uint32_t arg = 0;  // facility (sum) or k (top-k)
  size_t plan = 0;   // update plan index
  std::string bytes;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;  // 0 = unanswered
  net::NetResponse response;
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 30;  // a stuck server fails the run instead of hanging it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads the next response frame off a blocking socket; false on EOF,
/// timeout or a frame that does not decode.
bool ReadResponse(int fd, net::FrameAssembler* assembler,
                  net::NetResponse* out) {
  std::string payload;
  net::FrameAssembler::Result r;
  while ((r = assembler->Next(&payload)) ==
         net::FrameAssembler::Result::kNeedMore) {
    char buf[64 << 10];
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) return false;
    assembler->Feed(buf, static_cast<size_t>(got));
  }
  return r == net::FrameAssembler::Result::kFrame &&
         net::DecodeResponse(payload, out).ok();
}

bool SameAnswer(const runtime::QueryResponse& a,
                const runtime::QueryResponse& b) {
  if (a.status.ok() != b.status.ok() || a.value != b.value ||
      a.ranked.size() != b.ranked.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].id != b.ranked[i].id ||
        a.ranked[i].value != b.ranked[i].value) {
      return false;
    }
  }
  return true;
}

std::vector<runtime::QueryResponse> InProcessAnswers(
    runtime::ShardedEngine& engine, size_t nf) {
  std::vector<runtime::QueryResponse> out;
  for (uint32_t f = 0; f < nf; ++f) {
    out.push_back(Call(engine, runtime::QueryRequest::ServiceValue(f)));
  }
  for (const uint32_t k : kFinalKs) {
    out.push_back(Call(engine, runtime::QueryRequest::TopK(k)));
  }
  return out;
}

/// One durable deployment: data dir, engine, front-end.
struct Deployment {
  std::string dir;
  std::unique_ptr<runtime::ShardedEngine> engine;
  std::unique_ptr<net::NetServer> server;

  ~Deployment() { Stop(); }
  void Stop() {
    if (server) server->Stop();
    server.reset();
    engine.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir.clear();
  }
};

}  // namespace

WorkloadResult RunNetMixed(const RunConfig& config, SpanLog* spans) {
  WorkloadResult result;
  const std::unique_ptr<Dataset> data = NyfDataset(kRoutes);
  const size_t nf = data->facilities.size();
  CheckinOptions held_options;
  held_options.num_trajectories = kHeldOut;
  held_options.seed = config.SubSeed(7);
  const TrajectorySet held =
      GenerateCheckins(presets::NewYork(), held_options);
  const ServiceOracle oracle(data->facilities, kPsi, data->oracle_model);
  const ContributionTable base_table = oracle.Contributions(data->users);
  const ContributionTable held_table = oracle.Contributions(held);
  std::vector<double> initial_so(nf, 0.0);
  for (uint32_t u = 0; u < data->users.size(); ++u) {
    base_table.AddTo(u, 1.0, &initial_so);
  }
  Checker checker;

  runtime::ShardedEngineOptions options;
  options.num_shards = 4;
  options.num_threads = 2;
  options.tree = TreeOptions(data->model);
  options.durability.checkpoint_interval_ms = kCheckpointMs;

  // Oracle values by snapshot version, filled in as updates are accounted.
  std::map<uint64_t, std::vector<double>> so_at;
  std::vector<UpdateStream::Plan> plans;
  std::vector<uint64_t> plan_versions;
  std::unique_ptr<UpdateStream> stream;
  Deployment dep;
  for (size_t rep = 0; rep < config.setup_reps(); ++rep) {
    dep.Stop();
    std::string tmpl = config.tmpdir + "/net_mixed-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::fprintf(stderr, "net_mixed: cannot create a data dir in %s\n",
                   config.tmpdir.c_str());
      result.wrong = 1;  // no deployment, no numbers
      return result;
    }
    // The engine demands a virgin data dir: hand it a fresh child.
    dep.dir = tmpl;
    options.durability.data_dir = tmpl + "/data";
    stream = std::make_unique<UpdateStream>(&held, data->users.size(),
                                            config.SubSeed(8));
    plans.assign(1, stream->Next());

    const uint64_t t0 = runtime::NowNs();
    dep.engine = std::make_unique<runtime::ShardedEngine>(
        data->users, data->facilities, options);
    const uint64_t initial_version = dep.engine->snapshot_version();
    dep.server = std::make_unique<net::NetServer>(dep.engine.get(),
                                                  net::NetServerOptions{});
    const Status started = dep.server->Start();
    const uint64_t t1 = runtime::NowNs();
    net::NetClient client;
    net::NetResponse sum, top, upd;
    const bool ok = started.ok() &&
                    client.Connect("127.0.0.1", dep.server->port()).ok() &&
                    client.Sum({0}, &sum).ok() && client.TopK({8}, &top).ok();
    const uint64_t t2 = runtime::NowNs();
    const net::NetRequest frame = stream->Frame(plans[0]);
    const bool updated =
        ok && client.Update(frame.inserts, frame.removes, &upd).ok();
    const uint64_t t3 = runtime::NowNs();
    result.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    const int64_t root = spans->Add("setup", rep, -1, t0, t3);
    spans->Add("build_and_listen", rep, root, t0, t1);
    spans->Add("first_reads", rep, root, t1, t2);
    spans->Add("first_update", rep, root, t2, t3);
    const bool answered = updated && sum.status.ok() && top.status.ok() &&
                          upd.status.ok() && sum.sums.size() == 1 &&
                          top.topks.size() == 1;
    checker.Expect(answered, "net_mixed set-up frames answered", 0, 1);
    if (!answered) break;
    so_at = {{initial_version, initial_so}};
    checker.Expect(sum.snapshot_version == initial_version &&
                       Checker::Close(sum.sums[0].value, initial_so[0]),
                   "net_mixed set-up SO", sum.sums[0].value, initial_so[0]);
    CheckTopK(top.topks[0].ranked, initial_so, 8, /*exact=*/false,
              &checker);
    checker.Expect(upd.assigned_ids == plans[0].ids,
                   "net_mixed set-up update ids",
                   upd.assigned_ids.empty() ? -1.0 : upd.assigned_ids[0],
                   plans[0].ids[0]);
    plan_versions.assign(1, upd.snapshot_version);
  }
  if (checker.failures() > 0) {
    result.wrong = checker.failures();
    return result;
  }

  // The mix: 15 sum, 2 top-k and 3 update frames in every 20.
  std::vector<uint32_t> cards(15, kSO);
  cards.insert(cards.end(), 2, kTopK);
  cards.insert(cards.end(), 3, kUpdate);
  Deck mix(cards, config.SubSeed(1));
  Deck ks({1, 4, 8}, config.SubSeed(2));
  Rng facilities(config.SubSeed(3));
  std::vector<Frame> frames(kMaxFrames);

  // Two connections, one client thread each: reads on connection 0, updates
  // on connection 1. Cards are dealt in deck order: frame `next` is built
  // ahead and taken by the thread of its connection once that thread's
  // previous frame is answered. Warm-up and window each end on a mix
  // boundary, so the window holds exact shares.
  const std::array<int, 2> fds = {ConnectLoopback(dep.server->port()),
                                  ConnectLoopback(dep.server->port())};
  checker.Expect(fds[0] >= 0 && fds[1] >= 0, "net_mixed connects", fds[0],
                 fds[1]);
  std::mutex mu;
  std::condition_variable cv;
  size_t next = 0;     // guarded by mu: the frame dealt next, already built
  bool stop = false;   // guarded by mu: no more frames are taken
  bool measuring = false;
  size_t window_first = 0, window_end = 0;
  runtime::MetricsView at_window;
  const uint64_t t_start = runtime::NowNs();
  const uint64_t t_window =
      t_start + static_cast<uint64_t>((config.smoke ? 0.5 : 2.0) * 1e9);
  const uint64_t t_end =
      t_window + static_cast<uint64_t>(config.window_s() * 1e9);
  // Builds frame `next` from the next card, or stops at a mix boundary past
  // the window's end. Called with `mu` held.
  const auto deal = [&]() {
    const uint64_t now = runtime::NowNs();
    if (next == kMaxFrames || (mix.AtBoundary() && now >= t_end)) {
      stop = true;
      window_end = measuring ? next : window_first;
      return;
    }
    if (!measuring && mix.AtBoundary() && now >= t_window) {
      measuring = true;
      window_first = next;
      at_window = dep.engine->metrics().Read();
    }
    Frame& f = frames[next];
    f.op = static_cast<Op>(mix.Next());
    net::NetRequest request;
    if (f.op == kSO) {
      f.arg = static_cast<uint32_t>(facilities.NextBelow(nf));
      request = net::NetRequest::Sum({f.arg});
    } else if (f.op == kTopK) {
      f.arg = ks.Next();
      request = net::NetRequest::TopK({f.arg});
    } else {
      f.plan = plans.size();
      plans.push_back(stream->Next());
      request = stream->Frame(plans.back());
    }
    net::EncodeRequest(request, &f.bytes);
  };
  const auto client = [&](size_t conn) {
    const int fd = fds[conn];
    net::FrameAssembler assembler;
    while (true) {
      size_t i;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return stop || (frames[next].op == kUpdate) == (conn == 1);
        });
        if (stop) break;
        i = next++;
        deal();
      }
      cv.notify_all();
      Frame& f = frames[i];
      f.sent_ns = runtime::NowNs();
      // A closed, timed-out or garbled stream leaves the frame unanswered
      // and ends the run.
      if (!WriteAll(fd, f.bytes) ||
          !ReadResponse(fd, &assembler, &f.response)) {
        std::lock_guard<std::mutex> lock(mu);
        if (!stop) {
          stop = true;
          window_end = measuring ? next : window_first;
        }
        break;
      }
      f.done_ns = runtime::NowNs();
    }
    cv.notify_all();
  };
  if (fds[0] >= 0 && fds[1] >= 0) {
    {
      std::lock_guard<std::mutex> lock(mu);
      deal();
    }
    std::thread reader(client, 0);
    std::thread writer(client, 1);
    reader.join();
    writer.join();
  }
  for (const int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  const runtime::MetricsView at_end = dep.engine->metrics().Read();
  frames.resize(next);

  // Oracle values at every version the updates produced. Plans apply in
  // send order, the order one connection's update frames publish in.
  plan_versions.resize(plans.size(), 0);
  for (const Frame& f : frames) {
    if (f.op == kUpdate && f.done_ns != 0 && f.response.status.ok()) {
      plan_versions[f.plan] = f.response.snapshot_version;
    }
  }
  std::vector<double> so = initial_so;
  for (size_t p = 0; p < plans.size(); ++p) {
    stream->Apply(plans[p], base_table, held_table, &so);
    if (plan_versions[p] != 0) so_at[plan_versions[p]] = so;
  }

  const auto values_at = [&](uint64_t version) -> const std::vector<double>* {
    const auto it = so_at.find(version);
    return it == so_at.end() ? nullptr : &it->second;
  };
  uint64_t last_done = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    const net::NetResponse& r = f.response;
    const bool answered = f.done_ns != 0 && r.status.ok();
    if (answered) {
      const std::vector<double>* want = values_at(r.snapshot_version);
      checker.Expect(want != nullptr, "net_mixed answer version known",
                     static_cast<double>(r.snapshot_version), 0);
      if (want != nullptr && f.op == kSO) {
        checker.Expect(r.sums.size() == 1 &&
                           r.sums[0].code == StatusCode::kOk &&
                           Checker::Close(r.sums[0].value, (*want)[f.arg]),
                       "net_mixed SO", r.sums.empty() ? -1 : r.sums[0].value,
                       (*want)[f.arg]);
      } else if (want != nullptr && f.op == kTopK && r.topks.size() == 1) {
        CheckTopK(r.topks[0].ranked, *want, f.arg, /*exact=*/false, &checker);
      } else if (f.op == kUpdate) {
        checker.Expect(r.assigned_ids == plans[f.plan].ids,
                       "net_mixed update ids",
                       r.assigned_ids.empty() ? -1.0 : r.assigned_ids[0],
                       plans[f.plan].ids[0]);
      }
    }
    const uint64_t end_ns = f.done_ns != 0 ? f.done_ns : f.sent_ns;
    if (spans->enabled() && i % 2 == 0) {
      spans->Add(OpName(f.op), i, -1, f.sent_ns, end_ns);
    }
    if (i < window_first || i >= window_end) continue;
    ++result.attempted;
    if (!answered) {
      ++result.failed;
      continue;
    }
    last_done = std::max(last_done, f.done_ns);
    const double ms = static_cast<double>(f.done_ns - f.sent_ns) / 1e6;
    result.latency_ms[f.op].push_back(ms);
    if (f.op == kSO && spans->enabled()) {
      (i % 2 == 0 ? result.so_traced_ms : result.so_untraced_ms).push_back(ms);
    }
  }
  if (last_done > 0) {
    result.window_s =
        static_cast<double>(last_done - frames[window_first].sent_ns) / 1e9;
  }
  // Share of the window's reads that were in flight while an update was:
  // the update connection has one frame in flight, so its intervals are
  // disjoint and in send order.
  std::vector<std::pair<uint64_t, uint64_t>> publishing;
  for (size_t i = window_first; i < window_end; ++i) {
    if (frames[i].op == kUpdate && frames[i].done_ns != 0) {
      publishing.emplace_back(frames[i].sent_ns, frames[i].done_ns);
    }
  }
  size_t reads = 0, overlapped = 0;
  for (size_t i = window_first; i < window_end; ++i) {
    const Frame& f = frames[i];
    if (f.op == kUpdate || f.done_ns == 0) continue;
    ++reads;
    const auto it = std::lower_bound(
        publishing.begin(), publishing.end(),
        std::make_pair(f.done_ns, uint64_t{0}));
    overlapped += it != publishing.begin() && std::prev(it)->second > f.sent_ns;
  }
  result.facts.emplace_back("reads_during_update",
                            Ratio(static_cast<double>(overlapped),
                                  static_cast<double>(reads)));

  // Final state over the wire against the oracle, then recovery: answers
  // after ShardedEngine::Recover must be bit-identical to those before.
  {
    net::NetClient client;
    net::NetResponse sums, tops;
    std::vector<FacilityId> all(nf);
    for (uint32_t f = 0; f < nf; ++f) all[f] = f;
    const bool ok = client.Connect("127.0.0.1", dep.server->port()).ok() &&
                    client.Sum(all, &sums).ok() &&
                    client.TopK(kFinalKs, &tops).ok();
    const std::vector<double>* want =
        ok ? values_at(sums.snapshot_version) : nullptr;
    checker.Expect(want != nullptr && sums.sums.size() == nf &&
                       tops.topks.size() == kFinalKs.size(),
                   "net_mixed final state answered", 0, 1);
    if (want != nullptr && sums.sums.size() == nf &&
        tops.topks.size() == kFinalKs.size()) {
      for (uint32_t f = 0; f < nf; ++f) {
        checker.Expect(Checker::Close(sums.sums[f].value, (*want)[f]),
                       "net_mixed final SO", sums.sums[f].value, (*want)[f]);
      }
      for (size_t i = 0; i < kFinalKs.size(); ++i) {
        CheckTopK(tops.topks[i].ranked, *values_at(tops.snapshot_version),
                  kFinalKs[i], /*exact=*/false, &checker);
      }
    }
    client.Close();

    const std::vector<runtime::Trace> engine_traces =
        dep.engine->tracer().Recent(128);
    const std::vector<runtime::QueryResponse> before =
        InProcessAnswers(*dep.engine, nf);
    dep.server->Stop();
    dep.server.reset();
    dep.engine.reset();
    const uint64_t r0 = runtime::NowNs();
    auto recovered = runtime::ShardedEngine::Recover(options);
    const uint64_t r1 = runtime::NowNs();
    checker.Expect(recovered.ok(), "net_mixed recovery", 0, 1);
    if (recovered.ok()) {
      const std::vector<runtime::QueryResponse> after =
          InProcessAnswers(**recovered, nf);
      for (size_t i = 0; i < before.size(); ++i) {
        checker.Expect(SameAnswer(before[i], after[i]),
                       "net_mixed answer bit-identical after recovery",
                       after[i].value, before[i].value);
      }
    }
    result.facts.emplace_back("recovery_ms",
                              static_cast<double>(r1 - r0) / 1e6);
    const WindowDelta delta(at_window, at_end);
    AddDeploymentLayerMetrics(delta, engine_traces,
                              static_cast<double>(result.attempted),
                              &result.layer);
    RecordEngine(spans, "engine", engine_traces, delta, at_end);
    // Shed frames were answered kOverloaded and already count as failed.
  }
  dep.Stop();
  result.checked = checker.checked();
  result.wrong = checker.failures();
  return result;
}

}  // namespace tq::bl
