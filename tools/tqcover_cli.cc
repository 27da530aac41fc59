// tqcover command-line tool: generate workloads, inspect datasets, and run
// kMaxRRST / MaxkCovRST queries on CSV or binary trajectory files without
// writing any C++.
//
//   tqcover_cli generate --preset nyt --n 100000 --out trips.bin
//   tqcover_cli generate --preset nybus --n 128 --stops 64 --out routes.bin
//   tqcover_cli stats    --in trips.bin
//   tqcover_cli topk     --users trips.bin --facilities routes.bin --k 8
//   tqcover_cli cover    --users trips.bin --facilities routes.bin --k 8
//   tqcover_cli serve    --users trips.bin --facilities routes.bin
//                        --threads 4 --queries 2000   # concurrent runtime
//   tqcover_cli serve    ... --shards 8   # scatter/gather over 8 shards
//   tqcover_cli serve    ... --listen 7070   # TCP front-end (net/server.h)
//   tqcover_cli stats 127.0.0.1:7070         # scrape a live server's
//                                            # metrics/histograms/traces
//   tqcover_cli query 127.0.0.1:7070 --sums 500 --topks 20   # drive traffic
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "cover/genetic.h"
#include "cover/greedy.h"
#include "datagen/presets.h"
#include "net/client.h"
#include "net/server.h"
#include "query/baseline.h"
#include "query/topk.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "traj/io.h"
#include "traj/stats.h"

namespace {

using tq::Status;

// Whole-string unsigned decimal parse: no sign, no trailing characters, no
// overflow.
bool ParseSize(const std::string& s, size_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  *out = static_cast<size_t>(v);
  return true;
}

// A malformed flag value is a usage error: report it and exit 2 rather than
// throw from a parser or fall back to a default that changes the answers.
[[noreturn]] void BadFlag(const std::string& key, const std::string& value) {
  std::fprintf(stderr, "bad --%s '%s'\n", key.c_str(), value.c_str());
  std::exit(2);
}

struct Args {
  std::string command;
  std::string target;  // optional positional HOST:PORT after the command
  std::map<std::string, std::string> kv;

  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  size_t GetSize(const std::string& key, size_t def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    size_t v = 0;
    if (!ParseSize(it->second, &v)) BadFlag(key, it->second);
    return v;
  }
  double GetDouble(const std::string& key, double def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
      BadFlag(key, it->second);
    }
    return v;
  }
};

// The value of flag `key`, which must be one of `allowed` (the first is the
// default).
std::string GetChoice(const Args& args, const std::string& key,
                      std::initializer_list<std::string_view> allowed) {
  const std::string v = args.Get(key, std::string(*allowed.begin()));
  for (const std::string_view a : allowed) {
    if (v == a) return v;
  }
  BadFlag(key, v);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tqcover_cli <command> [--key value ...]\n"
      "commands:\n"
      "  generate --preset nyt|nyf|bjg|nybus|bjbus --n N [--stops S]\n"
      "           --out FILE    # .bin: packed binary; else CSV\n"
      "  stats    --in FILE            # dataset statistics, or:\n"
      "  stats    HOST:PORT [--traces N]   # scrape a live server's\n"
      "           metrics, per-op latency histograms, and recent traces\n"
      "  query    HOST:PORT [--sums N] [--topks M] [--k 8] [--batch 16]\n"
      "           [--facility-range 8]   # drive sync traffic at a server\n"
      "           [--dump FILE]  # write every answer as hex-float lines\n"
      "                          # (byte-diffable across processes)\n"
      "           [--updates N [--update-size 4] [--update-removes 0]\n"
      "            [--update-remove-start 0]]  # N acked kUpdate frames\n"
      "                          # first: synthetic inserts + sequential\n"
      "                          # id removes (crash-recovery CI traffic)\n"
      "  flood    HOST:PORT [--frames 2000] [--batch 256] [--topk 0]\n"
      "           [--facility-range 8] [--stall-ms 0] [--rcvbuf-kb 16]\n"
      "                          # ADVERSARIAL client: pipeline every frame\n"
      "                          # without reading, stonewall --stall-ms,\n"
      "                          # then drain; exit 0 iff every frame got a\n"
      "                          # well-formed answer (served or shed)\n"
      "  status   HOST:PORT     # a serving process's identity, and (on a\n"
      "           coordinator) the per-worker liveness/RTT table\n"
      "  topk     --users FILE --facilities FILE [--k 8] [--psi 200]\n"
      "           [--scenario endpoints|points|length] [--method tqz|tqb|bl|blr]\n"
      "           [--mode whole|segmented] [--beta 64]\n"
      "  cover    --users FILE --facilities FILE [--k 8] [--psi 200]\n"
      "           [--scenario ...] [--solver greedy|genetic|baseline]\n"
      "  serve    --users FILE --facilities FILE [--threads 4] [--shards 1]\n"
      "           [--queries 1000] [--topk-every 0] [--k 8] [--psi 200]\n"
      "           [--scenario ...] [--cache 4096]\n"
      "           [--updates 0] [--update-size 64] [--update-batch 1]\n"
      "           [--listen PORT [--duration S]]  # serve the binary TCP\n"
      "                         # protocol (docs/PROTOCOL.md) instead of a\n"
      "                         # local query loop; 0 = ephemeral port;\n"
      "                         # runs S seconds (default: until SIGINT)\n"
      "           [--max-outbox-kb KB]  # with --listen: per-connection\n"
      "                         # response-backlog high watermark (default\n"
      "                         # 4096, resume at half; 0 = unbounded) — at\n"
      "                         # KB staged bytes the server stops reading\n"
      "                         # that connection until the peer drains\n"
      "           [--max-queued N]  # with --listen: answer read queries\n"
      "                         # with in-protocol kOverloaded once N\n"
      "                         # engine calls are queued (0 = never shed,\n"
      "                         # the default)\n"
      "           [--worker LO:HI]  # with --listen and --shards N: own only\n"
      "                         # the Z-order shard range [LO, HI) of the\n"
      "                         # N-way partition (a shard-worker process)\n"
      "           [--data-dir DIR]  # durable serving: WAL every update\n"
      "                         # batch, recover from DIR's checkpoint on\n"
      "                         # restart (docs/DURABILITY.md)\n"
      "           [--wal-sync always|batch|off] [--checkpoint-interval-ms 0]\n"
      "  serve    --coordinator --workers HOST:PORT,... --listen PORT\n"
      "           [--rpc-timeout-ms 2000] [--heartbeat-ms 1000]\n"
      "           [--heartbeat-timeout-ms 5000]\n"
      "           [--data-dir DIR]  # persist the verified worker set into\n"
      "                         # DIR so a restart can omit --workers\n"
      "                         # no local data: serve by scatter/gather\n"
      "                         # over shard-worker processes\n"
      "           [--slow-query-ms N]  # log '# slow:' JSON trace lines for\n"
      "                         # queries/frames taking >= N ms (0 = all)\n"
      "           [--stats-interval S] # with --listen: print a '# json:'\n"
      "                         # metrics line every S seconds\n"
      "files: .bin (packed binary) or anything else (CSV x1,y1;x2,y2;...)\n");
  return 2;
}

bool IsBinaryPath(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
}

Status LoadSet(const std::string& path, tq::TrajectorySet* out) {
  return IsBinaryPath(path) ? tq::LoadTrajectoryBinary(path, out)
                            : tq::LoadTrajectoryCsv(path, out);
}

Status SaveSet(const std::string& path, const tq::TrajectorySet& set) {
  return IsBinaryPath(path) ? tq::SaveTrajectoryBinary(path, set)
                            : tq::SaveTrajectoryCsv(path, set);
}

tq::ServiceModel ModelFromArgs(const Args& args) {
  const double psi = args.GetDouble("psi", 200.0);
  const std::string scenario = args.Get("scenario", "endpoints");
  if (scenario == "endpoints") return tq::ServiceModel::Endpoints(psi);
  if (scenario == "points") return tq::ServiceModel::PointCount(psi);
  if (scenario == "length") return tq::ServiceModel::Length(psi);
  BadFlag("scenario", scenario);
}

int CmdGenerate(const Args& args) {
  const std::string preset = args.Get("preset", "nyt");
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  const size_t n = args.GetSize("n", 10000);
  const size_t stops = args.GetSize("stops", 64);
  tq::TrajectorySet set;
  if (preset == "nyt") {
    set = tq::presets::NytTrips(n);
  } else if (preset == "nyf") {
    set = tq::presets::NyfCheckins(n);
  } else if (preset == "bjg") {
    set = tq::presets::BjgTraces(n);
  } else if (preset == "nybus") {
    set = tq::presets::NyBusRoutes(n, stops);
  } else if (preset == "bjbus") {
    set = tq::presets::BjBusRoutes(n, stops);
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  const Status st = SaveSet(out, set);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu trajectories (%zu points) to %s\n", set.size(),
              set.TotalPoints(), out.c_str());
  return 0;
}

bool ParseHostPort(const std::string& target, std::string* host,
                   uint16_t* port) {
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    return false;
  }
  *host = target.substr(0, colon);
  size_t p = 0;
  if (!ParseSize(target.substr(colon + 1), &p) || p == 0 || p > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(p);
  return true;
}

int ConnectTo(const std::string& target, tq::net::NetClient* client) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(target, &host, &port)) {
    std::fprintf(stderr, "bad HOST:PORT '%s'\n", target.c_str());
    return 2;
  }
  const Status st = client->Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

// stats HOST:PORT — scrape a live server's kStats frame: counters, per-op
// latency percentiles, and its slowest recent traces with per-shard spans.
// The trailing '# json:' line is the machine-parsable form (CI reads it).
int CmdStatsNet(const Args& args) {
  tq::net::NetClient client;
  const int rc = ConnectTo(args.target, &client);
  if (rc != 0) return rc;
  const auto max_traces =
      static_cast<uint32_t>(args.GetSize("traces", 8));
  tq::net::NetResponse resp;
  const Status st = client.Stats(max_traces, &resp);
  if (!st.ok() || !resp.status.ok()) {
    std::fprintf(stderr, "%s\n",
                 (st.ok() ? resp.status : st).ToString().c_str());
    return 1;
  }
  std::printf("server snapshot version: %llu\n",
              static_cast<unsigned long long>(resp.snapshot_version));
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "op", "count",
              "p50_ms", "p90_ms", "p99_ms", "max_ms");
  for (const tq::net::WireHistogram& h : resp.stats.histograms) {
    std::printf("%-16s %10llu %10.3f %10.3f %10.3f %10.3f\n",
                h.name.c_str(), static_cast<unsigned long long>(h.count),
                static_cast<double>(h.p50_ns) / 1e6,
                static_cast<double>(h.p90_ns) / 1e6,
                static_cast<double>(h.p99_ns) / 1e6,
                static_cast<double>(h.max_ns) / 1e6);
  }
  if (!resp.stats.traces.empty()) {
    std::printf("slowest recent traces:\n");
    for (const tq::net::WireTrace& t : resp.stats.traces) {
      std::printf("  %s(%llu) %.3f ms @v%llu, %zu spans%s\n", t.op.c_str(),
                  static_cast<unsigned long long>(t.detail),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<unsigned long long>(t.snapshot_version),
                  t.spans.size(), t.dropped_spans ? " (spans dropped)" : "");
      for (const tq::net::WireSpan& s : t.spans) {
        std::printf("    %-14s shard %3d  %9.1f us .. %9.1f us\n",
                    s.name.c_str(), s.shard,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns) / 1e3);
      }
    }
  }
  std::printf("# json: %s\n", tq::net::WireStatsToJson(resp.stats).c_str());
  return 0;
}

// status HOST:PORT — one kStatus frame: the process's identity (partition
// geometry) and, when it is a coordinator, the per-worker liveness table.
// The '# json:' line is the machine-parsable form (CI reads it).
int CmdStatusNet(const Args& args) {
  if (args.target.empty()) return Usage();
  tq::net::NetClient client;
  const int rc = ConnectTo(args.target, &client);
  if (rc != 0) return rc;
  tq::net::NetResponse resp;
  const Status st = client.ClusterStatus(&resp);
  if (!st.ok() || !resp.status.ok()) {
    std::fprintf(stderr, "%s\n",
                 (st.ok() ? resp.status : st).ToString().c_str());
    return 1;
  }
  const tq::net::WireWorkerInfo& self = resp.worker_info;
  std::printf("self: %u shards, owned [%u, %u), psi %.1f, %u facilities, "
              "%llu users, snapshot v%llu\n",
              self.num_shards, self.owned_begin, self.owned_end, self.psi,
              self.num_facilities,
              static_cast<unsigned long long>(self.users_total),
              static_cast<unsigned long long>(resp.snapshot_version));
  if (!resp.workers.empty()) {
    std::printf("%-22s %-12s %-12s %6s %5s %8s %10s %10s\n", "worker",
                "state", "owned", "beats", "fails", "age_ms", "p50_ms",
                "p99_ms");
    for (const tq::net::WireWorkerStatus& w : resp.workers) {
      const char* state = w.state == 1   ? "alive"
                          : w.state == 2 ? "dead"
                                         : "unregistered";
      char owned[32];
      std::snprintf(owned, sizeof(owned), "[%u,%u)", w.owned_begin,
                    w.owned_end);
      std::printf("%-22s %-12s %-12s %6llu %5llu %8llu %10.3f %10.3f\n",
                  w.address.c_str(), state, owned,
                  static_cast<unsigned long long>(w.heartbeats),
                  static_cast<unsigned long long>(w.failures),
                  static_cast<unsigned long long>(w.age_ms),
                  static_cast<double>(w.rtt_p50_ns) / 1e6,
                  static_cast<double>(w.rtt_p99_ns) / 1e6);
    }
  }
  const tq::net::WireDurability& d = resp.durability;
  if (d.durable()) {
    std::printf("durability: checkpoint lsn %llu, last lsn %llu%s",
                static_cast<unsigned long long>(d.checkpoint_lsn),
                static_cast<unsigned long long>(d.last_lsn),
                d.recovered() ? ", recovered" : "");
    if (d.recovered()) {
      std::printf(" (%llu batches replayed in %.3f ms%s)",
                  static_cast<unsigned long long>(d.replayed_batches),
                  static_cast<double>(d.recovery_ns) / 1e6,
                  d.wal_torn_tail() ? ", torn tail truncated" : "");
    }
    std::printf("\n");
  }
  std::printf("# json: %s\n",
              tq::net::WireStatusToJson(self, resp.workers, d).c_str());
  return 0;
}

// query HOST:PORT — a sync traffic driver (CI uses it to exercise a live
// server before scraping stats). Sends sum and top-k frames of --batch
// queries each over one connection. --dump FILE additionally writes every
// answer as %a hex-float lines — bit-exact, so CI can byte-diff a
// coordinator's answers against a single-process server's.
int CmdQuery(const Args& args) {
  if (args.target.empty()) return Usage();
  tq::net::NetClient client;
  const int rc = ConnectTo(args.target, &client);
  if (rc != 0) return rc;
  const size_t sums = args.GetSize("sums", 100);
  const size_t topks = args.GetSize("topks", 0);
  const size_t batch = std::max<size_t>(1, args.GetSize("batch", 16));
  const auto k = static_cast<uint32_t>(args.GetSize("k", 8));
  const size_t facility_range =
      std::max<size_t>(1, args.GetSize("facility-range", 8));
  const std::string dump_path = args.Get("dump");
  FILE* dump = nullptr;
  if (!dump_path.empty()) {
    dump = std::fopen(dump_path.c_str(), "w");
    if (dump == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   dump_path.c_str());
      return 1;
    }
  }
  // Acked write traffic first: each frame inserts deterministic synthetic
  // trajectories and/or removes sequential global ids, and the response is
  // awaited — against a durable server every acknowledged batch is in the
  // WAL, which is exactly what the CI crash-recovery gate leans on.
  const size_t updates = args.GetSize("updates", 0);
  const size_t update_size =
      std::max<size_t>(1, args.GetSize("update-size", 4));
  const size_t update_removes = args.GetSize("update-removes", 0);
  auto next_remove =
      static_cast<uint32_t>(args.GetSize("update-remove-start", 0));
  size_t inserted = 0, removed = 0;
  for (size_t u = 0; u < updates; ++u) {
    std::vector<std::vector<tq::Point>> inserts;
    for (size_t t = 0; t < update_size; ++t) {
      const auto base = static_cast<double>(u * update_size + t);
      std::vector<tq::Point> traj;
      for (size_t p = 0; p < 4; ++p) {
        traj.push_back(tq::Point{base * 97.0 + static_cast<double>(p) * 13.0,
                                 base * 61.0 + static_cast<double>(p) * 7.0});
      }
      inserts.push_back(std::move(traj));
    }
    std::vector<uint32_t> removes;
    for (size_t r = 0; r < update_removes; ++r) {
      removes.push_back(next_remove++);
    }
    tq::net::NetResponse resp;
    const Status st = client.Update(std::move(inserts), std::move(removes),
                                    &resp);
    if (!st.ok() || !resp.status.ok()) {
      std::fprintf(stderr, "update %zu: %s\n", u,
                   (st.ok() ? resp.status : st).ToString().c_str());
      if (dump != nullptr) std::fclose(dump);
      return 1;
    }
    inserted += resp.assigned_ids.size();
    removed += update_removes;
  }
  if (updates > 0) {
    std::printf("applied %zu acked update batches (%zu inserts, "
                "%zu removes)\n",
                updates, inserted, removed);
  }
  double checksum = 0.0;
  size_t sum_errors = 0;
  tq::Timer timer;
  for (size_t done = 0; done < sums;) {
    const size_t n = std::min(batch, sums - done);
    std::vector<tq::FacilityId> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<tq::FacilityId>((done + i) % facility_range);
    }
    tq::net::NetResponse resp;
    const Status st = client.Sum(ids, &resp);
    if (!st.ok() || !resp.status.ok()) {
      std::fprintf(stderr, "%s\n",
                   (st.ok() ? resp.status : st).ToString().c_str());
      if (dump != nullptr) std::fclose(dump);
      return 1;
    }
    for (size_t i = 0; i < resp.sums.size(); ++i) {
      const tq::net::SumResult& r = resp.sums[i];
      if (r.code == tq::StatusCode::kOk) checksum += r.value;
      else ++sum_errors;
      if (dump != nullptr) {
        std::fprintf(dump, "sum %zu %u %a\n", done + i, ids[i], r.value);
      }
    }
    done += n;
  }
  for (size_t done = 0; done < topks;) {
    const size_t n = std::min(batch, topks - done);
    tq::net::NetResponse resp;
    const Status st =
        client.TopK(std::vector<uint32_t>(n, k), &resp);
    if (!st.ok() || !resp.status.ok()) {
      std::fprintf(stderr, "%s\n",
                   (st.ok() ? resp.status : st).ToString().c_str());
      if (dump != nullptr) std::fclose(dump);
      return 1;
    }
    if (dump != nullptr) {
      for (size_t i = 0; i < resp.topks.size(); ++i) {
        std::fprintf(dump, "topk %zu %u", done + i, k);
        for (const tq::RankedFacility& rf : resp.topks[i].ranked) {
          std::fprintf(dump, " %u:%a", rf.id, rf.value);
        }
        std::fprintf(dump, "\n");
      }
    }
    done += n;
  }
  if (dump != nullptr) std::fclose(dump);
  std::printf("sent %zu sum + %zu top-%u queries in %.3f s "
              "(checksum %.3f, %zu per-query errors)\n",
              sums, topks, k, timer.ElapsedSeconds(), checksum, sum_errors);
  return 0;
}

// flood HOST:PORT — an ADVERSARIAL client: pipelines --frames request
// frames as fast as the kernel accepts without reading a single response
// byte, optionally keeps stonewalling for --stall-ms after the pipe fills
// (the phase in which a healthy server must pause this connection at its
// outbox watermark instead of buffering the owed responses), then drains
// everything and reports how each frame was answered. With --topk K and
// --batch B each frame carries B top-k queries, so a --max-queued server
// sheds most of the burst with in-protocol kOverloaded answers. Exits 0
// only when every pipelined frame got SOME well-formed answer — served or
// shed, never dropped. The CI overload-smoke job runs this against a real
// serve process and gates the server's RSS and counters meanwhile.
int CmdFlood(const Args& args) {
  if (args.target.empty()) return Usage();
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(args.target, &host, &port)) {
    std::fprintf(stderr, "bad HOST:PORT '%s'\n", args.target.c_str());
    return 2;
  }
  const size_t frames = std::max<size_t>(1, args.GetSize("frames", 2000));
  const size_t batch = std::max<size_t>(1, args.GetSize("batch", 256));
  const auto topk = static_cast<uint32_t>(args.GetSize("topk", 0));
  const size_t facility_range =
      std::max<size_t>(1, args.GetSize("facility-range", 8));
  const size_t stall_ms = args.GetSize("stall-ms", 0);
  const size_t rcvbuf_kb = args.GetSize("rcvbuf-kb", 16);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  if (rcvbuf_kb > 0) {
    // Before connect(): a small advertised window makes the server hit its
    // watermarks with far less kernel-buffered slack.
    const int rcvbuf = static_cast<int>(rcvbuf_kb * 1024);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "flood needs a numeric IPv4 host, got '%s'\n",
                 host.c_str());
    ::close(fd);
    return 2;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }

  // One frame, repeated: either a sum batch or a top-k batch.
  std::string one;
  if (topk > 0) {
    tq::net::EncodeRequest(
        tq::net::NetRequest::TopK(std::vector<uint32_t>(batch, topk)), &one);
  } else {
    std::vector<tq::FacilityId> ids(batch);
    for (size_t i = 0; i < batch; ++i) {
      ids[i] = static_cast<tq::FacilityId>(i % facility_range);
    }
    tq::net::EncodeRequest(tq::net::NetRequest::Sum(ids), &one);
  }
  std::string burst;
  burst.reserve(one.size() * frames);
  for (size_t i = 0; i < frames; ++i) burst += one;

  // Blocking firehose on its own thread; the main thread stonewalls.
  std::atomic<bool> sent_all{false};
  std::thread sender([fd, &burst, &sent_all] {
    size_t off = 0;
    while (off < burst.size()) {
      const ssize_t n =
          ::send(fd, burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      off += static_cast<size_t>(n);
    }
    sent_all.store(true);
  });
  if (stall_ms > 0) {
    std::printf("flood: pipelining %zu frames (%zu bytes), stonewalling "
                "%zu ms before reading\n",
                frames, burst.size(), stall_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }

  // Drain every response, classifying per-frame outcomes.
  size_t ok = 0, overloaded = 0, other = 0;
  tq::Timer timer;
  {
    tq::net::FrameAssembler assembler;
    char buf[64 << 10];
    size_t answered = 0;
    while (answered < frames) {
      std::string payload;
      if (assembler.Next(&payload) ==
          tq::net::FrameAssembler::Result::kFrame) {
        tq::net::NetResponse resp;
        if (!tq::net::DecodeResponse(payload, &resp).ok()) {
          ++other;
        } else if (resp.status.ok()) {
          ++ok;
        } else if (resp.status.code() == tq::StatusCode::kOverloaded) {
          ++overloaded;
        } else {
          ++other;
        }
        ++answered;
        continue;
      }
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;  // EOF / error: the missing frames count below
      assembler.Feed(buf, static_cast<size_t>(n));
    }
  }
  sender.join();
  ::close(fd);

  const size_t answered = ok + overloaded + other;
  std::printf("flood: %zu/%zu frames answered in %.3f s — %zu served, "
              "%zu overloaded, %zu other\n",
              answered, frames, timer.ElapsedSeconds(), ok, overloaded,
              other);
  std::printf("# json: {\"flood\":true,\"frames\":%zu,\"answered\":%zu,"
              "\"served\":%zu,\"overloaded\":%zu,\"other\":%zu,"
              "\"sent_all\":%s,\"drain_s\":%.3f}\n",
              frames, answered, ok, overloaded, other,
              sent_all.load() ? "true" : "false", timer.ElapsedSeconds());
  if (!sent_all.load()) {
    std::fprintf(stderr, "flood: send side aborted early\n");
    return 1;
  }
  if (answered != frames || other != 0) {
    std::fprintf(stderr, "flood: %zu frames unanswered, %zu malformed/"
                 "unexpected\n", frames - answered, other);
    return 1;
  }
  return 0;
}

int CmdStats(const Args& args) {
  if (!args.target.empty()) return CmdStatsNet(args);
  const std::string in = args.Get("in");
  if (in.empty()) return Usage();
  tq::TrajectorySet set;
  const Status st = LoadSet(in, &set);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", tq::ComputeStats(set).ToString(in).c_str());
  const tq::Rect e = set.BoundingBox();
  std::printf("extent: [%.1f, %.1f] x [%.1f, %.1f] m\n", e.min_x, e.max_x,
              e.min_y, e.max_y);
  return 0;
}

int CmdTopK(const Args& args) {
  const tq::ServiceModel model = ModelFromArgs(args);
  const size_t k = args.GetSize("k", 8);
  const std::string method =
      GetChoice(args, "method", {"tqz", "tqb", "bl", "blr"});
  const std::string mode = GetChoice(args, "mode", {"whole", "segmented"});
  tq::TrajectorySet users, facilities;
  Status st = LoadSet(args.Get("users"), &users);
  if (st.ok()) st = LoadSet(args.Get("facilities"), &facilities);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const tq::ServiceEvaluator evaluator(&users, model);
  const tq::FacilityCatalog catalog(&facilities, model.psi);

  tq::TopKResult result;
  if (method == "bl") {
    tq::PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
    pq.InsertAll(users);
    result = tq::TopKFacilitiesBaseline(pq, catalog, evaluator, k);
  } else if (method == "blr") {
    const tq::PointRTree rt = tq::PointRTree::FromTrajectories(users);
    result = tq::TopKFacilitiesBaselineRTree(rt, catalog, evaluator, k);
  } else {
    tq::TQTreeOptions opt;
    opt.beta = args.GetSize("beta", 64);
    opt.model = model;
    opt.variant = method == "tqb" ? tq::IndexVariant::kBasic
                                  : tq::IndexVariant::kZOrder;
    opt.mode = mode == "segmented" ? tq::TrajMode::kSegmented
                                   : tq::TrajMode::kWhole;
    tq::TQTree tree(&users, opt);
    result = tq::TopKFacilitiesTQ(&tree, catalog, evaluator, k);
  }
  std::printf("top-%zu facilities by %s service:\n", k,
              model.ToString().c_str());
  for (size_t i = 0; i < result.ranked.size(); ++i) {
    std::printf("%3zu. facility %-6u SO = %.3f\n", i + 1,
                result.ranked[i].id, result.ranked[i].value);
  }
  return 0;
}

int CmdCover(const Args& args) {
  const tq::ServiceModel model = ModelFromArgs(args);
  const size_t k = args.GetSize("k", 8);
  const std::string solver =
      GetChoice(args, "solver", {"greedy", "genetic", "baseline"});
  tq::TrajectorySet users, facilities;
  Status st = LoadSet(args.Get("users"), &users);
  if (st.ok()) st = LoadSet(args.Get("facilities"), &facilities);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const tq::ServiceEvaluator evaluator(&users, model);
  const tq::FacilityCatalog catalog(&facilities, model.psi);

  tq::CoverResult result;
  if (solver == "baseline") {
    tq::PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
    pq.InsertAll(users);
    result = tq::GreedyCoverBaseline(pq, catalog, evaluator, k);
  } else {
    tq::TQTreeOptions opt;
    opt.beta = args.GetSize("beta", 64);
    opt.model = model;
    tq::TQTree tree(&users, opt);
    result = solver == "genetic"
                 ? tq::GeneticCoverTQ(&tree, catalog, evaluator, k)
                 : tq::GreedyCoverTQ(&tree, catalog, evaluator, k);
  }
  std::printf("MaxkCovRST (%s, k=%zu): SO = %.3f, users served = %zu\n",
              solver.c_str(), k, result.total, result.users_served);
  std::printf("chosen:");
  for (const tq::FacilityId f : result.chosen) std::printf(" %u", f);
  std::printf("\n");
  return 0;
}

std::atomic<bool> g_serve_interrupted{false};

void OnServeSignal(int) { g_serve_interrupted.store(true); }

// serve --listen: put the sharded engine behind the TCP front-end
// (src/net/server.h) and block until --duration seconds pass or SIGINT/
// SIGTERM arrives, then report the combined engine + network metrics.
// --slow-query-ms N arms the engine tracer's slow-query log: every finished
// trace at or over the threshold prints one '# slow:' structured JSON line
// (N = 0 logs every trace). Shared by the listen and local serve loops.
void ArmSlowQueryLog(tq::runtime::ServingEngine& engine, const Args& args) {
  if (args.kv.count("slow-query-ms") == 0) return;
  const size_t ms = args.GetSize("slow-query-ms", 0);
  tq::runtime::Tracer* tracer = engine.mutable_tracer();
  tracer->set_slow_threshold_ns(static_cast<uint64_t>(ms) * 1000000ull);
  tracer->SetSlowLogSink([](const std::string& line) {
    std::printf("# slow: %s\n", line.c_str());
    std::fflush(stdout);
  });
}

int RunListenLoop(tq::runtime::ServingEngine& engine, const Args& args) {
  tq::net::NetServerOptions options;
  const size_t port = args.GetSize("listen", 0);
  if (port > 65535) {
    // Catch this before the uint16_t cast silently truncates it into a
    // bind on some unrelated port.
    std::fprintf(stderr, "serve: --listen port %zu out of range\n", port);
    return 1;
  }
  options.port = static_cast<uint16_t>(port);
  options.update_batch = std::max<size_t>(1, args.GetSize("update-batch", 1));
  // Backpressure knobs: --max-outbox-kb moves the per-connection pause
  // watermark (resume at half; 0 disables), --max-queued arms admission
  // control (shed read queries with kOverloaded past that backlog).
  if (args.kv.count("max-outbox-kb") != 0) {
    options.outbox_high_bytes = args.GetSize("max-outbox-kb", 0) * 1024;
    options.outbox_low_bytes = options.outbox_high_bytes / 2;
  }
  options.max_queued = args.GetSize("max-queued", 0);
  ArmSlowQueryLog(engine, args);
  tq::net::NetServer server(&engine, options);
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const size_t duration_s = args.GetSize("duration", 0);
  const size_t stats_interval_s = args.GetSize("stats-interval", 0);
  g_serve_interrupted.store(false);
  std::signal(SIGINT, OnServeSignal);
  std::signal(SIGTERM, OnServeSignal);
  std::printf("listening on 127.0.0.1:%u (update-batch %zu, %s)\n",
              server.port(), options.update_batch,
              duration_s ? "timed run" : "until SIGINT");
  std::fflush(stdout);
  tq::Timer timer;
  double next_stats_s = static_cast<double>(stats_interval_s);
  while (!g_serve_interrupted.load() &&
         (duration_s == 0 || timer.ElapsedSeconds() <
                                 static_cast<double>(duration_s))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (stats_interval_s > 0 && timer.ElapsedSeconds() >= next_stats_s) {
      next_stats_s += static_cast<double>(stats_interval_s);
      std::printf("# json: %s\n",
                  engine.mutable_metrics()->Read().ToJson().c_str());
      std::fflush(stdout);
    }
  }
  server.Stop();
  const tq::runtime::MetricsView m = engine.mutable_metrics()->Read();
  std::printf("served %llu connections, %llu request frames "
              "(%llu bytes in, %llu bytes out)\n",
              static_cast<unsigned long long>(m.net_connections),
              static_cast<unsigned long long>(m.net_requests_decoded),
              static_cast<unsigned long long>(m.net_bytes_in),
              static_cast<unsigned long long>(m.net_bytes_out));
  std::printf("# metrics: %s\n", m.ToJson().c_str());
  return 0;
}

// The local serve query/update loop. `mirror` is a local copy of the
// engine's user set: the engine assigns global ids densely in insertion
// order, so appending each churn batch keeps the mirror's ids aligned with
// the engine's and gives the loop trajectory points to re-insert without
// holding old snapshots alive.
int RunServeLoop(tq::runtime::ShardedEngine& engine, tq::TrajectorySet mirror,
                 const Args& args) {
  const size_t num_queries = args.GetSize("queries", 1000);
  const size_t topk_every = args.GetSize("topk-every", 0);
  const size_t k = args.GetSize("k", 8);
  const size_t num_updates = args.GetSize("updates", 0);
  const size_t update_size = args.GetSize("update-size", 64);
  // --update-batch N coalesces N churn events into ONE forked publish —
  // the cheap-publish path end to end: path-copy cost is paid per batch,
  // not per streamed write. 1 (default) publishes every event, as before.
  const size_t update_batch =
      std::max<size_t>(1, args.GetSize("update-batch", 1));
  const size_t num_facilities = engine.snapshot()->catalog->size();

  tq::Timer serve_timer;
  std::vector<std::future<tq::runtime::QueryResponse>> futures;
  futures.reserve(num_queries);
  tq::runtime::UpdateBatch pending;
  size_t pending_events = 0;
  size_t fired = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    if (topk_every > 0 && q % topk_every == 0) {
      futures.push_back(engine.Submit(tq::runtime::QueryRequest::TopK(k)));
    } else {
      const auto f = static_cast<tq::FacilityId>(q % num_facilities);
      futures.push_back(
          engine.Submit(tq::runtime::QueryRequest::ServiceValue(f)));
    }
    // Churn: exactly `num_updates` events, each removing and re-inserting
    // one trajectory block to exercise the copy-on-write writer
    // mid-stream; event e follows query floor((2e + 1) Q / 2N), spreading
    // them evenly. Events accumulate in `pending` and publish every
    // `update_batch` events.
    while (fired < num_updates &&
           q == (2 * fired + 1) * num_queries / (2 * num_updates)) {
      ++fired;
      for (size_t i = 0; i < update_size && i < mirror.size(); ++i) {
        const auto id = static_cast<uint32_t>((q + i) % mirror.size());
        const auto pts = mirror.points(id);
        pending.inserts.emplace_back(pts.begin(), pts.end());
        pending.removes.push_back(id);
        // Append the private copy, not the span — Add() into the set a
        // span points into would be self-referential.
        mirror.Add(pending.inserts.back());
      }
      if (++pending_events >= update_batch) {
        engine.ApplyUpdates(pending);
        pending = tq::runtime::UpdateBatch{};
        pending_events = 0;
      }
    }
  }
  if (pending_events > 0) engine.ApplyUpdates(pending);
  double checksum = 0.0;
  for (auto& f : futures) checksum += f.get().value;
  const double serve_s = serve_timer.ElapsedSeconds();

  const tq::runtime::MetricsView m = engine.metrics().Read();
  std::printf("served %zu queries in %.3f s — %.0f queries/s "
              "(checksum %.3f)\n",
              num_queries, serve_s,
              static_cast<double>(num_queries) / serve_s, checksum);
  std::printf("snapshot version: %llu\n",
              static_cast<unsigned long long>(engine.snapshot()->version));
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
              static_cast<unsigned long long>(m.cache_hits),
              static_cast<unsigned long long>(m.cache_misses),
              100.0 * m.CacheHitRate());
  if (m.facilities_evaluated + m.facilities_pruned > 0) {
    std::printf(
        "top-k pruning: %llu facility-shard slots evaluated, %llu pruned "
        "(%.1f%% skipped) over %llu scatter waves\n",
        static_cast<unsigned long long>(m.facilities_evaluated),
        static_cast<unsigned long long>(m.facilities_pruned),
        100.0 * static_cast<double>(m.facilities_pruned) /
            static_cast<double>(m.facilities_evaluated +
                                m.facilities_pruned),
        static_cast<unsigned long long>(m.prune_rounds));
  }
  std::printf("# metrics: %s\n", m.ToJson().c_str());
  return 0;
}

// serve --coordinator: no local data at all — dial the given shard-worker
// processes, verify they tile one partition, and serve the same TCP
// protocol by scatter/gather over them (runtime/remote_shard_set.h).
int RunCoordinator(const Args& args) {
  tq::runtime::RemoteShardSetOptions options;
  const std::string data_dir = args.Get("data-dir");
  const std::string list = args.Get("workers");
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string endpoint = list.substr(pos, comma - pos);
    std::string host;
    uint16_t port = 0;
    if (!ParseHostPort(endpoint, &host, &port)) {
      std::fprintf(stderr, "bad worker endpoint '%s'\n", endpoint.c_str());
      return 2;
    }
    options.workers.emplace_back(std::move(host), port);
    pos = comma + 1;
  }
  if (options.workers.empty() && !data_dir.empty()) {
    // Restart path: --workers omitted, recover the set saved by the last
    // successful Connect() under this data dir.
    const Status loaded = tq::runtime::RemoteShardSet::LoadWorkerSet(
        data_dir, &options.workers);
    if (!loaded.ok() && loaded.code() != tq::StatusCode::kNotFound) {
      std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
      return 1;
    }
    if (!options.workers.empty()) {
      std::printf("worker set: %zu endpoints recovered from %s\n",
                  options.workers.size(), data_dir.c_str());
    }
  }
  if (options.workers.empty()) {
    std::fprintf(stderr,
                 "serve --coordinator needs --workers "
                 "HOST:PORT[,HOST:PORT...] (or --data-dir DIR holding a "
                 "saved worker set)\n");
    return 2;
  }
  if (args.kv.count("listen") == 0) {
    std::fprintf(stderr, "serve --coordinator needs --listen PORT\n");
    return 2;
  }
  options.num_threads = std::max<size_t>(1, args.GetSize("threads", 4));
  options.rpc_timeout_ms = args.GetSize("rpc-timeout-ms", 2000);
  options.heartbeat_period_ms = args.GetSize("heartbeat-ms", 1000);
  options.heartbeat_timeout_ms = args.GetSize("heartbeat-timeout-ms", 5000);
  tq::runtime::RemoteShardSet engine(options);
  const Status st = engine.Connect();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (!data_dir.empty() && !list.empty()) {
    // Persist only a set that just verified its geometry — the restart
    // path above then redials exactly this cluster.
    const Status saved = tq::runtime::RemoteShardSet::SaveWorkerSet(
        data_dir, options.workers);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
  }
  const tq::runtime::EngineInfo info = engine.info();
  std::printf("coordinator up: %zu workers tiling %u shards, "
              "%u facilities, %llu users, psi %.1f\n",
              engine.num_workers(), info.num_shards, info.num_facilities,
              static_cast<unsigned long long>(info.users_total), info.psi);
  return RunListenLoop(engine, args);
}

// Drives the concurrent runtime: a query stream (service values round-robin
// over facilities, optionally interleaved with top-k), with optional update
// batches published mid-stream, then a throughput + metrics report.
// --shards N partitions the users over N scatter/gather TQ-trees (default 1).
int CmdServe(const Args& args) {
  if (args.kv.count("coordinator") != 0) return RunCoordinator(args);
  const size_t num_threads = std::max<size_t>(1, args.GetSize("threads", 4));
  const size_t cache_capacity = args.GetSize("cache", 4096);
  const size_t num_shards = std::max<size_t>(1, args.GetSize("shards", 1));
  tq::TQTreeOptions tree;
  tree.model = ModelFromArgs(args);
  const bool listen = args.kv.count("listen") != 0;
  // --worker LO:HI: build trees only for an owned slice of the partition (a
  // shard-worker process behind a coordinator). Only meaningful behind the
  // wire protocol — a local query loop over a slice answers partial sums.
  // Parsed before any file is opened, so a mistyped range fails fast.
  uint32_t owned_begin = 0;
  uint32_t owned_end = 0;
  const std::string worker = args.Get("worker");
  if (!worker.empty()) {
    const size_t colon = worker.find(':');
    size_t lo = 0;
    size_t hi = 0;
    if (colon == std::string::npos ||
        !ParseSize(worker.substr(0, colon), &lo) ||
        !ParseSize(worker.substr(colon + 1), &hi) || hi <= lo ||
        hi > num_shards) {
      BadFlag("worker", worker);
    }
    if (!listen) {
      std::fprintf(stderr, "serve: --worker requires --listen\n");
      return 2;
    }
    owned_begin = static_cast<uint32_t>(lo);
    owned_end = static_cast<uint32_t>(hi);
  }

  // --data-dir DIR: durable serving (WAL + background checkpoints). When
  // the dir already holds a committed checkpoint the engine recovers from
  // it — the --users/--facilities files are not even opened; the checkpoint
  // is self-contained (partition geometry included, so shard workers skip
  // the full user set entirely).
  tq::runtime::DurabilityOptions durability;
  durability.data_dir = args.Get("data-dir");
  if (!durability.data_dir.empty()) {
    const std::string sync = args.Get("wal-sync");
    if (!sync.empty() &&
        !tq::storage::ParseWalSync(sync, &durability.wal_sync)) {
      std::fprintf(stderr,
                   "serve: bad --wal-sync '%s' (want always|batch|off)\n",
                   sync.c_str());
      return 2;
    }
    durability.checkpoint_interval_ms =
        args.GetSize("checkpoint-interval-ms", 0);
  }
  const bool recovering =
      durability.enabled() &&
      tq::storage::CurrentCheckpointDir(durability.data_dir).ok();

  tq::TrajectorySet users, facilities;
  if (!recovering) {
    Status st = LoadSet(args.Get("users"), &users);
    if (st.ok()) st = LoadSet(args.Get("facilities"), &facilities);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (facilities.empty()) {
      std::fprintf(stderr, "serve: facility set is empty\n");
      return 1;
    }
  }

  const size_t num_users = users.size();
  const size_t num_facilities = facilities.size();
  // The churn mirror costs a full user-set copy — only pay it when update
  // batches are actually requested (see RunServeLoop).
  tq::TrajectorySet mirror;
  if (!listen && args.GetSize("updates", 0) > 0) mirror = users;
  tq::Timer build_timer;
  tq::runtime::ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.num_threads = num_threads;
  options.cache_capacity = cache_capacity;
  options.owned_begin = owned_begin;
  options.owned_end = owned_end;
  options.durability = durability;
  options.tree = tree;
  std::unique_ptr<tq::runtime::ShardedEngine> engine;
  if (recovering) {
    auto r = tq::runtime::ShardedEngine::Recover(options);
    if (!r.ok()) {
      std::fprintf(stderr, "recover: %s\n", r.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*r);
    const tq::runtime::RecoveryInfo rec = engine->recovery_info();
    std::printf("recovered from %s: checkpoint lsn %llu + %llu WAL "
                "batches -> snapshot v%llu%s (%.3f s)\n",
                durability.data_dir.c_str(),
                static_cast<unsigned long long>(rec.checkpoint_lsn),
                static_cast<unsigned long long>(rec.replayed_batches),
                static_cast<unsigned long long>(rec.last_lsn),
                rec.wal_torn_tail ? " (torn tail truncated)" : "",
                static_cast<double>(rec.recovery_ns) / 1e9);
  } else {
    engine = std::make_unique<tq::runtime::ShardedEngine>(
        std::move(users), std::move(facilities), options);
  }
  if (owned_end != 0) {
    std::printf("shard worker up: owns shards [%u, %u) of %zu over %zu "
                "users, %zu facilities, %zu threads (built in %.3f s)\n",
                owned_begin, owned_end, engine->num_shards(), num_users,
                num_facilities, num_threads, build_timer.ElapsedSeconds());
  } else {
    std::printf("sharded engine up: %zu users over %zu shards, "
                "%zu facilities, %zu threads (built in %.3f s)\n",
                recovering ? engine->NumUsersTotal() : num_users,
                engine->num_shards(),
                recovering ? engine->snapshot()->catalog->size()
                           : num_facilities,
                num_threads, build_timer.ElapsedSeconds());
  }
  if (durability.enabled()) {
    std::printf("durable: data dir %s, wal-sync %s, checkpoint every "
                "%llu ms, compacting\n",
                durability.data_dir.c_str(),
                tq::storage::WalSyncName(durability.wal_sync),
                static_cast<unsigned long long>(
                    durability.checkpoint_interval_ms));
  }
  if (listen) return RunListenLoop(*engine, args);
  ArmSlowQueryLog(*engine, args);  // engine-owned traces cover this path
  return RunServeLoop(*engine, std::move(mirror), args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  int i = 2;
  // Optional positional HOST:PORT target before the --key value pairs
  // (stats and query address a live server this way).
  if (i < argc && std::strncmp(argv[i], "--", 2) != 0) {
    args.target = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    // A key directly followed by another --key (or nothing) is a valueless
    // flag, e.g. --coordinator.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.kv[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      args.kv[argv[i] + 2] = "1";
    }
  }
  // The flags each command reads. Any other is a usage error, reported
  // before any file is loaded: a mistyped or retired flag never runs the
  // command with a default in its place.
  static const std::map<std::string_view, std::set<std::string_view>> kFlags =
      {{"generate", {"preset", "n", "stops", "out"}},
       {"stats", {"in", "traces"}},
       {"status", {}},
       {"query",
        {"sums", "topks", "k", "batch", "facility-range", "dump", "updates",
         "update-size", "update-removes", "update-remove-start"}},
       {"flood",
        {"frames", "batch", "topk", "facility-range", "stall-ms",
         "rcvbuf-kb"}},
       {"topk",
        {"users", "facilities", "k", "psi", "scenario", "method", "mode",
         "beta"}},
       {"cover",
        {"users", "facilities", "k", "psi", "scenario", "solver", "beta"}},
       {"serve",
        {"users", "facilities", "threads", "shards", "queries", "topk-every",
         "k", "psi", "scenario", "cache", "updates", "update-size",
         "update-batch", "listen", "duration", "max-outbox-kb", "max-queued",
         "worker", "data-dir", "wal-sync", "checkpoint-interval-ms",
         "coordinator", "workers", "rpc-timeout-ms", "heartbeat-ms",
         "heartbeat-timeout-ms", "slow-query-ms", "stats-interval"}}};
  const auto flags = kFlags.find(args.command);
  if (flags == kFlags.end()) return Usage();
  for (const auto& [key, value] : args.kv) {
    if (flags->second.count(key) == 0) BadFlag(key, value);
  }
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "status") return CmdStatusNet(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "flood") return CmdFlood(args);
  if (args.command == "topk") return CmdTopK(args);
  if (args.command == "cover") return CmdCover(args);
  return CmdServe(args);
}
