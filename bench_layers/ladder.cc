// The layer ladder (traced runs only): one fixed sample on NYF (21,275
// check-ins, 128 routes, Scenario 2) replayed closed-loop at each rung — the
// single tree, a 1-shard and a 4-shard ShardedEngine, NetServer over
// loopback, coordinator + 2 workers — plus the publish path in memory and
// durable. The sample is every facility once as SO (one deployment per
// rung) and k in {1, 4, 8, 16} as top-k, each on a fresh deployment, so no
// answer comes from the result cache and no cache option is touched. A
// rung's self time is its cost minus the rung below's; for top-k,
// lib -> engine1 compares best-first search with bound-and-prune and can
// be negative.
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "storage/checkpoint.h"
#include "workloads.h"

namespace tq::bl {
namespace {

const std::vector<uint32_t> kLadderKs = {1, 4, 8, 16};
constexpr size_t kPublishBatches = 24;
constexpr size_t kPerBatch = 4;

enum class Rung { kEngine1, kEngine4, kNet, kCluster };

/// One rung's deployment. Members are destroyed in reverse order: the
/// client and front-end go before the engine they talk to.
struct Deployment {
  std::unique_ptr<runtime::ShardedEngine> engine;
  std::unique_ptr<net::NetServer> server;
  net::NetClient client;
  std::unique_ptr<Cluster> cluster;
};

std::unique_ptr<Deployment> Deploy(Rung rung, const Dataset& data) {
  auto d = std::make_unique<Deployment>();
  if (rung == Rung::kCluster) {
    d->cluster = StartCluster(data);
    return d->cluster ? std::move(d) : nullptr;
  }
  runtime::ShardedEngineOptions options;
  options.num_shards = rung == Rung::kEngine1 ? 1 : 4;
  options.num_threads = rung == Rung::kEngine1 ? 1 : 2;
  options.tree = TreeOptions(data.model);
  d->engine = std::make_unique<runtime::ShardedEngine>(
      data.users, data.facilities, options);
  if (rung == Rung::kNet) {
    d->server = std::make_unique<net::NetServer>(d->engine.get(),
                                                 net::NetServerOptions{});
    if (!d->server->Start().ok() ||
        !d->client.Connect("127.0.0.1", d->server->port()).ok()) {
      return nullptr;
    }
  }
  return d;
}

/// One query at one rung; false when it was not answered.
bool Ask(Rung rung, Deployment& d, const runtime::QueryRequest& q,
         runtime::TraceContextPtr trace) {
  if (rung == Rung::kNet) {
    net::NetResponse r;
    const Status st =
        q.kind == runtime::QueryKind::kTopK
            ? d.client.TopK({static_cast<uint32_t>(q.k)}, &r)
            : d.client.Sum({q.facility}, &r);
    return st.ok() && r.status.ok();
  }
  runtime::ServingEngine& engine =
      rung == Rung::kCluster ? static_cast<runtime::ServingEngine&>(
                                   *d.cluster->coordinator)
                             : *d.engine;
  return Call(engine, q, std::move(trace)).status.ok();
}

/// Total span time per span name over the given contexts, in µs.
std::map<std::string, double> SpanTotalsUs(
    const std::vector<runtime::TraceContextPtr>& traces) {
  std::map<std::string, double> totals;
  for (const auto& t : traces) {
    for (size_t i = 0; i < t->num_spans(); ++i) {
      const runtime::TraceSpan& s = t->span(i);
      totals[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return totals;
}

double SpanCount(const std::vector<runtime::TraceContextPtr>& traces,
                 const std::string& name) {
  double n = 0;
  for (const auto& t : traces) {
    for (size_t i = 0; i < t->num_spans(); ++i) n += name == t->span(i).name;
  }
  return n;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

struct Cost {
  double so_us = 0.0;
  double topk_ms = 0.0;
};

/// The publish path: the same write batches (4 held-out inserts and 4
/// removes each) into a 4-shard engine in memory and into a durable one
/// (wal_sync=always), then one checkpoint and a recovery of the durable
/// one. Returns the number of failed steps.
uint64_t AddPublishRung(const RunConfig& config, const Dataset& data,
                        MetricList* out) {
  CheckinOptions held_options;
  held_options.num_trajectories = kPublishBatches * kPerBatch;
  held_options.seed = config.SubSeed(21);
  const TrajectorySet held = GenerateCheckins(presets::NewYork(), held_options);
  std::vector<runtime::UpdateBatch> batches(kPublishBatches);
  double user_bytes = 0.0;
  for (size_t b = 0; b < kPublishBatches; ++b) {
    for (size_t i = 0; i < kPerBatch; ++i) {
      const auto row = static_cast<uint32_t>(b * kPerBatch + i);
      const auto pts = held.points(row);
      batches[b].inserts.emplace_back(pts.begin(), pts.end());
      batches[b].removes.push_back(row);  // distinct initial users
    }
    std::string body;
    net::EncodeUpdateBody(batches[b].inserts, batches[b].removes, &body);
    user_bytes += static_cast<double>(body.size());
  }
  runtime::ShardedEngineOptions options;
  options.num_shards = 4;
  options.num_threads = 2;
  options.tree = TreeOptions(data.model);
  const auto publish_ms = [&batches](runtime::ShardedEngine& engine) {
    std::vector<double> ms;
    for (const runtime::UpdateBatch& b : batches) {
      const uint64_t t0 = runtime::NowNs();
      engine.ApplyUpdates(b);
      ms.push_back(static_cast<double>(runtime::NowNs() - t0) / 1e6);
    }
    return Median(ms);
  };
  double mem_ms = 0.0;
  {
    runtime::ShardedEngine engine(data.users, data.facilities, options);
    mem_ms = publish_ms(engine);
  }

  std::string dir = config.tmpdir + "/ladder-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) return 1;
  options.durability.data_dir = dir + "/data";
  auto engine = std::make_unique<runtime::ShardedEngine>(
      data.users, data.facilities, options);
  const double always_ms = publish_ms(*engine);
  const double wal_bytes = static_cast<double>(
      DirBytes(storage::WalDir(options.durability.data_dir)));
  const uint64_t c0 = runtime::NowNs();
  uint64_t failures = engine->Checkpoint().ok() ? 0 : 1;
  const uint64_t c1 = runtime::NowNs();
  const double data_dir_mb =
      static_cast<double>(DirBytes(options.durability.data_dir)) / 1048576.0;
  const runtime::QueryResponse before =
      Call(*engine, runtime::QueryRequest::TopK(8));
  engine.reset();
  const uint64_t r0 = runtime::NowNs();
  auto recovered = runtime::ShardedEngine::Recover(options);
  const uint64_t r1 = runtime::NowNs();
  if (recovered.ok()) {
    const runtime::QueryResponse after =
        Call(**recovered, runtime::QueryRequest::TopK(8));
    bool same = after.ranked.size() == before.ranked.size();
    for (size_t i = 0; same && i < after.ranked.size(); ++i) {
      same = after.ranked[i].id == before.ranked[i].id &&
             after.ranked[i].value == before.ranked[i].value;
    }
    if (!same) {
      std::fprintf(stderr, "WRONG ANSWER: ladder top-k changed by recovery\n");
      ++failures;
    }
    recovered->reset();
  } else {
    ++failures;
  }
  std::filesystem::remove_all(dir);

  out->Add("ladder.publish.mem_ms", mem_ms, "ms");
  out->Add("ladder.publish.always_ms", always_ms, "ms");
  out->Add("ladder.publish.wal_self_ms", always_ms - mem_ms, "ms");
  out->Add("storage.checkpoint_ms", static_cast<double>(c1 - c0) / 1e6, "ms");
  out->Add("storage.recovery_ms", static_cast<double>(r1 - r0) / 1e6, "ms");
  out->Add("storage.data_dir_mb", data_dir_mb, "MB");
  out->Add("storage.wal_bytes_per_user_byte", Ratio(wal_bytes, user_bytes),
           "ratio");
  return failures;
}

}  // namespace

uint64_t AddLadder(const RunConfig& config, MetricList* out) {
  const std::unique_ptr<Dataset> data = NyfDataset(kRoutes);
  const size_t nf = data->facilities.size();
  std::vector<FacilityId> order(nf);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(config.SubSeed(20));
  for (size_t i = nf; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }

  Cost below;  // the rung below the one being measured
  {  // Rung "lib": Algorithms 1 and 3 on one tree, no runtime at all.
    TQTree tree(&data->users, TreeOptions(data->model));
    tree.BuildAllZIndexes();
    const FacilityCatalog catalog(&data->facilities, kPsi);
    const ServiceEvaluator eval(&data->users, data->model);
    std::vector<double> so_us, topk_ms;
    for (const FacilityId f : order) {
      const uint64_t t0 = runtime::NowNs();
      EvaluateServiceTQ(&tree, eval, catalog.grid(f));
      so_us.push_back(static_cast<double>(runtime::NowNs() - t0) / 1e3);
    }
    for (const uint32_t k : kLadderKs) {
      const uint64_t t0 = runtime::NowNs();
      TopKFacilitiesTQ(&tree, catalog, eval, k);
      topk_ms.push_back(static_cast<double>(runtime::NowNs() - t0) / 1e6);
    }
    below = Cost{Median(so_us), Median(topk_ms)};
    out->Add("ladder.lib.so_us", below.so_us, "us");
    out->Add("ladder.lib.topk_ms", below.topk_ms, "ms");
  }

  const std::vector<std::pair<const char*, Rung>> rungs = {
      {"engine1", Rung::kEngine1},
      {"engine4", Rung::kEngine4},
      {"net", Rung::kNet},
      {"cluster", Rung::kCluster}};
  bool ok = true;
  for (const auto& [name, rung] : rungs) {
    std::vector<double> so_us, topk_ms;
    if (auto d = Deploy(rung, *data)) {
      for (const FacilityId f : order) {
        const uint64_t t0 = runtime::NowNs();
        ok &= Ask(rung, *d, runtime::QueryRequest::ServiceValue(f), nullptr);
        so_us.push_back(static_cast<double>(runtime::NowNs() - t0) / 1e3);
      }
    } else {
      ok = false;
    }
    std::vector<runtime::TraceContextPtr> traces;
    std::vector<WindowDelta> deltas;
    std::vector<double> rtt_us;
    for (const uint32_t k : kLadderKs) {
      auto d = Deploy(rung, *data);
      if (!d) {
        ok = false;
        continue;
      }
      // In-process rungs take a caller-owned trace for their span breakdown.
      auto trace = rung == Rung::kNet
                       ? nullptr
                       : std::make_shared<runtime::TraceContext>("topk", k);
      const auto read = [&]() {
        return rung == Rung::kCluster
                   ? d->cluster->coordinator->mutable_metrics()->Read()
                   : d->engine->metrics().Read();
      };
      std::vector<runtime::MetricsView> workers_before;
      if (rung == Rung::kCluster) {
        for (const auto& w : d->cluster->workers) {
          workers_before.push_back(w->metrics().Read());
        }
      }
      const runtime::MetricsView before = read();
      const uint64_t t0 = runtime::NowNs();
      ok &= Ask(rung, *d, runtime::QueryRequest::TopK(k), trace);
      topk_ms.push_back(static_cast<double>(runtime::NowNs() - t0) / 1e6);
      WindowDelta delta(before, read());
      for (size_t w = 0; w < workers_before.size(); ++w) {
        delta.Add(WindowDelta(workers_before[w],
                              d->cluster->workers[w]->metrics().Read()));
      }
      if (rung == Rung::kCluster) {
        for (const auto& w : d->cluster->coordinator->Workers()) {
          rtt_us.push_back(w.rtt.MeanNs() / 1e3);
        }
      }
      deltas.push_back(std::move(delta));
      if (trace) traces.push_back(trace);
    }
    const Cost cost{Median(so_us), Median(topk_ms)};
    const std::string p = std::string("ladder.") + name;
    out->Add(p + ".so_us", cost.so_us, "us");
    out->Add(p + ".topk_ms", cost.topk_ms, "ms");
    out->Add(p + ".so_self_us", cost.so_us - below.so_us, "us");
    out->Add(p + ".topk_self_ms", cost.topk_ms - below.topk_ms, "ms");
    below = cost;

    // Where a top-k query's time goes, per query, from the engine spans.
    const double queries = static_cast<double>(kLadderKs.size());
    double evaluated = 0, pruned = 0, rpcs = 0, bytes = 0;
    for (const WindowDelta& d : deltas) {
      evaluated += std::max(0.0, d.Get("facilities_evaluated"));
      pruned += std::max(0.0, d.Get("facilities_pruned"));
      rpcs += std::max(0.0, d.Get("coord_rpcs"));
      bytes += std::max(0.0, d.Get("net_bytes_in")) +
               std::max(0.0, d.Get("net_bytes_out"));
    }
    std::map<std::string, double> spans = SpanTotalsUs(traces);
    if (rung == Rung::kEngine4) {
      out->Add(p + ".sweep_us", spans["shard_sweep"] / queries, "us");
      out->Add(p + ".refine_us", spans["shard_refine"] / queries, "us");
      out->Add(p + ".coordinate_us", spans["coordinate"] / queries, "us");
      out->Add(p + ".merge_us", spans["merge"] / queries, "us");
      out->Add(p + ".queue_wait_us",
               Ratio(spans["queue_wait"], SpanCount(traces, "queue_wait")),
               "us");
      out->Add(p + ".topk_eval_fraction",
               Ratio(evaluated, evaluated + pruned), "ratio");
    } else if (rung == Rung::kCluster) {
      out->Add(p + ".round1_us", spans["rpc_round1"] / queries, "us");
      out->Add(p + ".round2_us", spans["rpc_round2"] / queries, "us");
      out->Add(p + ".coordinate_us", spans["coordinate"] / queries, "us");
      out->Add(p + ".merge_us", spans["merge"] / queries, "us");
      out->Add(p + ".rpcs_per_topk", rpcs / queries, "count");
      out->Add(p + ".bytes_per_topk", bytes / queries, "B");
      out->Add(p + ".worker_eval_fraction",
               Ratio(evaluated, evaluated + pruned), "ratio");
      out->Add(p + ".worker_rtt_us", Mean(rtt_us), "us");
    }
  }
  uint64_t failures = ok ? 0 : 1;
  if (!ok) std::fprintf(stderr, "ladder: some rung queries failed\n");
  return failures + AddPublishRung(config, *data, out);
}

}  // namespace tq::bl
