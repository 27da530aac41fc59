// cluster_topk — bound-and-prune over the wire: top-k and SO through a
// RemoteShardSet coordinator over two loopback shard workers. Closed loop,
// 1 caller: 70 % top-k (k in {1, 4, 8, 16}), 30 % SO (f uniform), NYF
// check-ins under Scenario 2. The remote planner and the kBound/kSum codec
// do the extra work next to the in-process engine; reads only, so storage/
// is idle.
//
// Not one of BENCHMARK.json's workloads: every one of its top-k answers
// comes from the workers' result caches, so its latency is mostly thread
// hand-offs and loopback round trips, and on a shared 2-vCPU host its p50
// and throughput spread up to 29-36 % across seeds, wider than any usable
// regression bound. It stays runnable by name (and in --smoke) for reading
// the coordinator's cost; the ladder's `cluster` rung reports that cost in
// every traced run.
#include <memory>
#include <vector>

#include "workloads.h"

namespace tq::bl {

Cluster::~Cluster() {
  coordinator.reset();
  for (auto& server : servers) server->Stop();
  servers.clear();
  workers.clear();
}

std::unique_ptr<Cluster> StartCluster(const Dataset& data) {
  auto cluster = std::make_unique<Cluster>();
  runtime::ShardedEngineOptions options;
  options.num_shards = 4;
  options.num_threads = 1;
  options.tree = TreeOptions(data.model);
  runtime::RemoteShardSetOptions coordinator;
  coordinator.num_threads = 2;
  for (uint32_t w = 0; w < 2; ++w) {
    options.owned_begin = 2 * w;
    options.owned_end = 2 * w + 2;
    cluster->workers.push_back(std::make_unique<runtime::ShardedEngine>(
        data.users, data.facilities, options));
    cluster->servers.push_back(std::make_unique<net::NetServer>(
        cluster->workers.back().get(), net::NetServerOptions{}));
    if (!cluster->servers.back()->Start().ok()) return nullptr;
    coordinator.workers.emplace_back("127.0.0.1",
                                     cluster->servers.back()->port());
  }
  cluster->coordinator =
      std::make_unique<runtime::RemoteShardSet>(coordinator);
  if (!cluster->coordinator->Connect().ok()) return nullptr;
  return cluster;
}

WorkloadResult RunClusterTopK(const RunConfig& config, SpanLog* spans) {
  WorkloadResult result;
  const std::unique_ptr<Dataset> data = NyfDataset(kRoutes);
  const size_t nf = data->facilities.size();
  const ServiceOracle oracle(data->facilities, kPsi, data->oracle_model);
  const std::vector<double> want_so = oracle.ServiceValues(data->users);
  Checker checker;
  const auto check = [&](const runtime::QueryRequest& q,
                         const runtime::QueryResponse& r) {
    if (!r.status.ok()) return;  // counted as failed, not as wrong
    if (q.kind == runtime::QueryKind::kTopK) {
      CheckTopK(r.ranked, want_so, q.k, /*exact=*/false, &checker);
    } else {
      checker.Expect(Checker::Close(r.value, want_so[q.facility]),
                     "cluster_topk SO", r.value, want_so[q.facility]);
    }
  };

  std::unique_ptr<Cluster> cluster;
  for (size_t rep = 0; rep < config.setup_reps(); ++rep) {
    cluster.reset();
    const uint64_t t0 = runtime::NowNs();
    cluster = StartCluster(*data);
    const uint64_t t1 = runtime::NowNs();
    checker.Expect(cluster != nullptr, "cluster_topk starts", 0, 1);
    if (!cluster) {
      result.wrong = checker.failures();
      return result;
    }
    const auto top = runtime::QueryRequest::TopK(8);
    const auto so = runtime::QueryRequest::ServiceValue(0);
    const runtime::QueryResponse top_r = Call(*cluster->coordinator, top);
    const uint64_t t2 = runtime::NowNs();
    const runtime::QueryResponse so_r = Call(*cluster->coordinator, so);
    const uint64_t t3 = runtime::NowNs();
    result.setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    const int64_t root = spans->Add("setup", rep, -1, t0, t3);
    spans->Add("start_workers_and_connect", rep, root, t0, t1);
    spans->Add("first_topk", rep, root, t1, t2);
    spans->Add("first_so", rep, root, t2, t3);
    checker.Expect(top_r.status.ok() && so_r.status.ok(),
                   "cluster_topk set-up answers OK", 0, 1);
    check(top, top_r);
    check(so, so_r);
  }

  const auto read_all = [&cluster]() {
    std::vector<runtime::MetricsView> views;
    views.push_back(cluster->coordinator->mutable_metrics()->Read());
    for (const auto& w : cluster->workers) views.push_back(w->metrics().Read());
    return views;
  };

  // 7 top-k and 3 SO in every 10.
  std::vector<uint32_t> cards(7, kTopK);
  cards.insert(cards.end(), 3, kSO);
  Deck mix(cards, config.SubSeed(1));
  Deck ks({1, 4, 8, 16}, config.SubSeed(2));
  Rng facilities(config.SubSeed(3));
  std::vector<std::pair<runtime::QueryRequest, runtime::QueryResponse>> answers;
  // Steady state before timing: every facility once as SO and every k once
  // as top-k, so the workers' result caches hold what the mix asks for.
  for (uint32_t f = 0; f < nf; ++f) {
    const auto q = runtime::QueryRequest::ServiceValue(f);
    answers.emplace_back(q, Call(*cluster->coordinator, q));
  }
  for (const uint32_t k : {1u, 4u, 8u, 16u}) {
    const auto q = runtime::QueryRequest::TopK(k);
    answers.emplace_back(q, Call(*cluster->coordinator, q));
  }
  std::vector<runtime::MetricsView> at_window;
  size_t window_first = 0;  // first answer of the window
  ClosedLoop(
      config.smoke ? 0.3 : 1.0, config.window_s(), &mix, spans, &result,
      [&](Op op, bool traced) -> Answered {
        const auto f = static_cast<FacilityId>(facilities.NextBelow(nf));
        const runtime::QueryRequest q =
            op == kTopK ? runtime::QueryRequest::TopK(ks.Next())
                        : runtime::QueryRequest::ServiceValue(f);
        Answered a;
        if (traced) {
          a.trace = std::make_shared<runtime::TraceContext>(
              OpName(op), op == kTopK ? q.k : q.facility);
        }
        answers.emplace_back(
            q, Call(*cluster->coordinator, q, a.trace, &a.done_ns));
        return a;
      },
      [&]() {
        at_window = read_all();
        window_first = answers.size();
      });
  const std::vector<runtime::MetricsView> at_end = read_all();

  for (size_t i = 0; i < answers.size(); ++i) {
    check(answers[i].first, answers[i].second);
    if (i >= window_first && !answers[i].second.status.ok()) ++result.failed;
  }
  result.checked = checker.checked();
  result.wrong = checker.failures();

  const WindowDelta coordinator(at_window[0], at_end[0]);
  std::vector<runtime::Trace> traces =
      cluster->coordinator->tracer().Recent(128);
  RecordEngine(spans, "coordinator", traces, coordinator, at_end[0]);
  WindowDelta delta = coordinator;
  for (size_t i = 1; i < at_end.size(); ++i) {
    const WindowDelta worker(at_window[i], at_end[i]);
    const std::vector<runtime::Trace> worker_traces =
        cluster->workers[i - 1]->tracer().Recent(128);
    RecordEngine(spans, "worker" + std::to_string(i - 1), worker_traces,
                 worker, at_end[i]);
    delta.Add(worker);
    traces.insert(traces.end(), worker_traces.begin(), worker_traces.end());
  }
  AddDeploymentLayerMetrics(delta, traces,
                            static_cast<double>(result.attempted),
                            &result.layer);
  return result;
}

}  // namespace tq::bl
