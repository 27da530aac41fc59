// Library-level probes: direct calls into service/, tqtree/, query/ and
// cover/ on the workload's own users and its first (up to) 128 facilities,
// so every traced run reports these layers whatever the workload deploys.
#include <algorithm>
#include <memory>
#include <vector>

#include "cover/greedy.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "workloads.h"

namespace tq::bl {
namespace {

constexpr size_t kPairs = 100000;  // (user, facility) pairs for the kernel
constexpr size_t kProbeK = 8;

double MsBetween(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

void AddLibraryProbes(const Dataset& data, const RunConfig& config,
                      MetricList* out) {
  const size_t np = std::min(kRoutes, data.facilities.size());
  TrajectorySet probe_facilities;
  for (uint32_t f = 0; f < np; ++f) {
    probe_facilities.Add(data.facilities.points(f));
  }

  // Construction, median of 3: the catalog over the workload's whole
  // facility set, the tree over its users with every z-index built.
  std::vector<double> catalog_ms, build_ms;
  std::unique_ptr<TQTree> tree;
  for (int i = 0; i < 3; ++i) {
    tree.reset();
    const uint64_t t0 = runtime::NowNs();
    const FacilityCatalog all(&data.facilities, kPsi);
    const uint64_t t1 = runtime::NowNs();
    tree = std::make_unique<TQTree>(&data.users, TreeOptions(data.model));
    tree->BuildAllZIndexes();
    const uint64_t t2 = runtime::NowNs();
    catalog_ms.push_back(MsBetween(t0, t1));
    build_ms.push_back(MsBetween(t1, t2));
  }
  const FacilityCatalog catalog(&probe_facilities, kPsi);
  const ServiceEvaluator eval(&data.users, data.model);

  // The exact check alone, on seeded uniform (user, facility) pairs.
  Rng rng(config.SubSeed(30));
  std::vector<std::pair<uint32_t, uint32_t>> pairs(kPairs);
  for (auto& [u, f] : pairs) {
    u = static_cast<uint32_t>(rng.NextBelow(data.users.size()));
    f = static_cast<uint32_t>(rng.NextBelow(np));
  }
  const uint64_t e0 = runtime::NowNs();
  for (const auto& [u, f] : pairs) eval.Evaluate(u, catalog.grid(f));
  const double evaluate_ns =
      static_cast<double>(runtime::NowNs() - e0) / static_cast<double>(kPairs);

  // Algorithm 1 on every probe facility.
  QueryStats so_stats;
  const uint64_t s0 = runtime::NowNs();
  for (uint32_t f = 0; f < np; ++f) {
    EvaluateServiceTQ(tree.get(), eval, catalog.grid(f), &so_stats);
  }
  const double so_ms =
      MsBetween(s0, runtime::NowNs()) / static_cast<double>(np);
  const double checks_per_so =
      static_cast<double>(so_stats.exact_checks) / static_cast<double>(np);

  // Algorithms 3-4, and the two-step greedy with its pool step replayed.
  const uint64_t k0 = runtime::NowNs();
  const TopKResult top = TopKFacilitiesTQ(tree.get(), catalog, eval, kProbeK);
  const uint64_t k1 = runtime::NowNs();
  TopKFacilitiesTQ(tree.get(), catalog, eval, DefaultPoolSize(kProbeK, np));
  const uint64_t k2 = runtime::NowNs();
  const CoverResult cover = GreedyCoverTQ(tree.get(), catalog, eval, kProbeK);
  const uint64_t k3 = runtime::NowNs();

  out->Add("service.evaluate_ns", evaluate_ns, "ns");
  out->Add("service.exact_checks_per_so", checks_per_so, "count");
  out->Add("service.catalog_build_ms", Median(catalog_ms), "ms");
  out->Add("tqtree.build_ms", Median(build_ms), "ms");
  out->Add("tqtree.nodes_visited_per_so",
           static_cast<double>(so_stats.nodes_visited) /
               static_cast<double>(np),
           "count");
  out->Add("tqtree.entries_per_check",
           Ratio(static_cast<double>(so_stats.entries_scanned),
                 static_cast<double>(so_stats.exact_checks)),
           "ratio");
  out->Add("tqtree.zreduce_bucket_frac",
           Ratio(static_cast<double>(so_stats.zreduce.buckets_visited),
                 static_cast<double>(so_stats.zreduce.buckets_total)),
           "ratio");
  out->Add("query.so_ms", so_ms, "ms");
  out->Add("query.so_self_ms", so_ms - checks_per_so * evaluate_ns / 1e6, "ms");
  out->Add("query.topk_ms", MsBetween(k0, k1), "ms");
  out->Add("query.topk_check_ratio",
           Ratio(static_cast<double>(top.stats.exact_checks),
                 static_cast<double>(so_stats.exact_checks)),
           "ratio");
  out->Add("query.topk_heap_pops", static_cast<double>(top.stats.heap_pops),
           "count");
  out->Add("query.topk_relax_rounds",
           static_cast<double>(top.stats.relax_rounds), "count");
  out->Add("cover.pool_size", static_cast<double>(cover.pool_size), "count");
  out->Add("cover.pool_ms", MsBetween(k1, k2), "ms");
  out->Add("cover.greedy_ms", MsBetween(k2, k3) - MsBetween(k1, k2), "ms");
  out->Add("cover.served_users", static_cast<double>(cover.users_served),
           "users");
}

}  // namespace tq::bl
