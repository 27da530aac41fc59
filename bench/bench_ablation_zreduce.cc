// Ablation: the pruning funnel of the three methods on one default query
// workload — how many entries each stage touches, and what the zReduce
// z-cell filter contributes on top of the q-node hierarchy.
//
// Rows: BL (quadtree range gather), TQ(B) plain scan, TQ(Z) zReduce.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  const TrajectorySet users = presets::NytTrips(env.DefaultUsers());
  const TrajectorySet facs = presets::NyBusRoutes(16, env.DefaultStops());
  const FacilityCatalog catalog(&facs, model.psi);
  const ServiceEvaluator eval(&users, model);
  std::printf("Ablation: pruning funnel (users=%zu, %zu facilities)\n",
              users.size(), catalog.size());

  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
  pq.InsertAll(users);

  TQTreeOptions opt;
  opt.beta = env.DefaultBeta();
  opt.model = model;
  opt.variant = IndexVariant::kBasic;
  TQTree tq_basic(&users, opt);
  opt.variant = IndexVariant::kZOrder;
  TQTree tq_z(&users, opt);

  Banner("entries scanned / exact checks / seconds per facility (averaged)");
  std::printf("%-16s %14s %14s %12s\n", "method", "entries_scanned",
              "exact_checks", "seconds");
  const size_t nf = catalog.size();
  double sink = 0.0;

  auto report = [&](const char* name, QueryStats stats, double seconds) {
    std::printf("%-16s %14.0f %14.0f %12.6f\n", name,
                static_cast<double>(stats.entries_scanned) /
                    static_cast<double>(nf),
                static_cast<double>(stats.exact_checks) /
                    static_cast<double>(nf),
                seconds);
    std::printf("# csv:%s,scanned=%zu,exact=%zu,sec=%.9f\n", name,
                stats.entries_scanned / nf, stats.exact_checks / nf,
                seconds);
  };

  {
    QueryStats stats;
    const double s = TimeAvgSeconds(env.reps, [&] {
                       for (uint32_t f = 0; f < nf; ++f) {
                         sink += EvaluateServiceBaseline(
                             pq, eval, catalog.grid(f), &stats);
                       }
                     }) /
                     static_cast<double>(nf);
    stats.entries_scanned /= env.reps;
    stats.exact_checks /= env.reps;
    report("BL", stats, s);
  }
  {
    // Stronger-than-paper baseline: per-stop disk gather.
    QueryStats stats;
    const double s = TimeAvgSeconds(env.reps, [&] {
                       for (uint32_t f = 0; f < nf; ++f) {
                         sink += EvaluateServiceBaselineDisks(
                             pq, eval, catalog.grid(f), &stats);
                       }
                     }) /
                     static_cast<double>(nf);
    stats.entries_scanned /= env.reps;
    stats.exact_checks /= env.reps;
    report("BL(disks)", stats, s);
  }
  {
    // The same EMBR-gather baseline on an STR R-tree (§VII index family).
    const PointRTree rt = PointRTree::FromTrajectories(users);
    QueryStats stats;
    const double s = TimeAvgSeconds(env.reps, [&] {
                       for (uint32_t f = 0; f < nf; ++f) {
                         sink += EvaluateServiceBaselineRTree(
                             rt, eval, catalog.grid(f), &stats);
                       }
                     }) /
                     static_cast<double>(nf);
    stats.entries_scanned /= env.reps;
    stats.exact_checks /= env.reps;
    report("BL(rtree)", stats, s);
  }
  auto run_tree = [&](const char* name, TQTree* tree) {
    QueryStats stats;
    const double s = TimeAvgSeconds(env.reps, [&] {
                       for (uint32_t f = 0; f < nf; ++f) {
                         sink += EvaluateServiceTQ(tree, eval,
                                                   catalog.grid(f), &stats);
                       }
                     }) /
                     static_cast<double>(nf);
    stats.entries_scanned /= env.reps;
    stats.exact_checks /= env.reps;
    report(name, stats, s);
  };
  run_tree("TQ(B)", &tq_basic);
  run_tree("TQ(Z)", &tq_z);
  if (sink < 0) std::printf("impossible\n");
  return 0;
}
