// Ablation: the pruning funnel of the three methods on one default query
// workload — how many entries each stage touches, and what the zReduce
// z-cell filter contributes on top of the q-node hierarchy.
//
// Rows: BL (quadtree range gather), TQ(B) plain scan, TQ(Z) zReduce. The
// TQ rows index the trips as segmented trees: a whole tree answers from
// its point-cell tables and walks neither a node list nor a z-index, so
// only a segmented tree shows the funnel.
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
  opt.mode = TrajMode::kSegmented;
  opt.variant = IndexVariant::kBasic;
  TQTree tq_basic(&users, opt);
  opt.variant = IndexVariant::kZOrder;
  TQTree tq_z(&users, opt);

  Banner("entries scanned / exact checks / z-buckets visited of total / "
         "seconds per facility (averaged)");
  std::printf("%-16s %14s %14s %18s %12s\n", "method", "entries_scanned",
              "exact_checks", "z_buckets", "seconds");
  const size_t nf = catalog.size();
  double sink = 0.0;

  // `stats` summed over env.reps passes over the nf facilities.
  auto report = [&](const char* name, QueryStats stats, double seconds) {
    const size_t per = nf * env.reps;
    char buckets[40];
    std::snprintf(buckets, sizeof(buckets), "%zu/%zu",
                  stats.zreduce.buckets_visited / per,
                  stats.zreduce.buckets_total / per);
    std::printf("%-16s %14.0f %14.0f %18s %12.6f\n", name,
                static_cast<double>(stats.entries_scanned) /
                    static_cast<double>(per),
                static_cast<double>(stats.exact_checks) /
                    static_cast<double>(per),
                buckets, seconds);
    std::printf("# csv:%s,scanned=%zu,exact=%zu,zbuckets=%zu,zvisited=%zu,"
                "sec=%.9f\n",
                name, stats.entries_scanned / per, stats.exact_checks / per,
                stats.zreduce.buckets_total / per,
                stats.zreduce.buckets_visited / per, seconds);
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
    report(name, stats, s);
  };
  run_tree("TQ(B)", &tq_basic);
  run_tree("TQ(Z)", &tq_z);
  if (sink < 0) std::printf("impossible\n");
  return 0;
}
