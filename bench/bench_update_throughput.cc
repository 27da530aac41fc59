// §III-C dynamic maintenance: insert/remove throughput of the TQ-tree at
// different index sizes, and the cost of the first query after churn. The
// paper claims O(h) updates; this quantifies them.
//
// The tree is a whole-trajectory TQ(Z) tree: it answers from point-cell
// tables and builds no z-index, so it does the same work as TQ(B), and the
// churned query pays for the inserts pending outside the tables, not for
// lazy z-index rebuilds. The paper's TQ(Z) comes back once a build-time
// switch (ROADMAP item 2, `cell_tables`) lets a tree run zReduce as
// published.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  std::printf("TQ-tree update throughput (scale=%.3f)\n", env.scale);
  Banner("updates/sec and post-churn query cost vs index size");
  std::printf("%-12s %14s %14s %16s %16s\n", "users", "inserts/s",
              "removes/s", "query_clean_s", "query_churned_s");

  for (const size_t n : presets::NytUserSweep(env.scale)) {
    const TrajectorySet users = presets::NytTrips(n);
    const TrajectorySet facs = presets::NyBusRoutes(8, env.DefaultStops());
    const FacilityCatalog catalog(&facs, model.psi);
    const ServiceEvaluator eval(&users, model);
    TQTreeOptions opt;
    opt.beta = env.DefaultBeta();
    opt.model = model;
    TQTree tree(&users, opt);

    // Clean query cost (frozen tree, no pending inserts).
    double sink = 0.0;
    const double q_clean = TimeAvgSeconds(env.reps, [&] {
                             for (uint32_t f = 0; f < catalog.size(); ++f) {
                               sink += EvaluateServiceTQ(&tree, eval,
                                                         catalog.grid(f));
                             }
                           }) /
                           static_cast<double>(catalog.size());

    // Churn 10% of the data.
    const size_t churn = std::max<size_t>(1, n / 10);
    Timer t_rm;
    for (uint32_t u = 0; u < churn; ++u) tree.Remove(u);
    const double rm_s = t_rm.ElapsedSeconds();
    Timer t_in;
    for (uint32_t u = 0; u < churn; ++u) tree.Insert(u);
    const double in_s = t_in.ElapsedSeconds();

    // First query after churn: the churned ids are pending candidates.
    Timer t_q;
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      sink += EvaluateServiceTQ(&tree, eval, catalog.grid(f));
    }
    const double q_churned = t_q.ElapsedSeconds() /
                             static_cast<double>(catalog.size());

    std::printf("%-12zu %14.0f %14.0f %16.6f %16.6f\n", n,
                static_cast<double>(churn) / in_s,
                static_cast<double>(churn) / rm_s, q_clean, q_churned);
    std::printf("# csv:n=%zu,ins_per_s=%.0f,rm_per_s=%.0f,clean=%.9f,"
                "churned=%.9f\n",
                n, static_cast<double>(churn) / in_s,
                static_cast<double>(churn) / rm_s, q_clean, q_churned);
    if (sink < 0) std::printf("impossible\n");
  }
  return 0;
}
