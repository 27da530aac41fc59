// Ablation: the node/bucket capacity β ("size of a memory block", §III).
// Sweeps β and reports segmented TQ(Z) build time, tree shape, and
// per-facility service-value time — the trade-off the paper's β embodies.
// β shapes the quadtree, which only segmented trees build (one segment per
// NYT trip here); a whole tree is its cell index and ignores β.
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
  std::printf("Ablation: beta sweep (users=%zu)\n", users.size());
  Banner("build seconds / query seconds / tree shape vs beta");
  std::printf("%-10s %12s %12s   %s\n", "beta", "build_s", "query_s",
              "tree");
  double sink = 0.0;
  for (const size_t beta : {8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    TQTreeOptions opt;
    opt.beta = beta;
    opt.mode = TrajMode::kSegmented;
    opt.model = model;
    Timer build;
    TQTree tree(&users, opt);
    const double build_s = build.ElapsedSeconds();
    const double query_s =
        TimeAvgSeconds(env.reps, [&] {
          for (uint32_t f = 0; f < catalog.size(); ++f) {
            sink += EvaluateServiceTQ(&tree, eval, catalog.grid(f));
          }
        }) /
        static_cast<double>(catalog.size());
    std::printf("%-10zu %12.4f %12.6f   %s\n", beta, build_s, query_s,
                tree.ComputeStats().ToString().c_str());
    std::printf("# csv:beta=%zu,build=%.6f,query=%.9f\n", beta, build_s,
                query_s);
  }
  if (sink < 0) std::printf("impossible\n");
  return 0;
}
