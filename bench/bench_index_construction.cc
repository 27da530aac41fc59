// §VI-B.4 "Index construction time": build times over the NYT user sweep
// (paper: 0.74-3.74 s for TQ(B), 1.03-9.95 s for TQ(Z) at full scale in
// Java).
//
// TQ is the whole-trajectory tree, which is its cell index: it builds no
// quadtree and no z-index, so its variant does not change the build. The
// paper's TQ(B)/TQ(Z) build gap is a quadtree cost, which only segmented
// trees pay (bench_ablation_beta times their builds).
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  std::printf("Index construction time (scale=%.3f)\n", env.scale);
  Banner("build seconds vs #user trajectories (NYT)");
  PrintSeriesHeader({"BL_quadtree", "TQ"});
  const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
  const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  for (size_t i = 0; i < sweep.size(); ++i) {
    const TrajectorySet users = presets::NytTrips(sweep[i]);
    double t_bl = 0, t_tq = 0;
    {
      Timer t;
      PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
      pq.InsertAll(users);
      t_bl = t.ElapsedSeconds();
    }
    {
      TQTreeOptions opt;
      opt.model = model;
      Timer t;
      const TQTree tree(&users, opt);
      t_tq = t.ElapsedSeconds();
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%s(%zu)", day_labels[i], sweep[i]);
    PrintTimeRow(label, {"BL_quadtree", "TQ"}, {t_bl, t_tq});
  }
  return 0;
}
