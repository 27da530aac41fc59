// §VI-B.4 "Index construction time": TQ(B) and TQ(Z) build times over the
// NYT user sweep (paper: 0.74-3.74 s for TQ(B), 1.03-9.95 s for TQ(Z) at
// full scale in Java).
//
// Both trees here are whole-trajectory trees, which answer from point-cell
// tables and build no z-index, so TQ(Z) builds the same structure as TQ(B)
// and the two columns time the same work. The paper's gap comes back once
// a build-time switch (ROADMAP item 2, `cell_tables`) lets a tree run
// Algorithms 1-2 with zReduce as published.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  std::printf("Index construction time (scale=%.3f)\n", env.scale);
  Banner("build seconds vs #user trajectories (NYT)");
  PrintSeriesHeader({"BL_quadtree", "TQ_B", "TQ_Z"});
  const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
  const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  for (size_t i = 0; i < sweep.size(); ++i) {
    const TrajectorySet users = presets::NytTrips(sweep[i]);
    double t_bl = 0, t_b = 0, t_z = 0;
    {
      Timer t;
      PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
      pq.InsertAll(users);
      t_bl = t.ElapsedSeconds();
    }
    {
      TQTreeOptions opt;
      opt.beta = env.DefaultBeta();
      opt.model = model;
      opt.variant = IndexVariant::kBasic;
      Timer t;
      const TQTree tree(&users, opt);
      t_b = t.ElapsedSeconds();
    }
    {
      TQTreeOptions opt;
      opt.beta = env.DefaultBeta();
      opt.model = model;
      opt.variant = IndexVariant::kZOrder;
      Timer t;
      const TQTree tree(&users, opt);
      t_z = t.ElapsedSeconds();
      std::printf("# TQ(Z) %s stats: %s\n", day_labels[i],
                  tree.ComputeStats().ToString().c_str());
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%s(%zu)", day_labels[i], sweep[i]);
    PrintTimeRow(label, {"BL_quadtree", "TQ_B", "TQ_Z"}, {t_bl, t_b, t_z});
  }
  return 0;
}
