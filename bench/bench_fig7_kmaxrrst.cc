// Figure 7: total kMaxRRST query time on NYT.
//   (a) vs #user trajectories; (b) vs k; (c) vs #stops; (d) vs #facilities.
// Series: BL and TQ, the whole-trajectory tree, which runs the best-first
// search (Alg. 3) over its cell index whatever its variant.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

void MeasureTopK(Workload* w, size_t k, const BenchEnv& env,
                 const std::string& label) {
  double sink = 0.0;
  const double bl = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesBaseline(*w->bl_index, *w->catalog, *w->eval, k)
                .ranked[0]
                .value;
  });
  const double tq = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesTQ(w->tq.get(), *w->catalog, *w->eval, k)
                .ranked[0]
                .value;
  });
  PrintTimeRow(label, {"BL", "TQ"}, {bl, tq});
  if (sink < 0) std::printf("impossible\n");
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  std::printf("Figure 7: kMaxRRST on NYT (scale=%.3f reps=%zu)\n", env.scale,
              env.reps);

  Banner("Fig 7(a): time vs #user trajectories (days of NYT)");
  PrintSeriesHeader({"BL", "TQ"});
  {
    const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
    const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
    for (size_t i = 0; i < sweep.size(); ++i) {
      Workload w = BuildWorkload(
          presets::NytTrips(sweep[i]),
          presets::NyBusRoutes(env.DefaultFacilities(), env.DefaultStops()),
          model, env.DefaultBeta());
      MeasureTopK(&w, env.DefaultK(), env, day_labels[i]);
    }
  }

  Banner("Fig 7(b): time vs k");
  PrintSeriesHeader({"BL", "TQ"});
  {
    Workload w = BuildWorkload(
        presets::NytTrips(env.DefaultUsers()),
        presets::NyBusRoutes(env.DefaultFacilities(), env.DefaultStops()),
        model, env.DefaultBeta());
    for (const size_t k : {4u, 8u, 16u, 32u}) {
      MeasureTopK(&w, k, env, "k=" + std::to_string(k));
    }
  }

  Banner("Fig 7(c): time vs #stops");
  PrintSeriesHeader({"BL", "TQ"});
  for (const size_t stops : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(
        presets::NytTrips(env.DefaultUsers()),
        presets::NyBusRoutes(env.DefaultFacilities(), stops), model,
        env.DefaultBeta());
    MeasureTopK(&w, env.DefaultK(), env, "S=" + std::to_string(stops));
  }

  Banner("Fig 7(d): time vs #facilities");
  PrintSeriesHeader({"BL", "TQ"});
  for (const size_t nf : {16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(presets::NytTrips(env.DefaultUsers()),
                               presets::NyBusRoutes(nf, env.DefaultStops()),
                               model, env.DefaultBeta());
    MeasureTopK(&w, env.DefaultK(), env, "N=" + std::to_string(nf));
  }
  return 0;
}
