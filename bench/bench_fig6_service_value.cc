// Figure 6: average time to compute the service value of a single facility.
//   (a) vs number of user trajectories (NYT 0.5/1/2/3 days, Table III);
//   (b) vs number of stops per facility (8..512).
// Series: BL (point-quadtree baseline) and TQ, the whole-trajectory tree,
// which answers from its cell index whatever its variant (the TQ(B)/TQ(Z)
// comparison lives on segmented trees: Figs. 8 and 9).
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

// Average per-facility service-value time over all facilities of the
// workload, repeated `reps` times.
void MeasureRow(Workload* w, const BenchEnv& env, const std::string& label) {
  const size_t nf = w->catalog->size();
  double sink = 0.0;
  const double bl = TimeAvgSeconds(env.reps, [&] {
                      for (uint32_t f = 0; f < nf; ++f) {
                        sink += EvaluateServiceBaseline(
                            *w->bl_index, *w->eval, w->catalog->grid(f));
                      }
                    }) /
                    static_cast<double>(nf);
  const double tq = TimeAvgSeconds(env.reps, [&] {
                      for (uint32_t f = 0; f < nf; ++f) {
                        sink += EvaluateServiceTQ(w->tq.get(), *w->eval,
                                                  w->catalog->grid(f));
                      }
                    }) /
                    static_cast<double>(nf);
  PrintTimeRow(label, {"BL", "TQ"}, {bl, tq});
  if (sink < 0) std::printf("impossible\n");  // keep the work observable
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  std::printf("Figure 6: service value of a single facility "
              "(scale=%.3f reps=%zu)\n",
              env.scale, env.reps);

  Banner("Fig 6(a): time vs #user trajectories (days of NYT)");
  PrintSeriesHeader({"BL", "TQ"});
  {
    const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
    const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
    for (size_t i = 0; i < sweep.size(); ++i) {
      Workload w = BuildWorkload(
          presets::NytTrips(sweep[i]),
          presets::NyBusRoutes(16, env.DefaultStops()), model,
          env.DefaultBeta());
      MeasureRow(&w, env, day_labels[i]);
    }
  }

  Banner("Fig 6(b): time vs #stops per facility");
  PrintSeriesHeader({"BL", "TQ"});
  for (const size_t stops : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(presets::NytTrips(env.DefaultUsers()),
                               presets::NyBusRoutes(16, stops), model,
                               env.DefaultBeta());
    MeasureRow(&w, env, "S=" + std::to_string(stops));
  }
  return 0;
}
