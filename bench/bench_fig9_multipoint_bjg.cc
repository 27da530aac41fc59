// Figure 9: kMaxRRST on the Beijing Geolife-like multipoint dataset, using
// the segmented TQ-tree ("consider every pair of points as a single
// trajectory", §VI-B.3). (a) vs #stops; (b) vs #facilities.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

void MeasureRow(Workload* w, size_t k, const BenchEnv& env,
                const std::string& label) {
  double sink = 0.0;
  const double bl = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesBaseline(*w->bl_index, *w->catalog, *w->eval, k)
                .ranked[0]
                .value;
  });
  const double tb = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesTQ(w->tq_basic.get(), *w->catalog, *w->eval, k)
                .ranked[0]
                .value;
  });
  const double tz = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesTQ(w->tq.get(), *w->catalog, *w->eval, k)
                .ranked[0]
                .value;
  });
  PrintTimeRow(label, {"BL", "TQ_B", "TQ_Z"}, {bl, tb, tz});
  if (sink < 0) std::printf("impossible\n");
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  // BJG is small (30,266 full-scale); scale but keep a sensible floor.
  const auto num_traces =
      std::max<size_t>(2000, static_cast<size_t>(30266 * env.scale));
  const ServiceModel model = ServiceModel::PointCount(env.DefaultPsi());
  std::printf("Figure 9: BJG segmented kMaxRRST (traces=%zu reps=%zu)\n",
              num_traces, env.reps);

  Banner("Fig 9(a): time vs #stops");
  PrintSeriesHeader({"BL", "TQ_B", "TQ_Z"});
  for (const size_t stops : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(presets::BjgTraces(num_traces),
                               presets::BjBusRoutes(64, stops), model,
                               env.DefaultBeta(), TrajMode::kSegmented);
    MeasureRow(&w, env.DefaultK(), env, "S=" + std::to_string(stops));
  }

  Banner("Fig 9(b): time vs #facilities");
  PrintSeriesHeader({"BL", "TQ_B", "TQ_Z"});
  for (const size_t nf : {16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(presets::BjgTraces(num_traces),
                               presets::BjBusRoutes(nf, env.DefaultStops()),
                               model, env.DefaultBeta(),
                               TrajMode::kSegmented);
    MeasureRow(&w, env.DefaultK(), env, "N=" + std::to_string(nf));
  }
  return 0;
}
