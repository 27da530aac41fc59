// Figure 8: kMaxRRST on the multipoint NYF (Foursquare-like) dataset.
//   (a) vs #stops; (b) vs #facilities.
// Series: BL, S-TQ(B) and S-TQ(Z) (segmented index: Algorithms 1-2, with
// zReduce on TQ(Z)) and F-TQ (full-trajectory index, which answers from its
// cell index whatever its variant). The baseline is the same in both
// framings, so it is printed once.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

// The segmented workload and, over the same users, the full-trajectory tree.
struct MultiWorkload {
  Workload segmented;
  std::unique_ptr<TQTree> full;
};

MultiWorkload Build(const BenchEnv& env, size_t num_users, size_t routes,
                    size_t stops) {
  const ServiceModel model = ServiceModel::PointCount(env.DefaultPsi());
  MultiWorkload mw;
  mw.segmented = BuildWorkload(presets::NyfCheckins(num_users),
                               presets::NyBusRoutes(routes, stops), model,
                               env.DefaultBeta(), TrajMode::kSegmented);
  TQTreeOptions opt;
  opt.model = model;
  mw.full = std::make_unique<TQTree>(mw.segmented.users.get(), opt);
  return mw;
}

void MeasureRow(MultiWorkload* mw, size_t k, const BenchEnv& env,
                const std::string& label) {
  const Workload& w = mw->segmented;
  double sink = 0.0;
  const double bl = TimeAvgSeconds(env.reps, [&] {
    sink += TopKFacilitiesBaseline(*w.bl_index, *w.catalog, *w.eval, k)
                .ranked[0]
                .value;
  });
  auto tq_time = [&](TQTree* tree) {
    return TimeAvgSeconds(env.reps, [&] {
      sink += TopKFacilitiesTQ(tree, *w.catalog, *w.eval, k).ranked[0].value;
    });
  };
  const double stb = tq_time(w.tq_basic.get());
  const double stz = tq_time(w.tq.get());
  const double ftq = tq_time(mw->full.get());
  PrintTimeRow(label, {"BL", "S_TQ_B", "S_TQ_Z", "F_TQ"},
               {bl, stb, stz, ftq});
  if (sink < 0) std::printf("impossible\n");
}

}  // namespace

int main() {
  BenchEnv env = BenchEnv::FromEnv();
  // Multipoint top-k queries are the heaviest in the suite; cap repetitions
  // so the default run stays in bench-suite budget (REPRO_REPS overrides).
  if (std::getenv("REPRO_REPS") == nullptr) {
    env.reps = std::max<size_t>(1, env.reps / 2);
  }
  const auto num_users = static_cast<size_t>(212751 * env.scale);
  std::printf("Figure 8: multipoint NYF kMaxRRST (users=%zu reps=%zu)\n",
              num_users, env.reps);

  Banner("Fig 8(a): time vs #stops");
  PrintSeriesHeader({"BL", "S_TQ_B", "S_TQ_Z", "F_TQ"});
  for (const size_t stops : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    MultiWorkload mw = Build(env, num_users, 64, stops);
    MeasureRow(&mw, env.DefaultK(), env, "S=" + std::to_string(stops));
  }

  Banner("Fig 8(b): time vs #facilities");
  PrintSeriesHeader({"BL", "S_TQ_B", "S_TQ_Z", "F_TQ"});
  for (const size_t nf : {16u, 32u, 64u, 128u, 256u, 512u}) {
    MultiWorkload mw = Build(env, num_users, nf, env.DefaultStops());
    MeasureRow(&mw, env.DefaultK(), env, "N=" + std::to_string(nf));
  }
  return 0;
}
