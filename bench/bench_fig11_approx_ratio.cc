// Figure 11: approximation ratio of G-TQ and Gn-TQ (greedy and genetic over
// the whole-trajectory tree) against the exact MaxkCovRST solution, (a) vs
// #users, (b) vs #facilities.
//
// The exact solver enumerates C(pool, k) combinations; following the paper's
// reduced instances, the pool is capped at the top `kExactPool` facilities
// by single-facility service (printed with the row so the restriction is
// explicit).
#include <cstdio>

#include "bench_util.h"
#include "cover/exact.h"
#include "cover/genetic.h"
#include "cover/greedy.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

constexpr size_t kExactPool = 20;

void MeasureRow(Workload* w, size_t k, const std::string& label) {
  // Pool: top facilities by SO, served sets collected once.
  const size_t pool_size = std::min(kExactPool, w->catalog->size());
  const TopKResult pool =
      TopKFacilitiesTQ(w->tq.get(), *w->catalog, *w->eval, pool_size);
  std::vector<FacilityServedSet> sets;
  for (const RankedFacility& rf : pool.ranked) {
    sets.push_back(
        CollectServedSetTQ(w->tq.get(), *w->catalog, *w->eval, rf.id));
  }
  const ExactCoverResult exact = ExactCover(sets, k, *w->eval);
  const CoverResult greedy = GreedyCover(sets, k, *w->eval);
  // Genetic over the same pool for a like-for-like ratio.
  ServedSetCache cache(w->tq.get(), w->catalog.get(), w->eval.get());
  GeneticOptions gopt;
  const CoverResult genetic =
      GeneticCover(&cache, w->catalog->size(), k, *w->eval, gopt);
  const double g_ratio = exact.total > 0 ? greedy.total / exact.total : 1.0;
  const double n_ratio = exact.total > 0 ? genetic.total / exact.total : 1.0;
  std::printf("%-14s %12.4f %12.4f   (exact=%.0f over top-%zu pool)\n",
              label.c_str(), g_ratio, n_ratio, exact.total, pool_size);
  std::printf("# csv:%s,G_TQ=%.6f,Gn_TQ=%.6f\n", label.c_str(), g_ratio,
              n_ratio);
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  const size_t k = 4;
  std::printf("Figure 11: MaxkCovRST approximation ratio (k=%zu)\n", k);

  Banner("Fig 11(a): ratio vs #user trajectories");
  PrintSeriesHeader({"G_TQ", "Gn_TQ"});
  {
    const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
    const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
    for (size_t i = 0; i < sweep.size(); ++i) {
      Workload w = BuildWorkload(
          presets::NytTrips(sweep[i]), presets::NyBusRoutes(32, 32), model,
          env.DefaultBeta());
      MeasureRow(&w, k, day_labels[i]);
    }
  }

  Banner("Fig 11(b): ratio vs #facilities");
  PrintSeriesHeader({"G_TQ", "Gn_TQ"});
  for (const size_t nf : {16u, 32u, 64u}) {
    Workload w = BuildWorkload(presets::NytTrips(env.DefaultUsers()),
                               presets::NyBusRoutes(nf, 32), model,
                               env.DefaultBeta());
    MeasureRow(&w, k, "N=" + std::to_string(nf));
  }
  return 0;
}
