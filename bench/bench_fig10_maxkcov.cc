// Figure 10: MaxkCovRST on NYT.
//   (a) time vs #users    (b) #users served vs #users
//   (c) time vs #facilities  (d) #users served vs #facilities
// Series: G-BL (straightforward greedy, baseline evaluation), G-TQ (two-step
// greedy) and Gn-TQ (genetic, 20 iterations) over the whole-trajectory tree,
// which answers from its cell index whatever its variant.
#include <cstdio>

#include "bench_util.h"
#include "cover/genetic.h"
#include "cover/greedy.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

namespace {

struct Row {
  double t_gbl, t_gtq, t_gn;
  size_t u_gbl, u_gtq, u_gn;
};

Row Measure(Workload* w, size_t k) {
  Row r{};
  {
    Timer t;
    const CoverResult res =
        GreedyCoverBaseline(*w->bl_index, *w->catalog, *w->eval, k);
    r.t_gbl = t.ElapsedSeconds();
    r.u_gbl = res.users_served;
  }
  {
    Timer t;
    const CoverResult res =
        GreedyCoverTQ(w->tq.get(), *w->catalog, *w->eval, k);
    r.t_gtq = t.ElapsedSeconds();
    r.u_gtq = res.users_served;
  }
  {
    Timer t;
    const CoverResult res =
        GeneticCoverTQ(w->tq.get(), *w->catalog, *w->eval, k);
    r.t_gn = t.ElapsedSeconds();
    r.u_gn = res.users_served;
  }
  return r;
}

void PrintRow(const std::string& label, const Row& r) {
  PrintTimeRow(label, {"G_BL", "G_TQ", "Gn_TQ"}, {r.t_gbl, r.t_gtq, r.t_gn});
  std::printf("%-14s served: G_BL=%zu G_TQ=%zu Gn_TQ=%zu\n", "", r.u_gbl,
              r.u_gtq, r.u_gn);
  std::printf("# csv-served:%s,G_BL=%zu,G_TQ=%zu,Gn_TQ=%zu\n", label.c_str(),
              r.u_gbl, r.u_gtq, r.u_gn);
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  const ServiceModel model = ServiceModel::Endpoints(env.DefaultPsi());
  std::printf("Figure 10: MaxkCovRST on NYT (scale=%.3f k=%zu)\n", env.scale,
              env.DefaultK());

  Banner("Fig 10(a,b): time and #users served vs #user trajectories");
  PrintSeriesHeader({"G_BL", "G_TQ", "Gn_TQ"});
  {
    const std::vector<const char*> day_labels = {"0.5d", "1d", "2d", "3d"};
    const std::vector<size_t> sweep = presets::NytUserSweep(env.scale);
    for (size_t i = 0; i < sweep.size(); ++i) {
      Workload w = BuildWorkload(
          presets::NytTrips(sweep[i]),
          presets::NyBusRoutes(env.DefaultFacilities(), env.DefaultStops()),
          model, env.DefaultBeta());
      PrintRow(day_labels[i], Measure(&w, env.DefaultK()));
    }
  }

  Banner("Fig 10(c,d): time and #users served vs #facilities");
  PrintSeriesHeader({"G_BL", "G_TQ", "Gn_TQ"});
  for (const size_t nf : {16u, 32u, 64u, 128u, 256u, 512u}) {
    Workload w = BuildWorkload(presets::NytTrips(env.DefaultUsers()),
                               presets::NyBusRoutes(nf, env.DefaultStops()),
                               model, env.DefaultBeta());
    PrintRow("N=" + std::to_string(nf), Measure(&w, env.DefaultK()));
  }
  return 0;
}
