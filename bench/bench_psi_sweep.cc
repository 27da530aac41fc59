// §VI-B.1(iii): distance threshold ψ sweep (the paper varied ψ, observed no
// significant change for the TQ-tree approaches, and omitted the graph; we
// print it). TQ is the whole-trajectory tree.
#include <cstdio>

#include "bench_util.h"

using namespace tq;          // NOLINT(build/namespaces)
using namespace tq::bench;   // NOLINT(build/namespaces)

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  std::printf("psi sweep: single-facility service value (scale=%.3f)\n",
              env.scale);
  Banner("time vs psi (m), NYT default workload");
  PrintSeriesHeader({"BL", "TQ"});
  double sink = 0.0;
  for (const double psi : {50.0, 100.0, 200.0, 400.0, 800.0}) {
    const ServiceModel model = ServiceModel::Endpoints(psi);
    Workload w = BuildWorkload(presets::NytTrips(env.DefaultUsers()),
                               presets::NyBusRoutes(16, env.DefaultStops()),
                               model, env.DefaultBeta());
    const size_t nf = w.catalog->size();
    const double bl = TimeAvgSeconds(env.reps, [&] {
                        for (uint32_t f = 0; f < nf; ++f) {
                          sink += EvaluateServiceBaseline(
                              *w.bl_index, *w.eval, w.catalog->grid(f));
                        }
                      }) /
                      static_cast<double>(nf);
    const double tq = TimeAvgSeconds(env.reps, [&] {
                        for (uint32_t f = 0; f < nf; ++f) {
                          sink += EvaluateServiceTQ(w.tq.get(), *w.eval,
                                                    w.catalog->grid(f));
                        }
                      }) /
                      static_cast<double>(nf);
    char label[32];
    std::snprintf(label, sizeof(label), "psi=%.0f", psi);
    PrintTimeRow(label, {"BL", "TQ"}, {bl, tq});
  }
  if (sink < 0) std::printf("impossible\n");
  return 0;
}
