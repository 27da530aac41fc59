// Dynamic maintenance walk-through (§III-C): insert and remove trajectories
// in a live TQ-tree while queries keep answering exactly.
#include <cstdio>

#include "datagen/presets.h"
#include "query/topk.h"

int main() {
  tq::TrajectorySet trips = tq::presets::NytTrips(20000);
  const tq::TrajectorySet routes = tq::presets::NyBusRoutes(16, 48);
  const tq::ServiceModel model = tq::ServiceModel::Endpoints(200.0);

  tq::TQTreeOptions options;
  options.model = model;
  tq::TQTree index(&trips, options);
  const tq::ServiceEvaluator evaluator(&trips, model);
  const tq::FacilityCatalog catalog(&routes, model.psi);

  const tq::StopGrid& probe = catalog.grid(0);
  std::printf("initial:  SO(U, route0) = %.0f   [%s]\n",
              tq::EvaluateServiceTQ(&index, evaluator, probe),
              index.ComputeStats().ToString().c_str());

  // Retire the oldest quarter of the data (e.g. a sliding-window feed).
  const uint32_t retired = static_cast<uint32_t>(trips.size() / 4);
  for (uint32_t u = 0; u < retired; ++u) index.Remove(u);
  std::printf("-25%%:     SO(U, route0) = %.0f   (units=%zu)\n",
              tq::EvaluateServiceTQ(&index, evaluator, probe),
              index.num_units());

  // Fresh trips arrive; until the next freeze they are candidates of every
  // query beside the point-cell tables.
  const tq::CityModel city = tq::presets::NewYork();
  tq::Rng rng(99);
  for (int i = 0; i < 8000; ++i) {
    const tq::Point pts[2] = {city.SamplePoint(&rng), city.SamplePoint(&rng)};
    index.Insert(trips.Add(pts));
  }
  std::printf("+8k new:  SO(U, route0) = %.0f   (units=%zu)\n",
              tq::EvaluateServiceTQ(&index, evaluator, probe),
              index.num_units());

  // The maintained index still agrees with a cold rebuild. The rebuilt tree
  // indexes everything, so retire the same prefix before comparing.
  tq::TQTree rebuilt(&trips, options);
  for (uint32_t u = 0; u < retired; ++u) rebuilt.Remove(u);
  const double a = tq::EvaluateServiceTQ(&index, evaluator, probe);
  const double b = tq::EvaluateServiceTQ(&rebuilt, evaluator, probe);
  std::printf("maintained vs rebuilt: %.0f vs %.0f (%s)\n", a, b,
              a == b ? "identical" : "MISMATCH");
  return a == b ? 0 : 1;
}
