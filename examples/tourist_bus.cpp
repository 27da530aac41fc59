// Scenario 2 of the paper: a tour operator runs k bus routes to serve
// tourists, each of whom has a list of POIs to visit (a multipoint
// trajectory). A tourist can be served *partially* — the service value is
// the fraction of their POIs reachable from route stops. Demonstrates the
// point-count service model and the Segmented vs Full-trajectory TQ-trees.
#include <cstdio>

#include "cover/greedy.h"
#include "datagen/presets.h"
#include "query/topk.h"

int main() {
  // Tourists: itineraries of 3-10 POIs each (Foursquare-like check-ins).
  const tq::TrajectorySet tourists = tq::presets::NyfCheckins(30000);
  const tq::TrajectorySet routes = tq::presets::NyBusRoutes(48, 40);

  // ψ = 250 m: a POI is visitable if a stop is within a short walk.
  const tq::ServiceModel model = tq::ServiceModel::PointCount(250.0);
  const tq::ServiceEvaluator evaluator(&tourists, model);
  const tq::FacilityCatalog catalog(&routes, model.psi);

  // Both generalised index layouts of §III-A answer the same queries.
  tq::TQTreeOptions seg_options;
  seg_options.mode = tq::TrajMode::kSegmented;
  seg_options.model = model;
  tq::TQTree segmented(&tourists, seg_options);

  tq::TQTreeOptions full_options;
  full_options.mode = tq::TrajMode::kWhole;
  full_options.model = model;
  tq::TQTree full(&tourists, full_options);

  // The segmented index is the paper's quadtree of segments; the
  // full-trajectory index is a cell index and builds none.
  std::printf("Segmented index: %s\n",
              segmented.ComputeStats().ToString().c_str());
  std::printf("Full-traj index: %zu itineraries in cell tables\n",
              full.num_units());

  const size_t k = 4;
  const tq::TopKResult via_seg =
      tq::TopKFacilitiesTQ(&segmented, catalog, evaluator, k);
  const tq::TopKResult via_full =
      tq::TopKFacilitiesTQ(&full, catalog, evaluator, k);

  std::printf("\nTop-%zu routes by expected POI coverage:\n", k);
  for (size_t i = 0; i < k; ++i) {
    std::printf("  #%zu route %-4u covers %.1f tourist-itineraries' worth "
                "of POIs (full-traj agrees: %.1f)\n",
                i + 1, via_seg.ranked[i].id, via_seg.ranked[i].value,
                via_full.ranked[i].value);
  }

  // The operator fields k buses jointly: POIs covered by any chosen route
  // count once per tourist (AGG union of §II-B).
  const tq::CoverResult network =
      tq::GreedyCoverTQ(&full, catalog, evaluator, k);
  std::printf("\nJoint %zu-route tour network: total POI-coverage score "
              "%.1f across %zu partially-served tourists\n",
              k, network.total, network.users_served);
  return 0;
}
