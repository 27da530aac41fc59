// Quickstart: build a TQ-tree over taxi trips, run a kMaxRRST query, and a
// MaxkCovRST query — the whole public API in ~60 lines.
//
//   ./quickstart
#include <cstdio>

#include "cover/greedy.h"
#include "datagen/presets.h"
#include "query/topk.h"

int main() {
  // 1. Data: 50k synthetic NYC-like taxi trips (users) and 64 candidate bus
  //    routes with 32 stops each (facilities). Plug in your own data with
  //    tq::LoadTrajectoryCsv.
  const tq::TrajectorySet users = tq::presets::NytTrips(50000);
  const tq::TrajectorySet routes = tq::presets::NyBusRoutes(64, 32);

  // 2. Service model: Scenario 1 — a commuter rides a route if both their
  //    pickup and drop-off are within ψ = 200 m of some stop.
  const tq::ServiceModel model = tq::ServiceModel::Endpoints(200.0);

  // 3. Index: the TQ-tree over the users. A tree of whole trips is a cell
  //    index (grid-cell tables of every trip's pickup and drop-off).
  tq::TQTreeOptions options;
  options.model = model;
  tq::TQTree index(&users, options);
  std::printf("TQ-tree built: %zu trips indexed\n", index.num_units());

  // 4. kMaxRRST: the 5 routes serving the most commuters.
  const tq::ServiceEvaluator evaluator(&users, model);
  const tq::FacilityCatalog catalog(&routes, model.psi);
  const tq::TopKResult top =
      tq::TopKFacilitiesTQ(&index, catalog, evaluator, 5);
  std::printf("\nTop-5 routes by commuters served (kMaxRRST):\n");
  for (const tq::RankedFacility& rf : top.ranked) {
    std::printf("  route %-4u serves %6.0f commuters\n", rf.id, rf.value);
  }

  // 5. MaxkCovRST: the 5 routes that JOINTLY serve the most commuters —
  //    note the answer can differ from the top-5 above, because overlapping
  //    routes waste coverage.
  const tq::CoverResult cover =
      tq::GreedyCoverTQ(&index, catalog, evaluator, 5);
  std::printf("\nBest joint 5-route network (MaxkCovRST greedy): ");
  for (const tq::FacilityId f : cover.chosen) std::printf("%u ", f);
  std::printf("\n  jointly served commuters: %zu (top-5 overlap-blind sum "
              "would double-count)\n",
              cover.users_served);
  return 0;
}
