#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "datagen/presets.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "service/models.h"
#include "service/stop_grid.h"
#include "test_util.h"

namespace tq {
namespace {

TEST(ServiceModel, ToStringMentionsScenario) {
  EXPECT_NE(ServiceModel::Endpoints(50).ToString().find("endpoints"),
            std::string::npos);
  EXPECT_NE(ServiceModel::Length(50).ToString().find("length"),
            std::string::npos);
}

// Number of probes on which any answer path of `grid` (Serves, ServesScalar,
// ServesBatch) disagrees with brute force over all of the grid's stops; the
// first disagreement is reported as a failure.
size_t BruteForceMismatches(const StopGrid& grid,
                            std::span<const Point> probes) {
  std::vector<uint64_t> mask((probes.size() + 63) / 64);
  grid.ServesBatch(probes, mask.data());
  size_t mismatches = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const Point& p = probes[i];
    const bool want = WithinPsiOfAny(p, grid.stops(), grid.psi());
    const bool batch = ((mask[i >> 6] >> (i & 63)) & 1) != 0;
    if (grid.Serves(p) == want && grid.ServesScalar(p) == want &&
        batch == want) {
      continue;
    }
    if (mismatches++ == 0) {
      ADD_FAILURE() << "probe (" << p.x << ", " << p.y << ") psi "
                    << grid.psi() << ": brute force says " << want;
    }
  }
  return mismatches;
}

// Probes `psi` from each stop along both axes, and one ulp either side.
std::vector<Point> AxisProbesAtPsi(std::span<const Point> stops, double psi) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto ulps = [inf](double v) {
    return std::array{v, std::nextafter(v, -inf), std::nextafter(v, inf)};
  };
  std::vector<Point> probes;
  for (const Point& s : stops) {
    for (const double d : {-psi, psi}) {
      for (const double x : ulps(s.x + d)) probes.push_back({x, s.y});
      for (const double y : ulps(s.y + d)) probes.push_back({s.x, y});
    }
  }
  return probes;
}

std::vector<Point> UniformProbes(Rng& rng, const Rect& r, size_t n) {
  std::vector<Point> probes;
  for (size_t i = 0; i < n; ++i) {
    probes.push_back({rng.NextUniform(r.min_x, r.max_x),
                      rng.NextUniform(r.min_y, r.max_y)});
  }
  return probes;
}

TEST(StopGrid, ServesMatchesLinearScan) {
  Rng rng(201);
  std::vector<Point> stops;
  for (int i = 0; i < 60; ++i) {
    stops.push_back({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
  }
  const double psi = 150.0;
  const StopGrid grid(stops, psi);
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.NextUniform(-100, 5100), rng.NextUniform(-100, 5100)};
    EXPECT_EQ(grid.Serves(p), WithinPsiOfAny(p, stops, psi)) << p.x << ","
                                                             << p.y;
  }

  // Coincident and near-coincident stops: cells listing several stops.
  std::vector<Point> clustered(5, Point{1000, 1000});
  clustered.push_back({std::nextafter(1000.0, 2000.0), 1000});
  clustered.push_back({1000, std::nextafter(1000.0, 0.0)});
  for (int i = 0; i < 40; ++i) {
    clustered.push_back(
        {1230 + rng.NextUniform(-10, 10), 870 + rng.NextUniform(-10, 10)});
  }
  const StopGrid clustered_grid(clustered, psi);
  EXPECT_EQ(BruteForceMismatches(clustered_grid,
                                 UniformProbes(rng, clustered_grid.embr(),
                                               5000)),
            0u);
  EXPECT_EQ(BruteForceMismatches(clustered_grid,
                                 AxisProbesAtPsi(clustered, psi)),
            0u);

  // Negative coordinates, across both axes (the packed y cell is masked to
  // its low 32 bits).
  std::vector<Point> signed_stops;
  for (int i = 0; i < 200; ++i) {
    signed_stops.push_back(
        {rng.NextUniform(-3000, 3000), rng.NextUniform(-3000, 3000)});
  }
  signed_stops.push_back({-0.5, 0.5});
  signed_stops.push_back({0.0, -0.0});
  const StopGrid signed_grid(signed_stops, psi);
  EXPECT_EQ(BruteForceMismatches(
                signed_grid, UniformProbes(rng, signed_grid.embr(), 20000)),
            0u);
  EXPECT_EQ(BruteForceMismatches(signed_grid,
                                 AxisProbesAtPsi(signed_stops, psi)),
            0u);

  // Stops on cell boundaries (x = kψ, y = jψ), probed exactly ψ away along
  // each axis and one ulp either side.
  for (const double cell : {150.0, 200.0}) {
    std::vector<Point> on_lines;
    for (int k = -4; k <= 4; ++k) {
      on_lines.push_back({3 * k * cell, -2 * cell});
      on_lines.push_back({(3 * k + 1) * cell, 5 * cell});
    }
    const StopGrid line_grid(on_lines, cell);
    EXPECT_EQ(BruteForceMismatches(line_grid,
                                   AxisProbesAtPsi(on_lines, cell)),
              0u);
  }

  // A 1-stop facility and a 1,000-stop one (a random walk of ψ/3 steps, so
  // most cells list several stops).
  const std::vector<Point> lone = {{-37.5, 12.25}};
  const StopGrid lone_grid(lone, psi);
  EXPECT_EQ(BruteForceMismatches(lone_grid,
                                 UniformProbes(rng, lone_grid.embr(), 2000)),
            0u);
  EXPECT_EQ(BruteForceMismatches(lone_grid, AxisProbesAtPsi(lone, psi)), 0u);
  std::vector<Point> walk = {{-2000, 1500}};
  for (int i = 1; i < 1000; ++i) {
    walk.push_back({walk.back().x + rng.NextUniform(-50, 50),
                    walk.back().y + rng.NextUniform(-50, 50)});
  }
  const StopGrid walk_grid(walk, psi);
  EXPECT_EQ(BruteForceMismatches(walk_grid,
                                 UniformProbes(rng, walk_grid.embr(), 20000)),
            0u);

  // Every NYT endpoint against every route of the NY bus network.
  const TrajectorySet trips = presets::NytTrips(2000);
  std::vector<Point> endpoints;
  for (uint32_t t = 0; t < trips.size(); ++t) {
    endpoints.push_back(trips.points(t).front());
    endpoints.push_back(trips.points(t).back());
  }
  const TrajectorySet routes = presets::NyBusRoutes(64, 64);
  for (uint32_t r = 0; r < routes.size(); ++r) {
    const StopGrid route_grid(routes.points(r), 200.0);
    EXPECT_EQ(BruteForceMismatches(route_grid, endpoints), 0u) << "route " << r;
  }
}

TEST(StopGrid, RouteFootprintStaysSmall) {
  // A 64-stop route's grid stays cache-sized: 16-byte slots at load <= 1/2
  // and each stop stored once.
  const TrajectorySet routes = presets::NyBusRoutes(64, 64);
  for (uint32_t r = 0; r < routes.size(); ++r) {
    const StopGrid grid(routes.points(r), 200.0);
    EXPECT_LE(grid.heap_bytes(), 32u * 1024) << "route " << r;
  }
}

TEST(StopGrid, EmbrIsMbrExpandedByPsi) {
  const std::vector<Point> stops = {{10, 20}, {30, 40}};
  const StopGrid grid(stops, 5.0);
  EXPECT_EQ(grid.mbr(), Rect::Of(10, 20, 30, 40));
  EXPECT_EQ(grid.embr(), Rect::Of(5, 15, 35, 45));
}

TEST(StopGrid, NearbyStopDistance) {
  const std::vector<Point> stops = {{0, 0}};
  const StopGrid grid(stops, 10.0);
  EXPECT_NEAR(grid.NearbyStopDistance({3, 4}), 5.0, 1e-12);
}

TEST(FacilityCatalog, BuildsOneGridPerFacility) {
  TrajectorySet facilities;
  const Point f0[] = {{0, 0}, {100, 0}};
  const Point f1[] = {{500, 500}, {600, 600}, {700, 700}};
  facilities.Add(f0);
  facilities.Add(f1);
  const FacilityCatalog catalog(&facilities, 50.0);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.grid(0).stops().size(), 2u);
  EXPECT_EQ(catalog.grid(1).stops().size(), 3u);
  EXPECT_DOUBLE_EQ(catalog.psi(), 50.0);
}

class EvaluatorScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // User 0: both endpoints near stops. User 1: only source near.
    // User 2: 4-point trajectory, middle two points near stops.
    const Point u0[] = {{0, 0}, {100, 0}};
    const Point u1[] = {{0, 5}, {500, 500}};
    const Point u2[] = {{400, 400}, {10, 0}, {95, 5}, {300, 300}};
    users_.Add(u0);
    users_.Add(u1);
    users_.Add(u2);
    const Point stops[] = {{0, 10}, {100, 10}};
    facilities_.Add(stops);
  }

  TrajectorySet users_;
  TrajectorySet facilities_;
};

TEST_F(EvaluatorScenarioTest, Scenario1Binary) {
  const ServiceEvaluator eval(&users_, ServiceModel::Endpoints(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(1, grid), 0.0);  // destination unserved
  EXPECT_DOUBLE_EQ(eval.Evaluate(2, grid), 0.0);  // endpoints far
  EXPECT_TRUE(eval.EndpointsServed(0, grid));
  EXPECT_FALSE(eval.EndpointsServed(2, grid));
}

TEST_F(EvaluatorScenarioTest, Scenario2PointCount) {
  const ServiceEvaluator eval(&users_, ServiceModel::PointCount(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);        // 2/2
  EXPECT_DOUBLE_EQ(eval.Evaluate(1, grid), 0.5);        // 1/2
  EXPECT_DOUBLE_EQ(eval.Evaluate(2, grid), 0.5);        // 2/4
  const ServiceEvaluator raw(
      &users_, ServiceModel::PointCount(20.0, Normalization::kNone));
  EXPECT_DOUBLE_EQ(raw.Evaluate(2, grid), 2.0);
}

TEST_F(EvaluatorScenarioTest, Scenario3Length) {
  const ServiceEvaluator eval(&users_, ServiceModel::Length(20.0));
  const StopGrid grid(facilities_.points(0), 20.0);
  // User 0: the whole (only) segment served → fraction 1.
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, grid), 1.0);
  // User 2: only interior segment (10,0)→(95,5) has both ends served.
  const double seg = Distance({10, 0}, {95, 5});
  EXPECT_NEAR(eval.Evaluate(2, grid), seg / users_.length(2), 1e-12);
}

TEST_F(EvaluatorScenarioTest, DetailMaskConsistentWithEvaluate) {
  Rng rng(207);
  const Rect w = Rect::Of(0, 0, 2000, 2000);
  const TrajectorySet users = testing::RandomUsers(&rng, 80, 2, 7, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 5, 12, w);
  for (const ServiceModel& model : testing::AllModels(120.0)) {
    const ServiceEvaluator eval(&users, model);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), model.psi);
      for (uint32_t u = 0; u < users.size(); ++u) {
        const ServeDetail d = eval.EvaluateDetail(u, grid);
        EXPECT_NEAR(eval.ValueOfMask(u, d.mask), eval.Evaluate(u, grid),
                    1e-12)
            << model.ToString() << " user " << u;
      }
    }
  }
}

TEST_F(EvaluatorScenarioTest, MaskSizeLayout) {
  const ServiceEvaluator pts(&users_, ServiceModel::PointCount(20.0));
  const ServiceEvaluator len(&users_, ServiceModel::Length(20.0));
  EXPECT_EQ(pts.MaskSize(2), 4u);  // points
  EXPECT_EQ(len.MaskSize(2), 3u);  // segments
}

}  // namespace
}  // namespace tq
