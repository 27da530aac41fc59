#include <gtest/gtest.h>

#include "common/rng.h"
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
