#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/baseline.h"
#include "query/topk.h"
#include "test_util.h"

namespace tq {
namespace {

struct World {
  TrajectorySet users;
  TrajectorySet facilities;
  ServiceModel model;

  static World Make(uint64_t seed, size_t num_users, size_t min_pts,
                    size_t max_pts, size_t num_facs, ServiceModel model) {
    Rng rng(seed);
    const Rect w = Rect::Of(0, 0, 20000, 20000);
    World out{testing::RandomUsers(&rng, num_users, min_pts, max_pts, w),
              testing::RandomFacilities(&rng, num_facs, 10, w), model};
    return out;
  }
};

// Best-first answers are the exhaustive ranking's first k, bit for bit:
// same ids in the same order, and every value is EvaluateServiceTQ's. BL's
// too: every index sums each facility in ascending user id.
void ExpectSameRanking(const TopKResult& a, const TopKResult& b,
                       const std::string& what) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << what;
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].id, b.ranked[i].id) << what << " rank " << i;
    EXPECT_EQ(a.ranked[i].value, b.ranked[i].value) << what << " rank " << i;
  }
}

// Every model, both variants, whole and segmented trees, two-point and
// multipoint users, and k from 1 to beyond the catalog: TQ returns BL's ids
// and bits.
TEST(TopK, BestFirstMatchesExhaustiveAndBaseline) {
  for (const size_t max_pts : {size_t{2}, size_t{6}}) {
    for (const ServiceModel& model : testing::AllModels(250.0)) {
      World world = World::Make(601, 400, 2, max_pts, 24, model);
      const ServiceEvaluator eval(&world.users, model);
      const FacilityCatalog catalog(&world.facilities, model.psi);
      PointQuadtree pq(world.users.BoundingBox().Expanded(1.0), 32);
      pq.InsertAll(world.users);
      const size_t nf = world.facilities.size();
      for (const IndexVariant variant :
           {IndexVariant::kBasic, IndexVariant::kZOrder}) {
        for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
          TQTreeOptions opt;
          opt.beta = 8;
          opt.model = model;
          opt.variant = variant;
          opt.mode = mode;
          TQTree tree(&world.users, opt);
          for (const size_t k : {size_t{1}, nf / 2, nf, nf + 3}) {
            const std::string what =
                model.ToString() + " max_pts=" + std::to_string(max_pts) +
                (variant == IndexVariant::kBasic ? " TQ(B)" : " TQ(Z)") +
                (mode == TrajMode::kWhole ? " whole" : " segmented") +
                " k=" + std::to_string(k);
            const TopKResult best_first =
                TopKFacilitiesTQ(&tree, catalog, eval, k);
            const TopKResult exhaustive =
                TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k);
            const TopKResult baseline =
                TopKFacilitiesBaseline(pq, catalog, eval, k);
            ExpectSameRanking(best_first, exhaustive, what);
            ExpectSameRanking(best_first, baseline, what);
            // And every reported value is the facility's true SO.
            for (const RankedFacility& rf : best_first.ranked) {
              EXPECT_NEAR(rf.value,
                          testing::BruteForceSO(world.users,
                                                world.facilities.points(rf.id),
                                                model),
                          1e-6)
                  << what;
            }
          }
        }
      }
    }
  }
}

// Regression: the per-level relaxation summed each facility in its own
// visiting order, so on NYF check-ins under the paper's per-user Scenario 2
// about half the returned values differed from EvaluateServiceTQ's in the
// last bits. Every value must be exactly the facility's EvaluateServiceTQ.
TEST(TopK, PerUserScenario2ValuesAreEvaluateServiceBits) {
  const TrajectorySet users = presets::NyfCheckins(3000);
  const TrajectorySet routes = presets::NyBusRoutes(32, 16);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kPerUser);
  TQTreeOptions opt;
  opt.beta = 16;
  opt.model = model;
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&routes, model.psi);
  for (const size_t k : {size_t{1}, size_t{8}, routes.size()}) {
    const TopKResult top = TopKFacilitiesTQ(&tree, catalog, eval, k);
    ASSERT_EQ(top.ranked.size(), k);
    for (size_t i = 0; i < k; ++i) {
      const RankedFacility& rf = top.ranked[i];
      EXPECT_EQ(rf.value,
                EvaluateServiceTQ(&tree, eval, catalog.grid(rf.id)))
          << "k=" << k << " rank " << i << " facility " << rf.id;
    }
    ExpectSameRanking(top, TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k),
                      "k=" + std::to_string(k));
  }
}

TEST(TopK, MultipointWholeTreeAgreesWithOracle) {
  const ServiceModel model = ServiceModel::PointCount(250.0);
  World world = World::Make(603, 250, 3, 7, 16, model);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  opt.mode = TrajMode::kWhole;  // full-trajectory approach (F-TQ)
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&world.facilities, model.psi);
  const TopKResult got = TopKFacilitiesTQ(&tree, catalog, eval, 5);
  ASSERT_EQ(got.ranked.size(), 5u);
  for (const RankedFacility& rf : got.ranked) {
    EXPECT_NEAR(rf.value,
                testing::BruteForceSO(world.users,
                                      world.facilities.points(rf.id), model),
                1e-6);
  }
  // Descending order.
  for (size_t i = 1; i < got.ranked.size(); ++i) {
    EXPECT_GE(got.ranked[i - 1].value, got.ranked[i].value - 1e-9);
  }
}

TEST(TopK, SegmentedTreeAgreesWithOracle) {
  const ServiceModel model = ServiceModel::Length(250.0);
  World world = World::Make(605, 200, 3, 7, 16, model);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  opt.mode = TrajMode::kSegmented;  // S-TQ
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&world.facilities, model.psi);
  const TopKResult got = TopKFacilitiesTQ(&tree, catalog, eval, 6);
  const TopKResult ex = TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, 6);
  ExpectSameRanking(got, ex, "segmented");
  for (const RankedFacility& rf : got.ranked) {
    EXPECT_NEAR(rf.value,
                testing::BruteForceSO(world.users,
                                      world.facilities.points(rf.id), model),
                1e-6);
  }
}

TEST(TopK, KLargerThanFacilityCountReturnsAll) {
  const ServiceModel model = ServiceModel::Endpoints(250.0);
  World world = World::Make(607, 100, 2, 2, 5, model);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&world.facilities, model.psi);
  const TopKResult got = TopKFacilitiesTQ(&tree, catalog, eval, 50);
  EXPECT_EQ(got.ranked.size(), 5u);
}

TEST(TopK, KZeroReturnsEmpty) {
  const ServiceModel model = ServiceModel::Endpoints(250.0);
  World world = World::Make(609, 50, 2, 2, 5, model);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&world.facilities, model.psi);
  EXPECT_TRUE(TopKFacilitiesTQ(&tree, catalog, eval, 0).ranked.empty());
}

TEST(TopK, DeterministicAcrossRuns) {
  const ServiceModel model = ServiceModel::Endpoints(250.0);
  World world = World::Make(611, 300, 2, 2, 20, model);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&world.facilities, model.psi);
  const TopKResult a = TopKFacilitiesTQ(&tree, catalog, eval, 10);
  const TopKResult b = TopKFacilitiesTQ(&tree, catalog, eval, 10);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].id, b.ranked[i].id);
    EXPECT_EQ(a.ranked[i].value, b.ranked[i].value);
  }
}

TEST(TopK, BestFirstDoesLessWorkThanExhaustiveForSmallK) {
  // Two-tier workload: one dominant hub facility serving a dense cluster,
  // many satellite facilities each serving a small pocket. With k = 1 the
  // hub completes first and every satellite's cell bound (the users whose
  // endpoints lie near its route) stays below the hub's actual value, so
  // best-first never evaluates the satellites.
  const ServiceModel model = ServiceModel::Endpoints(400.0);
  Rng rng(613);
  TrajectorySet users;
  // Dense hub cluster at (5000, 5000).
  for (int i = 0; i < 3000; ++i) {
    const Point t[] = {{rng.NextGaussian(5000, 150), rng.NextGaussian(5000, 150)},
                       {rng.NextGaussian(5000, 150), rng.NextGaussian(5000, 150)}};
    users.Add(t);
  }
  // Small pockets, 40 users each, far from the hub.
  std::vector<Point> pockets;
  for (int p = 0; p < 16; ++p) {
    const Point c{15000.0 + 2000.0 * (p % 4), 15000.0 + 2000.0 * (p / 4)};
    pockets.push_back(c);
    for (int i = 0; i < 40; ++i) {
      const Point t[] = {{rng.NextGaussian(c.x, 100), rng.NextGaussian(c.y, 100)},
                         {rng.NextGaussian(c.x, 100), rng.NextGaussian(c.y, 100)}};
      users.Add(t);
    }
  }
  TrajectorySet facs;
  const Point hub_route[] = {{4800, 4800}, {5000, 5000}, {5200, 5200}};
  facs.Add(hub_route);
  for (const Point& c : pockets) {
    const Point route[] = {{c.x - 100, c.y}, {c.x + 100, c.y}};
    facs.Add(route);
  }
  TQTreeOptions opt;
  opt.beta = 32;
  opt.model = model;
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  const TopKResult bf = TopKFacilitiesTQ(&tree, catalog, eval, 1);
  const TopKResult ex = TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, 1);
  ASSERT_EQ(bf.ranked.size(), 1u);
  EXPECT_EQ(bf.ranked[0].id, 0u);  // the hub wins
  ExpectSameRanking(bf, ex, "hub");
  // The best-first search must not fully evaluate every facility: the hub
  // is its only refinement.
  EXPECT_LT(bf.stats.exact_checks, ex.stats.exact_checks)
      << "best-first pruning saved nothing";
  EXPECT_EQ(bf.stats.relax_rounds, 1u);
}

TEST(TopK, AncestorStoredPartialServiceIsCounted) {
  // Regression: a trajectory spanning the root split (stored in the root's
  // inter-node list) with ONE endpoint near a facility wholly contained in a
  // quadrant. Under point-count service it contributes 0.5; the best-first
  // search's bound and its exact evaluation must both count ancestor lists
  // or it silently drops this.
  TrajectorySet users;
  const Point spanner[] = {{2000, 2000}, {8000, 8000}};
  users.Add(spanner);
  // Filler so the root actually splits.
  Rng rng(617);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextUniform(0, 4000);
    const double y = rng.NextUniform(0, 4000);
    const Point t[] = {{x, y}, {x + 50, y + 50}};
    users.Add(t);
  }
  // Pin the world so (2000,2000) and (8000,8000) land in different root
  // quadrants.
  const Point far_a[] = {{0, 0}, {10, 10}};
  const Point far_b[] = {{9990, 9990}, {10000, 10000}};
  users.Add(far_a);
  users.Add(far_b);

  TrajectorySet facs;
  const Point near_source[] = {{1900, 2000}, {2100, 2000}};
  facs.Add(near_source);

  const ServiceModel model = ServiceModel::PointCount(150.0);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);

  const TopKResult bf = TopKFacilitiesTQ(&tree, catalog, eval, 1);
  const double oracle =
      testing::BruteForceSO(users, facs.points(0), model);
  ASSERT_EQ(bf.ranked.size(), 1u);
  EXPECT_NEAR(bf.ranked[0].value, oracle, 1e-9);
  ExpectSameRanking(bf, TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, 1),
                    "spanner");
  // And the spanner really is worth 0.5 to this facility.
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, catalog.grid(0)), 0.5);
}

TEST(TopK, AncestorStoredMultipointEndpointServiceIsCounted) {
  // Regression: under the ENDPOINTS model a whole multipoint trajectory is
  // stored by its full MBR, which its middle points can inflate far beyond
  // the served endpoints. Source and destination both sit next to the
  // facility (full service of 1.0), but the detour through (8000,8000)
  // spans the root split, parking the unit in an ancestor inter-node list.
  // kStartEnd pruning alone must NOT make the search skip ancestors here.
  TrajectorySet users;
  const Point detour[] = {{1950, 2000}, {8000, 8000}, {2050, 2000}};
  users.Add(detour);
  Rng rng(619);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextUniform(0, 4000);
    const double y = rng.NextUniform(0, 4000);
    const Point t[] = {{x, y}, {x + 30, y + 30}, {x + 60, y}};
    users.Add(t);
  }
  const Point far_a[] = {{0, 0}, {5, 5}, {10, 10}};
  const Point far_b[] = {{9990, 9990}, {9995, 9995}, {10000, 10000}};
  users.Add(far_a);
  users.Add(far_b);

  TrajectorySet facs;
  const Point near_both_ends[] = {{1900, 2000}, {2100, 2000}};
  facs.Add(near_both_ends);

  const ServiceModel model = ServiceModel::Endpoints(150.0);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  TQTree tree(&users, opt);
  ASSERT_EQ(users.NumPoints(0), 3u);  // the detour is a multipoint unit
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);

  const TopKResult bf = TopKFacilitiesTQ(&tree, catalog, eval, 1);
  const double oracle = testing::BruteForceSO(users, facs.points(0), model);
  ASSERT_EQ(bf.ranked.size(), 1u);
  EXPECT_NEAR(bf.ranked[0].value, oracle, 1e-9);
  ExpectSameRanking(bf, TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, 1),
                    "detour");
  // The detour trajectory itself is fully served despite its huge MBR.
  EXPECT_DOUBLE_EQ(eval.Evaluate(0, catalog.grid(0)), 1.0);
}

TEST(TopK, TieBreakingByIdMatchesExhaustive) {
  // Regression for ranking nondeterminism: a catalog engineered so several
  // facilities have EXACTLY equal service values (duplicated stop
  // sequences evaluate to bitwise-identical SO). The best-first search and
  // the exhaustive sort must agree on the full id sequence, which pins the
  // documented tie rule: descending value, ascending facility id.
  const ServiceModel model = ServiceModel::PointCount(250.0);
  World world = World::Make(619, 300, 2, 6, 4, model);
  // Facilities: 4 distinct routes, each duplicated — ids {0,4}, {1,5},
  // {2,6}, {3,7} form exact-tie groups, interleaved so id order and value
  // order disagree.
  TrajectorySet facs;
  for (int copy = 0; copy < 2; ++copy) {
    for (uint32_t f = 0; f < world.facilities.size(); ++f) {
      facs.Add(world.facilities.points(f));
    }
  }
  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  TQTree tree(&world.users, opt);
  const ServiceEvaluator eval(&world.users, model);
  const FacilityCatalog catalog(&facs, model.psi);

  const size_t k = facs.size();
  const TopKResult bf = TopKFacilitiesTQ(&tree, catalog, eval, k);
  const TopKResult ex = TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, k);
  ASSERT_EQ(bf.ranked.size(), k);
  ASSERT_EQ(ex.ranked.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(bf.ranked[i].id, ex.ranked[i].id) << "rank " << i;
    EXPECT_EQ(bf.ranked[i].value, ex.ranked[i].value) << "rank " << i;
  }
  // The tie groups really are exact ties, and within each the smaller id
  // must precede the larger.
  const size_t half = world.facilities.size();
  for (uint32_t f = 0; f < half; ++f) {
    const auto pos = [&](FacilityId id) {
      for (size_t i = 0; i < k; ++i) {
        if (bf.ranked[i].id == id) return i;
      }
      return k;
    };
    const size_t lo = pos(f);
    const size_t hi = pos(static_cast<FacilityId>(f + half));
    ASSERT_LT(lo, k);
    ASSERT_LT(hi, k);
    EXPECT_EQ(bf.ranked[lo].value, bf.ranked[hi].value);
    EXPECT_LT(lo, hi) << "tie between facility " << f << " and " << f + half
                      << " not broken by ascending id";
  }
}

TEST(BaselineService, MatchesOracleDirectly) {
  Rng rng(615);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 16);
  pq.InsertAll(users);
  for (const ServiceModel& model : testing::AllModels(250.0)) {
    const ServiceEvaluator eval(&users, model);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), model.psi);
      EXPECT_NEAR(EvaluateServiceBaseline(pq, eval, grid),
                  testing::BruteForceSO(users, facs.points(f), model), 1e-6)
          << model.ToString();
    }
  }
}

}  // namespace
}  // namespace tq
