// CoverageState algebra, served sets, and the Lemma 1 non-submodularity
// construction reproduced as an executable proof.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "cover/coverage_state.h"
#include "cover/served_sets.h"
#include "test_util.h"

namespace tq {
namespace {

TEST(CoverageState, AddAndTotalUnionSemantics) {
  // One user, two points. Facility A serves only the source, facility B only
  // the destination: alone each scores 0, together they score 1 (Scenario 1
  // union semantics per Lemma 1's proof).
  TrajectorySet users;
  const Point u0[] = {{0, 0}, {100, 0}};
  users.Add(u0);
  const ServiceEvaluator eval(&users, ServiceModel::Endpoints(10));

  FacilityServedSet fa;
  fa.id = 0;
  const uint64_t ma = 0b01;
  fa.Append(0u, {&ma, 1});
  FacilityServedSet fb;
  fb.id = 1;
  const uint64_t mb = 0b10;
  fb.Append(0u, {&mb, 1});

  CoverageState state(&eval);
  EXPECT_DOUBLE_EQ(state.MarginalGain(fa), 0.0);
  state.Add(fa);
  EXPECT_DOUBLE_EQ(state.total(), 0.0);
  EXPECT_EQ(state.users_served(), 0u);
  // Now B completes the pair: marginal gain 1.
  EXPECT_DOUBLE_EQ(state.MarginalGain(fb), 1.0);
  state.Add(fb);
  EXPECT_DOUBLE_EQ(state.total(), 1.0);
  EXPECT_EQ(state.users_served(), 1u);
}

TEST(CoverageState, MarginalGainMatchesRecompute) {
  Rng rng(901);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 200, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 10, w);
  for (const ServiceModel& model : testing::AllModels(250.0)) {
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&facs, model.psi);
    TQTreeOptions opt;
    opt.model = model;
    TQTree tree(&users, opt);

    std::vector<FacilityServedSet> sets;
    for (uint32_t f = 0; f < facs.size(); ++f) {
      sets.push_back(CollectServedSetTQ(&tree, catalog, eval, f));
    }
    CoverageState state(&eval);
    double running = 0.0;
    for (const auto& fs : sets) {
      const double gain = state.MarginalGain(fs);
      state.Add(fs);
      running += gain;
      EXPECT_NEAR(state.total(), running, 1e-6) << model.ToString();
    }
  }
}

TEST(ServedSets, SingleFacilitySoMatchesOracle) {
  Rng rng(903);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 250, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  for (const ServiceModel& model : testing::AllModels(200.0)) {
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&facs, model.psi);
    TQTreeOptions opt;
    opt.model = model;
    TQTree tree(&users, opt);
    PointQuadtree pq(users.BoundingBox().Expanded(1.0), 32);
    pq.InsertAll(users);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const FacilityServedSet via_tq =
          CollectServedSetTQ(&tree, catalog, eval, f);
      const FacilityServedSet via_bl =
          CollectServedSetBaseline(pq, catalog, eval, f);
      const double oracle =
          testing::BruteForceSO(users, facs.points(f), model);
      EXPECT_NEAR(via_tq.so, oracle, 1e-6) << model.ToString();
      EXPECT_NEAR(via_bl.so, oracle, 1e-6) << model.ToString();
      EXPECT_EQ(via_tq.users, via_bl.users);
      EXPECT_EQ(via_tq.words, via_bl.words);
    }
  }
}

TEST(ServedSets, CacheCollectsLazily) {
  Rng rng(905);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 6, w);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&users, opt);
  ServedSetCache cache(&tree, &catalog, &eval);
  EXPECT_EQ(cache.collected(), 0u);
  (void)cache.Get(3);
  (void)cache.Get(3);
  (void)cache.Get(7);
  EXPECT_EQ(cache.collected(), 2u);
  EXPECT_EQ(cache.Get(3).id, 3u);
}

// Executable version of Lemma 1: service under union coverage violates the
// diminishing-returns inequality g(A∪x)−g(A) ≥ g(B∪x)−g(B) for A ⊆ B.
TEST(Lemma1, ServiceFunctionIsNonSubmodular) {
  // Layout (ψ = 10):
  //   user u: source (0,0), destination (1000,0).
  //   facility a: stop far from u entirely                  → A = {a}
  //   facility b: stop at the source only                   → B = {a, b}
  //   facility x: stop at the destination only.
  TrajectorySet users;
  const Point u0[] = {{0, 0}, {1000, 0}};
  users.Add(u0);
  TrajectorySet facs;
  const Point fa[] = {{5000, 5000}};
  const Point fb[] = {{0, 5}};
  const Point fx[] = {{1000, 5}};
  facs.Add(fa);
  facs.Add(fb);
  facs.Add(fx);
  const ServiceModel model = ServiceModel::Endpoints(10.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&users, opt);

  auto so_of = [&](std::vector<FacilityId> group) {
    CoverageState state(&eval);
    for (const FacilityId f : group) {
      state.Add(CollectServedSetTQ(&tree, catalog, eval, f));
    }
    return state.total();
  };

  const double g_A = so_of({0});           // 0
  const double g_Ax = so_of({0, 2});       // still 0: source unserved
  const double g_B = so_of({0, 1});        // 0: destination unserved
  const double g_Bx = so_of({0, 1, 2});    // 1: b serves source, x dest
  EXPECT_DOUBLE_EQ(g_A, 0.0);
  EXPECT_DOUBLE_EQ(g_Ax, 0.0);
  EXPECT_DOUBLE_EQ(g_B, 0.0);
  EXPECT_DOUBLE_EQ(g_Bx, 1.0);
  // Submodularity would require (g_Ax − g_A) ≥ (g_Bx − g_B); here 0 < 1.
  EXPECT_LT(g_Ax - g_A, g_Bx - g_B);
}

TEST(CoverageState, ClearResets) {
  TrajectorySet users;
  const Point u0[] = {{0, 0}, {10, 0}};
  users.Add(u0);
  const ServiceEvaluator eval(&users, ServiceModel::Endpoints(5));
  FacilityServedSet fs;
  fs.id = 0;
  const uint64_t m = 0b11;
  fs.Append(0u, {&m, 1});
  CoverageState state(&eval);
  state.Add(fs);
  EXPECT_DOUBLE_EQ(state.total(), 1.0);
  state.Clear();
  EXPECT_DOUBLE_EQ(state.total(), 0.0);
  EXPECT_EQ(state.users_served(), 0u);
  EXPECT_DOUBLE_EQ(state.ValueOf(0), 0.0);
  // A cleared state starts over: the user is new again.
  EXPECT_DOUBLE_EQ(state.MarginalGain(fs), 1.0);
  state.Add(fs);
  EXPECT_DOUBLE_EQ(state.total(), 1.0);
  EXPECT_EQ(state.users_served(), 1u);
}

}  // namespace
}  // namespace tq
