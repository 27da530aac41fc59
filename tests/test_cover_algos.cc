// MaxkCovRST solvers: exact enumeration, greedy variants, genetic.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "cover/exact.h"
#include "cover/genetic.h"
#include "cover/greedy.h"
#include "query/topk.h"
#include "test_util.h"

namespace tq {
namespace {

struct CoverWorld {
  TrajectorySet users;
  TrajectorySet facs;
  ServiceModel model = ServiceModel::Endpoints(250.0);
  std::unique_ptr<ServiceEvaluator> eval;
  std::unique_ptr<FacilityCatalog> catalog;
  std::unique_ptr<TQTree> tree;
  std::unique_ptr<PointQuadtree> pq;
  std::vector<FacilityServedSet> sets;

  static CoverWorld Make(uint64_t seed, size_t num_users, size_t num_facs) {
    CoverWorld cw;
    Rng rng(seed);
    const Rect w = Rect::Of(0, 0, 20000, 20000);
    cw.users = testing::RandomUsers(&rng, num_users, 2, 2, w);
    cw.facs = testing::RandomFacilities(&rng, num_facs, 10, w);
    cw.eval = std::make_unique<ServiceEvaluator>(&cw.users, cw.model);
    cw.catalog = std::make_unique<FacilityCatalog>(&cw.facs, cw.model.psi);
    TQTreeOptions opt;
    opt.beta = 16;
    opt.model = cw.model;
    cw.tree = std::make_unique<TQTree>(&cw.users, opt);
    cw.pq = std::make_unique<PointQuadtree>(
        cw.users.BoundingBox().Expanded(1.0), 32);
    cw.pq->InsertAll(cw.users);
    for (uint32_t f = 0; f < cw.facs.size(); ++f) {
      cw.sets.push_back(
          CollectServedSetTQ(cw.tree.get(), *cw.catalog, *cw.eval, f));
    }
    return cw;
  }
};

TEST(ExactCover, FindsOptimumOnHandCraftedInstance) {
  // Three facilities; f0 and f1 each serve one disjoint user fully, f2
  // serves two users fully. Optimal pair = {f2, f0-or-f1} with total 3.
  TrajectorySet users;
  for (int i = 0; i < 4; ++i) {
    const double x = 1000.0 * i;
    const Point t[] = {{x, 0}, {x, 100}};
    users.Add(t);
  }
  TrajectorySet facs;
  const Point f0[] = {{0, 0}, {0, 100}};
  const Point f1[] = {{1000, 0}, {1000, 100}};
  const Point f2[] = {{2000, 0}, {2000, 100}, {3000, 0}, {3000, 100}};
  facs.Add(f0);
  facs.Add(f1);
  facs.Add(f2);
  const ServiceModel model = ServiceModel::Endpoints(10.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&users, opt);
  std::vector<FacilityServedSet> sets;
  for (uint32_t f = 0; f < 3; ++f) {
    sets.push_back(CollectServedSetTQ(&tree, catalog, eval, f));
  }
  const ExactCoverResult best = ExactCover(sets, 2, eval);
  EXPECT_DOUBLE_EQ(best.total, 3.0);
  EXPECT_EQ(best.combinations_evaluated, 3u);
  EXPECT_TRUE(std::set<FacilityId>(best.chosen.begin(), best.chosen.end())
                  .count(2));
}

TEST(GreedyCover, NeverWorseThanBestSingleFacilityChain) {
  CoverWorld cw = CoverWorld::Make(1001, 400, 12);
  const CoverResult greedy = GreedyCover(cw.sets, 4, *cw.eval);
  ASSERT_EQ(greedy.chosen.size(), 4u);
  // Greedy total must at least match the best single facility.
  double best_single = 0.0;
  for (const auto& s : cw.sets) best_single = std::max(best_single, s.so);
  EXPECT_GE(greedy.total, best_single - 1e-9);
  // Chosen facilities are distinct.
  const std::set<FacilityId> uniq(greedy.chosen.begin(), greedy.chosen.end());
  EXPECT_EQ(uniq.size(), greedy.chosen.size());
}

TEST(GreedyCover, MatchesExactForKEqualsOne) {
  CoverWorld cw = CoverWorld::Make(1003, 300, 10);
  const CoverResult greedy = GreedyCover(cw.sets, 1, *cw.eval);
  const ExactCoverResult exact = ExactCover(cw.sets, 1, *cw.eval);
  EXPECT_NEAR(greedy.total, exact.total, 1e-9);
}

TEST(GreedyCover, ApproximationRatioReasonableOnSmallInstances) {
  // The paper reports ≥ 0.9 on its data; we assert a modest floor across
  // random instances (non-submodularity means no hard guarantee exists).
  double worst = 1.0;
  for (uint64_t seed = 1005; seed < 1010; ++seed) {
    CoverWorld cw = CoverWorld::Make(seed, 250, 10);
    const CoverResult greedy = GreedyCover(cw.sets, 3, *cw.eval);
    const ExactCoverResult exact = ExactCover(cw.sets, 3, *cw.eval);
    if (exact.total > 0) worst = std::min(worst, greedy.total / exact.total);
  }
  EXPECT_GE(worst, 0.8) << "greedy collapsed far below the paper's ratios";
}

TEST(GreedyCoverTQ, TwoStepEqualsPlainGreedyWhenPoolIsEverything) {
  CoverWorld cw = CoverWorld::Make(1011, 300, 10);
  const CoverResult plain = GreedyCover(cw.sets, 3, *cw.eval);
  const CoverResult two_step = GreedyCoverTQ(cw.tree.get(), *cw.catalog,
                                             *cw.eval, 3, cw.facs.size());
  EXPECT_NEAR(plain.total, two_step.total, 1e-9);
  EXPECT_EQ(two_step.pool_size, cw.facs.size());
}

TEST(GreedyCoverTQ, DefaultPoolIsAtLeastKAndCapped) {
  EXPECT_EQ(DefaultPoolSize(4, 1000), 16u);
  EXPECT_EQ(DefaultPoolSize(16, 1000), 64u);
  EXPECT_EQ(DefaultPoolSize(16, 40), 40u);  // capped at |F|
  EXPECT_GE(DefaultPoolSize(1, 1000), 1u);
}

TEST(GreedyCoverBaseline, AgreesWithTQGreedyOnFullPool) {
  CoverWorld cw = CoverWorld::Make(1013, 250, 8);
  const CoverResult via_bl =
      GreedyCoverBaseline(*cw.pq, *cw.catalog, *cw.eval, 3);
  const CoverResult via_tq = GreedyCoverTQ(cw.tree.get(), *cw.catalog,
                                           *cw.eval, 3, cw.facs.size());
  EXPECT_NEAR(via_bl.total, via_tq.total, 1e-9);
  EXPECT_EQ(via_bl.chosen, via_tq.chosen);
}

TEST(GeneticCover, ProducesValidResultDeterministically) {
  CoverWorld cw = CoverWorld::Make(1015, 300, 16);
  ServedSetCache cache_a(cw.tree.get(), cw.catalog.get(), cw.eval.get());
  ServedSetCache cache_b(cw.tree.get(), cw.catalog.get(), cw.eval.get());
  GeneticOptions gopt;
  gopt.generations = 10;
  const CoverResult a =
      GeneticCover(&cache_a, cw.facs.size(), 4, *cw.eval, gopt);
  const CoverResult b =
      GeneticCover(&cache_b, cw.facs.size(), 4, *cw.eval, gopt);
  ASSERT_EQ(a.chosen.size(), 4u);
  EXPECT_EQ(a.chosen, b.chosen);  // same seed → same answer
  EXPECT_DOUBLE_EQ(a.total, b.total);
  const std::set<FacilityId> uniq(a.chosen.begin(), a.chosen.end());
  EXPECT_EQ(uniq.size(), 4u);
  // Lazy cache never collects more than the whole facility set.
  EXPECT_LE(cache_a.collected(), cw.facs.size());
}

TEST(GeneticCover, GreedyBeatsGaAtManyFacilities) {
  // The paper's Fig. 10(d): with many candidate facilities the 20-iteration
  // GA falls behind greedy, because 20 generations cannot search C(|F|, k).
  // (On tiny sparse instances the GA can legitimately win — non-submodular
  // greedy is myopic — so this asserts the paper's *large-N* regime only.)
  CoverWorld cw = CoverWorld::Make(1017, 600, 96);
  const CoverResult greedy = GreedyCover(cw.sets, 8, *cw.eval);
  const CoverResult ga =
      GeneticCoverTQ(cw.tree.get(), *cw.catalog, *cw.eval, 8);
  EXPECT_GT(greedy.total, 0.0);
  EXPECT_GE(greedy.total, ga.total * 0.98);
}

class GeneticParamTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(GeneticParamTest, ValidAndDeterministicAcrossHyperparameters) {
  const auto [population, generations] = GetParam();
  CoverWorld cw = CoverWorld::Make(1031, 250, 20);
  GeneticOptions gopt;
  gopt.population = population;
  gopt.generations = generations;
  ServedSetCache cache_a(cw.tree.get(), cw.catalog.get(), cw.eval.get());
  ServedSetCache cache_b(cw.tree.get(), cw.catalog.get(), cw.eval.get());
  const CoverResult a =
      GeneticCover(&cache_a, cw.facs.size(), 4, *cw.eval, gopt);
  const CoverResult b =
      GeneticCover(&cache_b, cw.facs.size(), 4, *cw.eval, gopt);
  ASSERT_EQ(a.chosen.size(), 4u);
  EXPECT_EQ(a.chosen, b.chosen);
  const std::set<FacilityId> uniq(a.chosen.begin(), a.chosen.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (const FacilityId f : a.chosen) {
    EXPECT_LT(f, cw.facs.size());
  }
  EXPECT_GE(a.total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PopGen, GeneticParamTest,
    ::testing::Values(std::make_pair<size_t, size_t>(4, 1),
                      std::make_pair<size_t, size_t>(8, 5),
                      std::make_pair<size_t, size_t>(32, 20),
                      std::make_pair<size_t, size_t>(64, 3)),
    [](const ::testing::TestParamInfo<std::pair<size_t, size_t>>& info) {
      return "pop" + std::to_string(info.param.first) + "_gen" +
             std::to_string(info.param.second);
    });

TEST(GeneticCover, MoreGenerationsNeverHurtMuch) {
  // Elitism guarantees the best chromosome survives, so fitness is
  // monotone in generations for a fixed seed/population.
  CoverWorld cw = CoverWorld::Make(1033, 300, 24);
  double prev = -1.0;
  for (const size_t gens : {0u, 5u, 20u}) {
    GeneticOptions gopt;
    gopt.generations = gens;
    ServedSetCache cache(cw.tree.get(), cw.catalog.get(), cw.eval.get());
    const CoverResult r =
        GeneticCover(&cache, cw.facs.size(), 4, *cw.eval, gopt);
    EXPECT_GE(r.total, prev - 1e-9) << "gens=" << gens;
    prev = r.total;
  }
}

TEST(ExactCover, SafetyCapTrips) {
  CoverWorld cw = CoverWorld::Make(1023, 50, 30);
  EXPECT_DEATH(ExactCover(cw.sets, 15, *cw.eval, 1000),
               "combination count");
}

TEST(UsersServedMetric, CountsFullyServedUsersUnderScenario1) {
  CoverWorld cw = CoverWorld::Make(1025, 400, 12);
  const CoverResult greedy = GreedyCover(cw.sets, 4, *cw.eval);
  // Under Scenario 1 every served user contributes exactly 1.
  EXPECT_NEAR(static_cast<double>(greedy.users_served), greedy.total, 1e-9);
}

// Point quadtree over the users with `indexed[u]` set: the baseline's view
// of the same user set a tree indexes.
std::unique_ptr<PointQuadtree> BaselineIndex(const TrajectorySet& users,
                                             const std::vector<bool>& indexed) {
  auto pq = std::make_unique<PointQuadtree>(
      users.BoundingBox().Expanded(1.0), 32);
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (!indexed[u]) continue;
    const auto pts = users.points(u);
    for (size_t i = 0; i < pts.size(); ++i) {
      pq->Insert(PointEntry{pts[i], u, static_cast<uint32_t>(i)});
    }
  }
  return pq;
}

// GreedyCoverTQ against the plain greedy over the baseline's served sets of
// the same pool. The pool filters drop only users that add an exact 0 to
// every gain, so chosen, total and users served agree bit for bit.
void ExpectTwoStepMatchesPlainGreedy(TQTree* tree, const PointQuadtree& pq,
                                     const FacilityCatalog& catalog,
                                     const ServiceEvaluator& eval,
                                     const std::string& label) {
  for (const size_t k : {1u, 4u, 8u, 16u}) {
    SCOPED_TRACE(label + " k=" + std::to_string(k));
    const TopKResult pool = TopKFacilitiesTQ(
        tree, catalog, eval, DefaultPoolSize(k, catalog.size()));
    std::vector<FacilityServedSet> sets;
    for (const RankedFacility& rf : pool.ranked) {
      sets.push_back(CollectServedSetBaseline(pq, catalog, eval, rf.id));
    }
    const CoverResult want = GreedyCover(sets, k, eval);
    const CoverResult got = GreedyCoverTQ(tree, catalog, eval, k);
    EXPECT_EQ(got.chosen, want.chosen);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.users_served, want.users_served);
    EXPECT_EQ(got.pool_size, pool.ranked.size());
  }
}

TEST(GreedyCoverTQ, MatchesPlainGreedyOverBaselineSetsOfThePool) {
  for (const bool two_point : {true, false}) {
    Rng rng(two_point ? 1041 : 1043);
    const Rect w = Rect::Of(0, 0, 20000, 20000);
    const TrajectorySet users =
        testing::RandomUsers(&rng, 600, 2, two_point ? 2 : 6, w);
    const TrajectorySet facs = testing::RandomFacilities(&rng, 40, 10, w);
    const auto pq =
        BaselineIndex(users, std::vector<bool>(users.size(), true));
    for (const ServiceModel& model : testing::AllModels(300.0)) {
      const ServiceEvaluator eval(&users, model);
      const FacilityCatalog catalog(&facs, model.psi);
      for (const auto& [variant, mode, name] :
           {std::tuple{IndexVariant::kZOrder, TrajMode::kWhole, "TQ(Z)"},
            std::tuple{IndexVariant::kBasic, TrajMode::kWhole, "TQ(B)"},
            std::tuple{IndexVariant::kZOrder, TrajMode::kSegmented,
                       "segmented"}}) {
        TQTreeOptions opt;
        opt.beta = 16;
        opt.variant = variant;
        opt.mode = mode;
        opt.model = model;
        TQTree tree(&users, opt);
        ExpectTwoStepMatchesPlainGreedy(
            &tree, *pq, catalog, eval,
            std::string(name) + (two_point ? " two-point " : " multipoint ") +
                model.ToString());
      }
    }
  }
}

TEST(GreedyCoverTQ, MatchesPlainGreedyOnATreeAfterUpdates) {
  // A tree with removals (stale candidate bits) and inserts the candidate
  // tables have not absorbed (pending inserts).
  Rng rng(1045);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 500, 2, 2, w);
  const TrajectorySet more = testing::RandomUsers(&rng, 40, 2, 2, w);
  TrajectorySet extended = base;
  for (uint32_t u = 0; u < more.size(); ++u) extended.Add(more.points(u));
  const TrajectorySet facs = testing::RandomFacilities(&rng, 40, 10, w);
  for (const ServiceModel& model : testing::AllModels(300.0)) {
    TQTreeOptions opt;
    opt.beta = 16;
    opt.model = model;
    TQTree tree(&extended, opt, AllIds(base));
    std::vector<bool> indexed(extended.size(), true);
    for (uint32_t u = 0; u < base.size(); u += 4) {
      ASSERT_TRUE(tree.Remove(u));
      indexed[u] = false;
    }
    for (uint32_t u = base.size(); u < extended.size(); ++u) tree.Insert(u);
    ASSERT_EQ(tree.cells().num_pending(), more.size());
    const auto pq = BaselineIndex(extended, indexed);
    const ServiceEvaluator eval(&extended, model);
    const FacilityCatalog catalog(&facs, model.psi);
    ExpectTwoStepMatchesPlainGreedy(&tree, *pq, catalog, eval,
                                    "updated " + model.ToString());
  }
}

TEST(GreedyCoverTQ, ZeroKIsEmptyAndDoesNoTreeWork) {
  CoverWorld cw = CoverWorld::Make(1047, 100, 10);
  const CoverResult r = GreedyCoverTQ(cw.tree.get(), *cw.catalog, *cw.eval, 0);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_EQ(r.total, 0.0);
  EXPECT_EQ(r.users_served, 0u);
  EXPECT_EQ(r.pool_size, 0u);
}

// Lemma 1 at the edge of the pool (Scenario 1, ψ = 10). Facilities A and B
// each fully serve two users of their own and C one, so a pool of two holds
// A and B. User x has its source at A and its destination at C only; user y
// its source at A and its destination at B.
TEST(GreedyCoverTQ, PoolFiltersKeepCrossFacilityUsersOnly) {
  TrajectorySet users;
  const auto add = [&users](Point s, Point t) {
    const Point pts[] = {s, t};
    users.Add(pts);
  };
  add({0, 0}, {0, 100});        // A's own
  add({0, 100}, {0, 0});        // A's own
  add({1000, 0}, {1000, 100});  // B's own
  add({1000, 100}, {1000, 0});  // B's own
  add({2000, 0}, {2000, 100});  // C's own
  add({0, 0}, {2000, 100});     // x: source at A, destination at C only
  add({0, 100}, {1000, 0});     // y: source at A, destination at B
  const uint32_t x = 5, y = 6;
  TrajectorySet facs;
  const Point fa[] = {{0, 0}, {0, 100}};
  const Point fb[] = {{1000, 0}, {1000, 100}};
  const Point fc[] = {{2000, 0}, {2000, 100}};
  facs.Add(fa);
  facs.Add(fb);
  facs.Add(fc);
  const ServiceModel model = ServiceModel::Endpoints(10.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  for (const auto& [variant, mode, name] :
       {std::tuple{IndexVariant::kZOrder, TrajMode::kWhole, "TQ(Z)"},
        std::tuple{IndexVariant::kBasic, TrajMode::kWhole, "TQ(B)"},
        std::tuple{IndexVariant::kZOrder, TrajMode::kSegmented,
                   "segmented"}}) {
    SCOPED_TRACE(name);
    TQTreeOptions opt;
    opt.variant = variant;
    opt.mode = mode;
    opt.model = model;
    TQTree tree(&users, opt);
    // Alone, A keeps both partially served users (Lemma 1).
    const FacilityServedSet alone = CollectServedSetTQ(&tree, catalog, eval, 0);
    EXPECT_EQ(alone.users, (std::vector<uint32_t>{0, 1, x, y}));
    EXPECT_EQ(alone.so, 2.0);
    // Restricted to the pool {A, B}, x drops out: its destination is near
    // no pooled stop. Trees without candidate tables mark nothing.
    std::vector<uint64_t> pool_mask;
    const std::vector<Point> pooled = {fa[0], fa[1], fb[0], fb[1]};
    if (tree.cells().MarkCandidates(pooled, model.psi, &pool_mask)) {
      const FacilityServedSet in_pool =
          CollectServedSetTQ(&tree, catalog, eval, 0, pool_mask.data());
      EXPECT_EQ(in_pool.users, (std::vector<uint32_t>{0, 1, y}));
      EXPECT_EQ(in_pool.so, 2.0);
    }
    // The cover of the pool counts y (A's source, B's destination) and not
    // x, even though the chosen A serves x's source.
    const CoverResult cover = GreedyCoverTQ(&tree, catalog, eval, 2, 2);
    EXPECT_EQ(cover.pool_size, 2u);
    EXPECT_EQ(std::set<FacilityId>(cover.chosen.begin(), cover.chosen.end()),
              (std::set<FacilityId>{0, 1}));
    EXPECT_EQ(cover.total, 5.0);
    EXPECT_EQ(cover.users_served, 5u);
    // With C pooled too, x completes only through C.
    const CoverResult all = GreedyCoverTQ(&tree, catalog, eval, 3, 3);
    EXPECT_EQ(all.total, 7.0);
    EXPECT_EQ(all.users_served, 7u);
  }
}

}  // namespace
}  // namespace tq
