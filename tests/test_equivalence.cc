// The backbone integration invariant: BL, TQ(B) and TQ(Z) are different
// *search strategies* over the same exact service semantics, so all three
// must produce identical service values and top-k rankings on any workload.
// On whole-trajectory trees every method sums the per-user values in
// ascending user id, so the values agree bit for bit, for every model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/baseline.h"
#include "query/topk.h"
#include "test_util.h"

namespace tq {
namespace {

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, AllThreeMethodsAgreeOnServiceValues) {
  const ServiceModel model =
      testing::AllModels(200.0)[static_cast<size_t>(GetParam())];
  Rng rng(701 + static_cast<uint64_t>(GetParam()));
  const Rect w = Rect::Of(0, 0, 30000, 30000);
  const TrajectorySet users = testing::RandomUsers(&rng, 600, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 16, 12, w);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);

  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 32);
  pq.InsertAll(users);

  TQTreeOptions basic_opt;
  basic_opt.beta = 16;
  basic_opt.variant = IndexVariant::kBasic;
  basic_opt.model = model;
  TQTree tq_basic(&users, basic_opt);

  TQTreeOptions z_opt = basic_opt;
  z_opt.variant = IndexVariant::kZOrder;
  TQTree tq_z(&users, z_opt);

  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    const double bl = EvaluateServiceBaseline(pq, eval, grid);
    const double tb = EvaluateServiceTQ(&tq_basic, eval, grid);
    const double tz = EvaluateServiceTQ(&tq_z, eval, grid);
    EXPECT_EQ(bl, tb) << "BL vs TQ(B), facility " << f;
    EXPECT_EQ(bl, tz) << "BL vs TQ(Z), facility " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, EquivalenceTest, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "model" + std::to_string(info.param);
                         });

TEST(Equivalence, MultipointBitEqualAcrossIndexes) {
  // Multipoint users under every model, per-user-normalised fractional
  // scenarios included: the value of each facility must not depend on the
  // index that found its candidates.
  Rng rng(711);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 800, 3, 9, w);
  TrajectorySet facs = testing::RandomFacilities(&rng, 16, 12, w);
  // Routes along users' own points, so that many users score.
  for (const uint32_t u : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    facs.Add(users.points(u));
  }
  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 32);
  pq.InsertAll(users);
  for (const ServiceModel& model : testing::AllModels(400.0)) {
    SCOPED_TRACE(model.ToString());
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&facs, model.psi);
    TQTreeOptions opt;
    opt.beta = 16;
    opt.model = model;
    opt.variant = IndexVariant::kBasic;
    TQTree tq_basic(&users, opt);
    opt.variant = IndexVariant::kZOrder;
    TQTree tq_z(&users, opt);
    size_t positive = 0;
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      const StopGrid& grid = catalog.grid(f);
      const double bl = EvaluateServiceBaseline(pq, eval, grid);
      EXPECT_EQ(bl, EvaluateServiceTQ(&tq_basic, eval, grid))
          << "BL vs TQ(B), facility " << f;
      EXPECT_EQ(bl, EvaluateServiceTQ(&tq_z, eval, grid))
          << "BL vs TQ(Z), facility " << f;
      if (bl > 0.0) ++positive;
    }
    EXPECT_GE(positive, 8u);
  }
}

TEST(Equivalence, PresetWorkloadNytLike) {
  // Scaled-down NYT preset: the exact workload family the benchmarks use.
  const TrajectorySet users = presets::NytTrips(5000);
  const TrajectorySet facs = presets::NyBusRoutes(12, 24);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);

  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 64);
  pq.InsertAll(users);
  TQTreeOptions opt;
  opt.beta = 32;
  opt.model = model;
  TQTree tq_z(&users, opt);

  const size_t k = 5;
  const TopKResult bl = TopKFacilitiesBaseline(pq, catalog, eval, k);
  const TopKResult tz = TopKFacilitiesTQ(&tq_z, catalog, eval, k);
  ASSERT_EQ(bl.ranked.size(), tz.ranked.size());
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(bl.ranked[i].id, tz.ranked[i].id) << "rank " << i;
    EXPECT_EQ(bl.ranked[i].value, tz.ranked[i].value) << "rank " << i;
  }
  // Sanity: the winning route serves a meaningful number of users.
  EXPECT_GT(bl.ranked[0].value, 0.0);
}

TEST(Equivalence, MultipointSegmentedVsWholeAgree) {
  // S-TQ and F-TQ are different layouts of the same data; their SO values
  // must match each other bit for bit (both sum in ascending user id), and
  // the oracle, for every facility.
  Rng rng(705);
  const Rect w = Rect::Of(0, 0, 30000, 30000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 3, 8, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 12, w);
  for (const ServiceModel& model :
       {ServiceModel::PointCount(200.0), ServiceModel::Length(200.0)}) {
    const ServiceEvaluator eval(&users, model);
    TQTreeOptions seg_opt;
    seg_opt.beta = 16;
    seg_opt.mode = TrajMode::kSegmented;
    seg_opt.model = model;
    TQTree s_tq(&users, seg_opt);
    TQTreeOptions full_opt = seg_opt;
    full_opt.mode = TrajMode::kWhole;
    TQTree f_tq(&users, full_opt);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), model.psi);
      const double s_val = EvaluateServiceTQ(&s_tq, eval, grid);
      const double f_val = EvaluateServiceTQ(&f_tq, eval, grid);
      const double oracle =
          testing::BruteForceSO(users, facs.points(f), model);
      EXPECT_EQ(s_val, f_val) << model.ToString() << " facility " << f;
      EXPECT_NEAR(s_val, oracle, 1e-6) << "S-TQ " << model.ToString();
      EXPECT_NEAR(f_val, oracle, 1e-6) << "F-TQ " << model.ToString();
    }
  }
}

TEST(Equivalence, BetaDoesNotChangeAnswers) {
  Rng rng(707);
  const Rect w = Rect::Of(0, 0, 30000, 30000);
  const TrajectorySet users = testing::RandomUsers(&rng, 500, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);

  std::vector<double> reference;
  for (const size_t beta : {2u, 8u, 64u, 1024u}) {
    TQTreeOptions opt;
    opt.beta = beta;
    opt.model = model;
    TQTree tree(&users, opt);
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const StopGrid grid(facs.points(f), model.psi);
      const double v = EvaluateServiceTQ(&tree, eval, grid);
      if (beta == 2u) {
        reference.push_back(v);
      } else {
        EXPECT_EQ(v, reference[f]) << "beta=" << beta;
      }
    }
  }
}

}  // namespace
}  // namespace tq
