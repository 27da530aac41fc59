#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.h"
#include "query/eval_service.h"
#include "test_util.h"

namespace tq {
namespace {

struct Config {
  IndexVariant variant;
  TrajMode mode;
  const char* name;
};

class EvalServiceTest
    : public ::testing::TestWithParam<std::tuple<Config, int>> {};

TEST_P(EvalServiceTest, MatchesBruteForceOracle) {
  const auto& [config, model_index] = GetParam();
  Rng rng(501 + static_cast<uint64_t>(model_index));
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const bool segmented = config.mode == TrajMode::kSegmented;
  // Segmented trees need multipoint data to be interesting; whole-mode
  // endpoint tests use both 2-point and multipoint users.
  const TrajectorySet users =
      testing::RandomUsers(&rng, 300, 2, segmented ? 7 : 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 12, 10, w);
  const ServiceModel model = testing::AllModels(250.0)[
      static_cast<size_t>(model_index)];

  TQTreeOptions opt;
  opt.beta = 8;
  opt.variant = config.variant;
  opt.mode = config.mode;
  opt.model = model;
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, model);

  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), model.psi);
    const double got = EvaluateServiceTQ(&tree, eval, grid);
    const double want =
        testing::BruteForceSO(users, facs.points(f), model);
    EXPECT_NEAR(got, want, 1e-6)
        << config.name << " model=" << model.ToString() << " facility " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAllModels, EvalServiceTest,
    ::testing::Combine(
        ::testing::Values(
            Config{IndexVariant::kBasic, TrajMode::kWhole, "TQ(B)-whole"},
            Config{IndexVariant::kZOrder, TrajMode::kWhole, "TQ(Z)-whole"},
            Config{IndexVariant::kBasic, TrajMode::kSegmented, "TQ(B)-seg"},
            Config{IndexVariant::kZOrder, TrajMode::kSegmented,
                   "TQ(Z)-seg"}),
        ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Config, int>>& info) {
      std::string name = std::get<0>(info.param).name;
      for (char& c : name) {
        if (c == '(' || c == ')' || c == '-') c = '_';
      }
      return name + "_m" + std::to_string(std::get<1>(info.param));
    });

TEST(EvalService, ComponentClipKeepsOnlyRelevantStops) {
  const std::vector<Point> stops = {{10, 10}, {500, 500}, {990, 990}};
  const StopGrid grid(stops, 20.0);
  const Component full = FullComponent(grid);
  EXPECT_EQ(full.size(), 3u);
  const Component clipped =
      ClipComponent(grid, full, Rect::Of(0, 0, 100, 100));
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0], 0u);
  // A stop just outside still counts when its ψ-disk reaches the rect.
  const Component near =
      ClipComponent(grid, full, Rect::Of(0, 0, 495, 495));
  EXPECT_EQ(near.size(), 2u);
}

TEST(EvalService, ComponentEmbrCoversServingArea) {
  const std::vector<Point> stops = {{100, 100}, {200, 200}};
  const StopGrid grid(stops, 50.0);
  const Rect embr = ComponentEmbr(grid, FullComponent(grid));
  EXPECT_EQ(embr, Rect::Of(50, 50, 250, 250));
  const Rect partial = ComponentEmbr(grid, Component{1});
  EXPECT_EQ(partial, Rect::Of(150, 150, 250, 250));
}

TEST(EvalService, FarAwayFacilityServesNothing) {
  Rng rng(503);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 2, w);
  TQTreeOptions opt;
  opt.model = ServiceModel::Endpoints(50);
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, opt.model);
  const std::vector<Point> stops = {{50000, 50000}};
  const StopGrid grid(stops, 50.0);
  QueryStats stats;
  EXPECT_DOUBLE_EQ(EvaluateServiceTQ(&tree, eval, grid, &stats), 0.0);
  // The whole tree must be pruned after the root visit.
  EXPECT_LE(stats.nodes_visited, 1u);
}

TEST(EvalService, CollectServedMatchesEvaluate) {
  Rng rng(505);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 6, 10, w);
  for (const ServiceModel& model : testing::AllModels(250.0)) {
    for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
      TQTreeOptions opt;
      opt.beta = 8;
      opt.mode = mode;
      opt.model = model;
      TQTree tree(&users, opt);
      const ServiceEvaluator eval(&users, model);
      for (uint32_t f = 0; f < facs.size(); ++f) {
        const StopGrid grid(facs.points(f), model.psi);
        ServedGather served;
        CollectServedTQ(&tree, eval, grid, &served);
        double so = 0.0;
        for (const uint32_t user : served.users()) {
          so += eval.ValueOfMask(user, served.MaskOf(user));
        }
        EXPECT_NEAR(so, EvaluateServiceTQ(&tree, eval, grid), 1e-6)
            << model.ToString();
      }
    }
  }
}

TEST(EvalService, StatsCountPruning) {
  Rng rng(507);
  const Rect w = Rect::Of(0, 0, 50000, 50000);
  const TrajectorySet users = testing::RandomUsers(&rng, 3000, 2, 2, w);
  TQTreeOptions opt;
  opt.beta = 32;
  opt.model = ServiceModel::Endpoints(150);
  TQTree tree(&users, opt);
  const ServiceEvaluator eval(&users, opt.model);
  // Tight facility in a corner: far fewer exact checks than users.
  const std::vector<Point> stops = {{1000, 1000}, {1500, 1500}};
  const StopGrid grid(stops, 150.0);
  QueryStats stats;
  EvaluateServiceTQ(&tree, eval, grid, &stats);
  // A whole tree with point-cell tables visits no node: one exact check per
  // bit of the candidate mask.
  std::vector<uint64_t> mask;
  ASSERT_TRUE(tree.cells().MarkCandidates(grid.stops(), grid.psi(), &mask));
  size_t marked = 0;
  for (const uint64_t word : mask) marked += std::popcount(word);
  EXPECT_EQ(stats.nodes_visited, 0u);
  EXPECT_EQ(stats.exact_checks, marked);
  EXPECT_LT(stats.exact_checks, users.size() / 2)
      << "pruning had no effect";

  // A segmented tree has no tables and still walks the quadtree.
  TQTreeOptions seg_opt = opt;
  seg_opt.mode = TrajMode::kSegmented;
  TQTree segmented(&users, seg_opt);
  QueryStats seg_stats;
  EvaluateServiceTQ(&segmented, eval, grid, &seg_stats);
  EXPECT_GT(seg_stats.nodes_visited, 0u);
  EXPECT_LT(seg_stats.exact_checks, users.size() / 2)
      << "pruning had no effect";
}

}  // namespace
}  // namespace tq
