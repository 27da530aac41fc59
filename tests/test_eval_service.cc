#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "quadtree/point_quadtree.h"
#include "query/baseline.h"
#include "query/eval_service.h"
#include "service/facility_index.h"
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

// Candidate popcount and total points of the candidates of `cells` for the
// facility behind `grid`.
std::pair<size_t, size_t> CandidateLoad(const CellIndex& cells,
                                        const StopGrid& grid) {
  std::vector<uint64_t> mask;
  EXPECT_TRUE(cells.MarkCandidates(grid.stops(), grid.psi(), &mask));
  size_t candidates = 0;
  size_t points = 0;
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      ++candidates;
      points += cells.users().NumPoints(
          static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
  return {candidates, points};
}

// Scenario 2 on check-in data: every SO from the cell index's point path
// equals the baseline's (a point quadtree over the indexed users, scored in
// ascending id) bit for bit, and exact-checks exactly the candidates.
// Returns how many facilities score above zero.
size_t CheckPointPath(const CellIndex& cells, const ServiceEvaluator& eval,
                      const FacilityCatalog& catalog) {
  const TrajectorySet& users = cells.users();
  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 32);
  for (const uint32_t id : cells.IndexedTrajectories()) {
    const std::span<const Point> pts = users.points(id);
    for (uint32_t i = 0; i < pts.size(); ++i) {
      pq.Insert(PointEntry{pts[i], id, i});
    }
  }
  size_t positive = 0;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    QueryStats stats;
    const double got = EvaluateServiceCells(cells, eval, grid, &stats);
    EXPECT_EQ(got, EvaluateServiceBaseline(pq, eval, grid)) << "facility " << f;
    EXPECT_EQ(stats.exact_checks, CandidateLoad(cells, grid).first)
        << "facility " << f;
    if (got > 0.0) ++positive;
  }
  return positive;
}

TEST(EvalService, PointPathKeepsBitsUnderUpdates) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(16, 16);
  const uint32_t initial = 1200;
  std::vector<uint32_t> ids(initial);
  for (uint32_t u = 0; u < initial; ++u) ids[u] = u;
  for (const Normalization norm :
       {Normalization::kPerUser, Normalization::kNone}) {
    const ServiceModel model = ServiceModel::PointCount(400.0, norm);
    SCOPED_TRACE(model.ToString());
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&routes, model.psi);

    const CellIndex fresh(&users, model, /*tables=*/true, ids);
    {
      SCOPED_TRACE("fresh");
      EXPECT_GE(CheckPointPath(fresh, eval, catalog), 8u);
    }
    // Pending inserts: too few for a rebuild at Freeze.
    std::unique_ptr<CellIndex> inserted = fresh.Fork(&users);
    for (uint32_t u = initial; u < initial + 100; ++u) inserted->Insert(u);
    inserted->Freeze();
    ASSERT_EQ(inserted->num_pending(), 100u);
    {
      SCOPED_TRACE("pending inserts");
      CheckPointPath(*inserted, eval, catalog);
    }
    // Removals of listed and of pending ids: with the pending inserts, too
    // few for a rebuild at Freeze (removals count toward its 1/8 too).
    std::unique_ptr<CellIndex> removed = inserted->Fork(&users);
    for (uint32_t u = 0; u < initial + 100; u += 40) {
      EXPECT_TRUE(removed->Remove(u));
    }
    removed->Freeze();
    ASSERT_EQ(removed->num_pending(), 100u);
    {
      SCOPED_TRACE("removals");
      CheckPointPath(*removed, eval, catalog);
    }
    // Listed ids removed above come back as pending ones: their table
    // points must not count on top of their full evaluation.
    std::unique_ptr<CellIndex> reinserted = removed->Fork(&users);
    for (uint32_t u = 0; u < initial; u += 80) reinserted->Insert(u);
    reinserted->Freeze();
    ASSERT_EQ(reinserted->num_pending(), 100u + initial / 80);
    {
      SCOPED_TRACE("removed then reinserted");
      CheckPointPath(*reinserted, eval, catalog);
    }
    // Enough pending inserts that Freeze rebuilds the tables.
    std::unique_ptr<CellIndex> rebuilt = reinserted->Fork(&users);
    for (uint32_t u = initial + 100; u < users.size(); ++u) rebuilt->Insert(u);
    rebuilt->Freeze();
    ASSERT_EQ(rebuilt->num_pending(), 0u);
    {
      SCOPED_TRACE("rebuilt");
      CheckPointPath(*rebuilt, eval, catalog);
    }
  }
}

// Freeze counts removals toward its 1/8 rule, since a removed id stays
// listed and every walk of its near cells reads its points. Up to ⌊n/8⌋
// removals the tables stay, and the walks probe more points than an index
// built over the remaining ids; one more rebuilds them, and the index then
// answers and probes exactly as one built by the constructor.
TEST(EvalService, RemovalsPastAnEighthRebuildTheTables) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(16, 16);
  const ServiceModel model = ServiceModel::PointCount(400.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&routes, model.psi);
  const CellIndex base(&users, model, /*tables=*/true, AllIds(users));
  ASSERT_EQ(base.kind(), ZPruneMode::kMbr);  // an all-points table
  const uint32_t n = static_cast<uint32_t>(users.size());
  for (const uint32_t removals : {n / 8, n / 8 + 1}) {
    SCOPED_TRACE(std::to_string(removals) + " removals");
    std::unique_ptr<CellIndex> fork = base.Fork(&users);
    // Spread over the set: 7 is coprime to n, so the ids are distinct.
    for (uint32_t i = 0; i < removals; ++i) {
      ASSERT_TRUE(fork->Remove(i * 7 % n));
    }
    fork->Freeze();
    const CellIndex built(&users, model, /*tables=*/true,
                          fork->IndexedTrajectories());
    const bool rebuilt = removals * 8 > n;
    size_t fork_probed = 0;
    size_t built_probed = 0;
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      const StopGrid& grid = catalog.grid(f);
      QueryStats got;
      QueryStats want;
      EXPECT_EQ(EvaluateServiceCells(*fork, eval, grid, &got),
                EvaluateServiceCells(built, eval, grid, &want))
          << "facility " << f;
      if (rebuilt) {
        EXPECT_EQ(got.points_probed, want.points_probed) << "facility " << f;
      }
      fork_probed += got.points_probed;
      built_probed += want.points_probed;
    }
    if (!rebuilt) {
      EXPECT_GT(fork_probed, built_probed);
    }
  }
}

// The point path probes only the points that lie in cells near the route;
// the per-candidate path probes every point of every candidate. Both count
// the points they pass to the serve predicate.
TEST(EvalService, PointPathProbesFewerPointsThanCandidatesHold) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(16, 16);
  const ServiceModel model = ServiceModel::PointCount(400.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&routes, model.psi);
  const CellIndex cells(&users, model, /*tables=*/true, AllIds(users));
  size_t probed = 0;
  size_t held = 0;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    QueryStats stats;
    EvaluateServiceCells(cells, eval, grid, &stats);
    probed += stats.points_probed;
    held += CandidateLoad(cells, grid).second;
    // The per-candidate path over the same candidates probes all they hold.
    std::vector<uint32_t> ids;
    cells.CellUpperBound(grid, &ids);
    QueryStats over;
    EXPECT_EQ(EvaluateServiceOver(ids, eval, grid, &over),
              EvaluateServiceCells(cells, eval, grid))
        << "facility " << f;
    EXPECT_EQ(over.points_probed, CandidateLoad(cells, grid).second)
        << "facility " << f;
  }
  EXPECT_GT(probed, 0u);
  EXPECT_LT(3 * probed, held)
      << "the point path probed " << probed << " of " << held << " points";
}

}  // namespace
}  // namespace tq
