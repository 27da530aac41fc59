// Dynamic maintenance (§III-C): a tree maintained by Insert/Remove must
// answer exactly like a tree bulk-built on the final data.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/baseline.h"
#include "query/eval_service.h"
#include "test_util.h"

namespace tq {
namespace {

void ExpectSameAnswers(TQTree* a, TQTree* b, const TrajectorySet& facs,
                       const ServiceEvaluator& eval, const char* what) {
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), eval.model().psi);
    EXPECT_EQ(EvaluateServiceTQ(a, eval, grid),
              EvaluateServiceTQ(b, eval, grid))
        << what << " facility " << f;
  }
}

TEST(Updates, IncrementalInsertMatchesBulkBuild) {
  Rng rng(801);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 600, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 10, w);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);

  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  // Bulk tree over everything.
  TQTree bulk(&users, opt);
  // Incremental tree: TQTree bulk-builds over the set it is given, so build
  // over the same set minus the second half by removing, then re-insert.
  TQTree incremental(&users, opt);
  for (uint32_t u = 300; u < 600; ++u) {
    ASSERT_TRUE(incremental.Remove(u));
  }
  EXPECT_EQ(incremental.num_units(), 300u);
  for (uint32_t u = 300; u < 600; ++u) incremental.Insert(u);
  EXPECT_EQ(incremental.num_units(), 600u);

  ExpectSameAnswers(&bulk, &incremental, facs, eval, "insert");
}

TEST(Updates, RemoveMatchesTreeWithoutThem) {
  Rng rng(803);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  TrajectorySet all = testing::RandomUsers(&rng, 400, 2, 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  const ServiceModel model = ServiceModel::Endpoints(200.0);

  TQTreeOptions opt;
  opt.beta = 8;
  opt.model = model;
  TQTree pruned(&all, opt);
  // Remove every third trajectory.
  for (uint32_t u = 0; u < all.size(); u += 3) {
    ASSERT_TRUE(pruned.Remove(u));
  }
  const ServiceEvaluator eval(&all, model);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), model.psi);
    // Oracle over the survivors only.
    double expected = 0.0;
    for (uint32_t u = 0; u < all.size(); ++u) {
      if (u % 3 == 0) continue;
      expected +=
          testing::BruteForceService(all, u, facs.points(f), model);
    }
    EXPECT_NEAR(EvaluateServiceTQ(&pruned, eval, grid), expected, 1e-6);
  }
}

TEST(Updates, RemoveOfUnknownReturnsFalse) {
  Rng rng(805);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 20, 2, 2, w);
  TQTreeOptions opt;
  opt.model = ServiceModel::Endpoints(50);
  TQTree tree(&users, opt);
  ASSERT_TRUE(tree.Remove(5));
  EXPECT_FALSE(tree.Remove(5));  // already gone
}

TEST(Updates, SubBookkeepingSurvivesChurn) {
  Rng rng(807);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 500, 2, 2, w);
  TQTreeOptions opt;
  opt.beta = 8;
  // Whole trees keep no node aggregate; with two-point users, a segmented
  // tree stores one segment per user.
  opt.mode = TrajMode::kSegmented;
  opt.model = ServiceModel::Endpoints(100);
  TQTree tree(&users, opt);
  // Churn: remove random trajectories, re-insert them, repeatedly.
  std::vector<bool> present(users.size(), true);
  for (int round = 0; round < 500; ++round) {
    const auto u = static_cast<uint32_t>(rng.NextBelow(users.size()));
    if (present[u]) {
      ASSERT_TRUE(tree.Remove(u));
    } else {
      tree.Insert(u);
    }
    present[u] = !present[u];
  }
  // sub consistency: root sub equals number of present trajectories (each
  // 2-point user's one segment contributes exactly 1 under the endpoints
  // model).
  size_t live = 0;
  for (const bool p : present) live += p;
  EXPECT_NEAR(tree.node(tree.root()).sub, static_cast<double>(live), 1e-9);
  EXPECT_EQ(tree.num_units(), live);
}

TEST(Updates, SegmentedInsertRemoveRoundTrip) {
  Rng rng(809);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 150, 3, 7, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 6, 8, w);
  const ServiceModel model = ServiceModel::PointCount(200.0);
  const ServiceEvaluator eval(&users, model);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.mode = TrajMode::kSegmented;
  opt.model = model;
  TQTree reference(&users, opt);
  TQTree churned(&users, opt);
  for (uint32_t u = 0; u < users.size(); u += 2) {
    ASSERT_TRUE(churned.Remove(u));
  }
  for (uint32_t u = 0; u < users.size(); u += 2) churned.Insert(u);
  ExpectSameAnswers(&reference, &churned, facs, eval, "segmented churn");
}

TEST(Updates, ZIndexRebuildsAfterUpdates) {
  Rng rng(811);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 2, w);
  // A route through the endpoints of the first 12 users serves them all.
  std::vector<Point> route;
  for (uint32_t u = 0; u < 12; ++u) {
    route.push_back(users.points(u).front());
    route.push_back(users.points(u).back());
  }
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const ServiceEvaluator eval(&users, model);
  TQTreeOptions opt;
  opt.beta = 8;
  opt.variant = IndexVariant::kZOrder;
  // Segmented TQ(Z) trees are the ones whose walks read z-indexes.
  opt.mode = TrajMode::kSegmented;
  opt.model = model;
  TQTree tree(&users, opt);
  // Query, mutate, query again: the z-index must reflect the removal.
  const StopGrid grid(route, model.psi);
  QueryStats stats;
  const double before = EvaluateServiceTQ(&tree, eval, grid, &stats);
  EXPECT_GT(stats.zreduce.buckets_total, 0u);
  // Remove every user the facility fully serves.
  std::vector<uint32_t> served;
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (testing::BruteForceService(users, u, route, model) > 0.0) {
      served.push_back(u);
    }
  }
  ASSERT_GE(served.size(), 12u);
  // Every other one first: the survivors sit at shifted list positions.
  for (size_t i = 0; i < served.size(); i += 2) {
    ASSERT_TRUE(tree.Remove(served[i]));
  }
  EXPECT_EQ(EvaluateServiceTQ(&tree, eval, grid),
            static_cast<double>(served.size() / 2));
  for (size_t i = 1; i < served.size(); i += 2) {
    ASSERT_TRUE(tree.Remove(served[i]));
  }
  stats = QueryStats{};
  const double after = EvaluateServiceTQ(&tree, eval, grid, &stats);
  EXPECT_GT(stats.zreduce.buckets_total, 0u);
  EXPECT_NEAR(after, 0.0, 1e-9);
  EXPECT_NEAR(before, static_cast<double>(served.size()), 1e-9);
  // No z-index outlives a removal from its node's list.
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto idx = static_cast<int32_t>(i);
    const ZIndex* zi = tree.zindex(idx);
    EXPECT_EQ(zi == nullptr ? 0 : zi->num_entries(),
              tree.node(idx).entries.size())
        << "node " << i;
  }
}

// ------------------------------------------- removals and the cell tables
//
// Removed ids stay listed in a whole tree's point-cell tables (and in its
// pending list); the indexed-ids bitmap keeps them out of every mask, sum,
// served set and bound.

// The baseline over the users `live` marks: a point quadtree holding only
// their points.
PointQuadtree LiveBaseline(const TrajectorySet& users,
                           const std::vector<bool>& live) {
  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 32);
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (!live[u]) continue;
    const auto pts = users.points(u);
    for (uint32_t i = 0; i < pts.size(); ++i) pq.Insert({pts[i], u, i});
  }
  return pq;
}

// Checks every facility of `facs` on `cells` against the baseline over
// `live`: equal SO bits, no candidate bit of a de-indexed user (in the
// candidate mask, nor in either endpoint mask of kStartEnd tables), every
// served endpoint of a live user set in its own endpoint mask, and a cell
// bound no lower than SO. Returns the SO values.
std::vector<double> ExpectLiveCells(const CellIndex& cells,
                                    const std::vector<bool>& live,
                                    const TrajectorySet& facs,
                                    const char* what) {
  SCOPED_TRACE(what);
  const TrajectorySet& users = cells.users();
  const ServiceEvaluator eval(&users, cells.model());
  const FacilityCatalog catalog(&facs, cells.model().psi);
  const PointQuadtree pq = LiveBaseline(users, live);
  std::vector<double> values;
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    const double so = EvaluateServiceCells(cells, eval, grid);
    values.push_back(so);
    EXPECT_EQ(so, EvaluateServiceBaseline(pq, eval, grid)) << "facility " << f;
    EXPECT_GE(cells.CellUpperBound(grid), so) << "facility " << f;
    std::vector<uint64_t> mask;
    EXPECT_TRUE(cells.MarkCandidates(grid.stops(), grid.psi(), &mask));
    std::vector<uint64_t> sources;
    std::vector<uint64_t> destinations;
    const bool endpoint_masks = cells.MarkEndpointCandidates(
        grid.stops(), grid.psi(), &sources, &destinations);
    EXPECT_EQ(endpoint_masks, cells.kind() == ZPruneMode::kStartEnd);
    const size_t words = (users.size() + 63) / 64;
    const bool sized = mask.size() == words &&
                       (!endpoint_masks || (sources.size() == words &&
                                            destinations.size() == words));
    EXPECT_TRUE(sized) << "facility " << f;
    if (!sized) continue;
    const auto bit = [](const std::vector<uint64_t>& m, uint32_t u) {
      return ((m[u >> 6] >> (u & 63)) & 1) != 0;
    };
    for (uint32_t u = 0; u < users.size(); ++u) {
      if (!live[u]) {
        EXPECT_FALSE(bit(mask, u))
            << "de-indexed user " << u << " facility " << f;
        if (endpoint_masks) {
          EXPECT_FALSE(bit(sources, u))
              << "de-indexed user " << u << " facility " << f << " source";
          EXPECT_FALSE(bit(destinations, u))
              << "de-indexed user " << u << " facility " << f
              << " destination";
        }
        continue;
      }
      if (!endpoint_masks) continue;
      const std::span<const Point> pts = users.points(u);
      if (grid.Serves(pts.front())) {
        EXPECT_TRUE(bit(sources, u))
            << "served source: user " << u << " facility " << f;
      }
      if (grid.Serves(pts.back())) {
        EXPECT_TRUE(bit(destinations, u))
            << "served destination: user " << u << " facility " << f;
      }
    }
  }
  return values;
}

// Expects `got` to hold exactly the users of `want`, each with an equal
// mask.
void ExpectSameServed(const ServedGather& got, const ServedGather& want,
                      const std::string& what) {
  std::vector<uint32_t> got_users = got.users();
  std::vector<uint32_t> want_users = want.users();
  std::sort(got_users.begin(), got_users.end());
  std::sort(want_users.begin(), want_users.end());
  EXPECT_EQ(got_users, want_users) << what;
  if (got_users != want_users) return;
  for (const uint32_t u : got_users) {
    const auto a = got.MaskOf(u);
    const auto b = want.MaskOf(u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "user " << u << " " << what;
  }
}

// Expects `sources` and `destinations` (CollectServedEndpoints' output) to
// list exactly the users of the Scenario 1 gather `want` whose `pool` bit
// is set and whose source (destination) bit `want` has.
void ExpectSameEndpoints(const std::vector<uint32_t>& sources,
                         const std::vector<uint32_t>& destinations,
                         const ServedGather& want, const TrajectorySet& users,
                         const uint64_t* pool, const std::string& what) {
  std::vector<uint32_t> ids = want.users();
  std::sort(ids.begin(), ids.end());
  std::vector<uint32_t> want_sources;
  std::vector<uint32_t> want_destinations;
  for (const uint32_t u : ids) {
    if (((pool[u >> 6] >> (u & 63)) & 1) == 0) continue;
    const std::span<const uint64_t> mask = want.MaskOf(u);
    const size_t last = users.NumPoints(u) - 1;
    if ((mask[0] & 1) != 0) want_sources.push_back(u);
    if (((mask[last >> 6] >> (last & 63)) & 1) != 0) {
      want_destinations.push_back(u);
    }
  }
  EXPECT_EQ(sources, want_sources) << what;
  EXPECT_EQ(destinations, want_destinations) << what;
}

// ExpectLiveCells on `tree`'s cell index, plus the tree's own answers:
// EvaluateServiceTQ's bits, served sets equal to the baseline's and, under
// Scenario 1, the served endpoints restricted to a pool mask (the
// candidates near facility f and its successor, as MaxkCovRST pools them)
// equal to the baseline's.
std::vector<double> ExpectLiveAnswers(TQTree* tree,
                                      const std::vector<bool>& live,
                                      const TrajectorySet& facs,
                                      const char* what) {
  const std::vector<double> values =
      ExpectLiveCells(tree->cells(), live, facs, what);
  SCOPED_TRACE(what);
  const TrajectorySet& users = tree->users();
  const ServiceModel& model = tree->options().model;
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  const PointQuadtree pq = LiveBaseline(users, live);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    EXPECT_EQ(EvaluateServiceTQ(tree, eval, grid), values[f])
        << "facility " << f;
    ServedGather want;
    CollectServedBaseline(pq, eval, grid, &want);
    ServedGather got;
    CollectServedTQ(tree, eval, grid, &got);
    ExpectSameServed(got, want, "facility " + std::to_string(f));
    std::vector<Point> pooled(facs.points(f).begin(), facs.points(f).end());
    const std::span<const Point> next = facs.points((f + 1) % facs.size());
    pooled.insert(pooled.end(), next.begin(), next.end());
    std::vector<uint64_t> pool;
    EXPECT_TRUE(tree->cells().MarkCandidates(pooled, model.psi, &pool));
    if (pool.empty() || !AnyEndpointCollection(*tree, eval)) continue;
    std::vector<uint32_t> sources;
    std::vector<uint32_t> destinations;
    CollectServedEndpoints(*tree, grid, pool.data(), &sources, &destinations);
    ExpectSameEndpoints(sources, destinations, want, users, pool.data(),
                        "pooled, facility " + std::to_string(f));
  }
  return values;
}

// Ids with a bit in some facility's candidate mask: users the tables list
// near a facility.
std::vector<uint32_t> ListedIds(const TQTree& tree, const TrajectorySet& facs) {
  std::vector<bool> seen(tree.users().size(), false);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    std::vector<uint64_t> mask;
    EXPECT_TRUE(tree.cells().MarkCandidates(facs.points(f),
                                            tree.options().model.psi, &mask));
    for (uint32_t u = 0; u < seen.size(); ++u) {
      if ((mask[u >> 6] >> (u & 63)) & 1) seen[u] = true;
    }
  }
  std::vector<uint32_t> ids;
  for (uint32_t u = 0; u < seen.size(); ++u) {
    if (seen[u]) ids.push_back(u);
  }
  return ids;
}

void CheckRemovalsAgainstTables(size_t min_pts, size_t max_pts,
                                const ServiceModel& model,
                                IndexVariant variant) {
  Rng rng(813 + max_pts);
  const Rect w = Rect::Of(0, 0, 8000, 8000);
  const TrajectorySet users =
      testing::RandomUsers(&rng, 600, min_pts, max_pts, w);
  TrajectorySet facs = testing::RandomFacilities(&rng, 12, 16, w);
  for (const uint32_t u : {0u, 1u, 2u, 3u}) facs.Add(users.points(u));
  // An extension inserted after the tables are built: pending ids.
  TrajectorySet extended = users;
  const TrajectorySet more =
      testing::RandomUsers(&rng, 20, min_pts, max_pts, w);
  std::vector<uint32_t> added;
  for (uint32_t u = 0; u < more.size(); ++u) {
    added.push_back(extended.Add(more.points(u)));
  }
  facs.Add(more.points(0));
  facs.Add(more.points(1));

  TQTreeOptions opt;
  opt.beta = 8;
  opt.variant = variant;
  opt.model = model;
  TQTree tree(&extended, opt, AllIds(users));
  std::vector<bool> live(extended.size(), false);
  std::fill(live.begin(), live.begin() + users.size(), true);

  // (1) Remove ids the tables list, half before and half after a freeze.
  const std::vector<uint32_t> listed = ListedIds(tree, facs);
  ASSERT_GE(listed.size(), 20u);
  for (size_t i = 0; i < listed.size(); i += 2) {
    ASSERT_TRUE(tree.Remove(listed[i]));
    live[listed[i]] = false;
    if (i == listed.size() / 2) tree.Freeze();
  }
  ExpectLiveAnswers(&tree, live, facs, "removed listed ids");
  tree.Freeze();
  const std::vector<double> parent_values =
      ExpectLiveAnswers(&tree, live, facs, "removed listed ids, frozen");

  // (2)-(4) run twice: on a fork of the tree's cell index, which writes
  // while the tree is still read, then on the tree itself, in place.
  std::unique_ptr<CellIndex> child = tree.cells().Fork(&extended);
  std::vector<bool> child_live = live;
  const auto write = [&](auto&& insert, auto&& remove) {
    child_live = live;
    // (2) Insert then remove a pending id.
    for (const uint32_t u : added) {
      insert(u);
      child_live[u] = true;
    }
    for (size_t i = 0; i < added.size(); i += 2) {
      ASSERT_TRUE(remove(added[i]));
      child_live[added[i]] = false;
    }
    // (3) Remove then re-insert: both a table-listed and a pending id.
    ASSERT_TRUE(remove(listed[1]));
    insert(listed[1]);
    ASSERT_TRUE(remove(added[1]));
    insert(added[1]);
    // (4) A removal the parent must not see.
    ASSERT_TRUE(remove(listed[3]));
    child_live[listed[3]] = false;
  };
  write([&](uint32_t u) { child->Insert(u); },
        [&](uint32_t u) { return child->Remove(u); });
  EXPECT_EQ(ExpectLiveAnswers(&tree, live, facs, "parent, child unfrozen"),
            parent_values);
  const std::vector<double> child_values =
      ExpectLiveCells(*child, child_live, facs, "child, unfrozen");
  child->Freeze();
  EXPECT_EQ(ExpectLiveCells(*child, child_live, facs, "child, frozen"),
            child_values);
  EXPECT_EQ(ExpectLiveAnswers(&tree, live, facs, "parent, child frozen"),
            parent_values);

  write([&](uint32_t u) { tree.Insert(u); },
        [&](uint32_t u) { return tree.Remove(u); });
  EXPECT_EQ(ExpectLiveAnswers(&tree, child_live, facs, "in place, unfrozen"),
            child_values);
  tree.Freeze();
  EXPECT_EQ(ExpectLiveAnswers(&tree, child_live, facs, "in place, frozen"),
            child_values);
  EXPECT_EQ(
      ExpectLiveCells(*child, child_live, facs, "child after tree writes"),
      child_values);
}

TEST(Updates, RemovedIdsLeaveTwoPointEndpointTables) {
  for (const IndexVariant variant :
       {IndexVariant::kBasic, IndexVariant::kZOrder}) {
    CheckRemovalsAgainstTables(2, 2, ServiceModel::Endpoints(300.0),
                               variant);
  }
}

TEST(Updates, RemovedIdsLeaveMultipointPointTables) {
  for (const IndexVariant variant :
       {IndexVariant::kBasic, IndexVariant::kZOrder}) {
    CheckRemovalsAgainstTables(
        3, 7, ServiceModel::PointCount(300.0, Normalization::kPerUser),
        variant);
  }
}

}  // namespace
}  // namespace tq
