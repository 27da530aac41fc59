#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "geom/distance.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "service/facility_index.h"
#include "test_util.h"
#include "tqtree/aggregates.h"
#include "tqtree/point_raster.h"
#include "tqtree/tq_tree.h"

namespace tq {

namespace {

TQTreeOptions MakeOptions(IndexVariant variant, TrajMode mode,
                          ServiceModel model, size_t beta = 8) {
  TQTreeOptions opt;
  opt.beta = beta;
  opt.variant = variant;
  opt.mode = mode;
  opt.model = model;
  return opt;
}

// Walks a segmented tree's quadtree checking the §III invariants.
void CheckStructure(const TQTree& tree) {
  size_t stored_units = 0;
  double sum_unit_ub = 0.0;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const TQNode& n = tree.node(static_cast<int32_t>(i));
    stored_units += n.entries.size();
    // sub = Σ own entries' ub + Σ children sub.
    double expect_sub = 0.0;
    // Every stored unit's MBR fits the node.
    for (const TrajEntry& e : n.entries) {
      EXPECT_TRUE(n.rect.ContainsRect(e.mbr))
          << "unit " << e.traj_id << " escapes node " << i;
      expect_sub += e.ub;
      if (!n.IsLeaf()) {
        // Inter-node unit: no single child may contain it.
        for (int q = 0; q < 4; ++q) {
          EXPECT_FALSE(
              tree.node(n.first_child + q).rect.ContainsRect(e.mbr))
              << "inter-node unit " << e.traj_id << " fits child " << q;
        }
      }
    }
    sum_unit_ub += expect_sub;
    if (!n.IsLeaf()) {
      for (int q = 0; q < 4; ++q) {
        expect_sub += tree.node(n.first_child + q).sub;
      }
    }
    EXPECT_NEAR(n.sub, expect_sub, 1e-9) << "node " << i;
  }
  EXPECT_EQ(stored_units, tree.num_units());
  EXPECT_NEAR(tree.node(tree.root()).sub, sum_unit_ub, 1e-6);
}

// With two-point users, a segmented tree stores one segment per user: the
// quadtree the paper builds over whole two-point trajectories.
TEST(TQTree, EveryTwoPointUserStoredExactlyOnce) {
  Rng rng(301);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 500, 2, 2, w);
  TQTree tree(&users, MakeOptions(IndexVariant::kZOrder, TrajMode::kSegmented,
                                  ServiceModel::Endpoints(100)));
  std::map<uint32_t, int> count;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    for (const TrajEntry& e : tree.node(static_cast<int32_t>(i)).entries) {
      EXPECT_EQ(e.seg_index, 0u);
      count[e.traj_id]++;
    }
  }
  EXPECT_EQ(count.size(), users.size());
  for (const auto& [id, c] : count) EXPECT_EQ(c, 1) << "traj " << id;
  CheckStructure(tree);
}

TEST(TQTree, SegmentedModeStoresEverySegmentOnce) {
  Rng rng(303);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 150, 2, 8, w);
  TQTree tree(&users, MakeOptions(IndexVariant::kZOrder, TrajMode::kSegmented,
                                  ServiceModel::PointCount(100)));
  // §III-B: total stored units = Σ (|u| − 1).
  size_t expected = 0;
  for (uint32_t u = 0; u < users.size(); ++u) {
    expected += users.NumPoints(u) - 1;
  }
  EXPECT_EQ(tree.num_units(), expected);
  std::map<std::pair<uint32_t, uint32_t>, int> count;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    for (const TrajEntry& e : tree.node(static_cast<int32_t>(i)).entries) {
      count[{e.traj_id, e.seg_index}]++;
    }
  }
  for (const auto& [key, c] : count) EXPECT_EQ(c, 1);
  CheckStructure(tree);
  // Removing every third user erases exactly its units, several of which
  // may share a node, and leaves every other unit where it was, in order.
  const auto units_of = [](const std::vector<TrajEntry>& list, bool all) {
    std::vector<std::pair<uint32_t, uint32_t>> ids;
    for (const TrajEntry& e : list) {
      if (all || e.traj_id % 3 != 0) ids.emplace_back(e.traj_id, e.seg_index);
    }
    return ids;
  };
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> kept;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    kept.push_back(
        units_of(tree.node(static_cast<int32_t>(i)).entries, false));
  }
  for (uint32_t u = 0; u < users.size(); u += 3) {
    expected -= users.NumPoints(u) - 1;
    ASSERT_TRUE(tree.Remove(u));
  }
  EXPECT_FALSE(tree.Remove(0));
  EXPECT_EQ(tree.num_units(), expected);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_EQ(units_of(tree.node(static_cast<int32_t>(i)).entries, true),
              kept[i])
        << "node " << i;
  }
  CheckStructure(tree);
}

TEST(TQTree, LeavesRespectBetaUnlessUnsplittable) {
  Rng rng(305);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 2000, 2, 2, w);
  TQTreeOptions opt = MakeOptions(IndexVariant::kBasic, TrajMode::kSegmented,
                                  ServiceModel::Endpoints(100), 16);
  TQTree tree(&users, opt);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const TQNode& n = tree.node(static_cast<int32_t>(i));
    if (!n.IsLeaf()) continue;
    if (n.entries.size() > opt.beta) {
      // Only allowed when the node cannot split usefully.
      EXPECT_TRUE(n.depth >= opt.max_depth || n.split_failed_at > 0)
          << "overfull splittable leaf " << i;
    }
  }
}

TEST(TQTree, LongerTrajectoriesLiveHigher) {
  // A trajectory spanning the whole space must sit at the root; a tiny one
  // in a corner must descend.
  TrajectorySet users;
  const Point long_traj[] = {{10, 10}, {9990, 9990}};
  users.Add(long_traj);
  for (int i = 0; i < 40; ++i) {
    const double x = 100.0 + i;
    const Point t[] = {{x, 100}, {x + 1, 101}};
    users.Add(t);
  }
  TQTree tree(&users, MakeOptions(IndexVariant::kBasic, TrajMode::kSegmented,
                                  ServiceModel::Endpoints(50), 4));
  bool root_has_long = false;
  for (const TrajEntry& e : tree.node(tree.root()).entries) {
    root_has_long |= (e.traj_id == 0);
  }
  EXPECT_TRUE(root_has_long);
  // Tiny trajectories ended up strictly below the root.
  size_t below = 0;
  for (size_t i = 1; i < tree.num_nodes(); ++i) {
    below += tree.node(static_cast<int32_t>(i)).entries.size();
  }
  EXPECT_GT(below, 0u);
}

TEST(TQTree, DerivePruneModeMatrix) {
  const ServiceModel endpoints = ServiceModel::Endpoints(50);
  const ServiceModel count = ServiceModel::PointCount(50);
  const ServiceModel length = ServiceModel::Length(50);
  using PM = ZPruneMode;
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, endpoints, 2), PM::kStartEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, endpoints, 9), PM::kStartEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, count, 2), PM::kStartOrEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, count, 9), PM::kMbr);
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, length, 2), PM::kStartEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kWhole, length, 9), PM::kMbr);
  EXPECT_EQ(DerivePruneMode(TrajMode::kSegmented, count, 9),
            PM::kStartOrEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kSegmented, length, 9),
            PM::kStartEnd);
  EXPECT_EQ(DerivePruneMode(TrajMode::kSegmented, endpoints, 9),
            PM::kStartOrEnd);
}

TEST(TQTree, StatsAreCoherent) {
  Rng rng(313);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 800, 2, 2, w);
  TQTree tree(&users, MakeOptions(IndexVariant::kZOrder, TrajMode::kSegmented,
                                  ServiceModel::Endpoints(100)));
  const TQTreeStats s = tree.ComputeStats();
  EXPECT_EQ(s.num_entries, users.size());
  EXPECT_GT(s.num_nodes, 1u);
  EXPECT_GE(s.num_nodes, s.num_leaves);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(TQTree, UnitUpperBoundSegmentScenario1EndpointsOnly) {
  TrajectorySet users;
  const Point t[] = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  users.Add(t);
  const ServiceModel m = ServiceModel::Endpoints(5);
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 0, m), 1.0);  // touches source
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 1, m), 0.0);  // interior
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 2, m), 1.0);  // touches dest
}

TEST(TQTree, UnitUpperBoundSegmentPointOwnership) {
  TrajectorySet users;
  const Point t[] = {{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  users.Add(t);
  const ServiceModel m = ServiceModel::PointCount(5, Normalization::kNone);
  // Segment 0 owns points 0 and 1; segments 1, 2 own one point each.
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 0, m), 2.0);
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 1, m), 1.0);
  EXPECT_DOUBLE_EQ(UnitUpperBound(users, 0, 2, m), 1.0);
  // Ownership partitions the trajectory's points exactly.
  double total = 0;
  for (uint32_t s = 0; s < 3; ++s) total += UnitUpperBound(users, 0, s, m);
  EXPECT_DOUBLE_EQ(total, 4.0);
}

// ------------------------------------------- point-cell candidate filter

bool IntegerValued(const ServiceModel& m) {
  return m.scenario == Scenario::kEndpoints ||
         (m.scenario == Scenario::kPointCount &&
          m.normalization == Normalization::kNone);
}

// The z-index rule on a frozen segmented tree: a TQ(Z) tree, whose walks
// read z-indexes, has one on every non-empty node; a TQ(B) tree has none,
// and zindex() returns what the node holds without building anything.
void ExpectZIndexRule(TQTree* tree, const std::string& where) {
  const bool walked = tree->options().variant == IndexVariant::kZOrder;
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    const auto idx = static_cast<int32_t>(i);
    const ZIndex* held = tree->node(idx).zindex.get();
    EXPECT_EQ(held != nullptr, walked && !tree->node(idx).entries.empty())
        << where << ", node " << i;
    EXPECT_EQ(tree->zindex(idx), held) << where << ", node " << i;
    if (held != nullptr) {
      EXPECT_EQ(held->num_entries(), tree->node(idx).entries.size())
          << where << ", node " << i;
    }
  }
}

// Checks the filter of `cells`, which must index exactly `indexed`, against
// every facility: each indexed user that scores > 0 (by the evaluator and
// by brute force) has its bit set in the default mask; on kStartEnd tables
// each served source has its bit in the source mask of
// MarkEndpointCandidates and each served destination in the destination
// mask (elsewhere each user with a served detail has its bit in the
// default mask, which collection reads); no user outside the index
// has a bit in any mask, EvaluateServiceCells exact-checks exactly the set
// bits, the cell bound is never below the exact value, and SO equals brute
// force over the indexed users — exactly for the integer-valued models.
// Adds to `*cleared` how many (user, facility) pairs the default mask
// cleared; returns the SO values.
std::vector<double> CheckCellFilter(const CellIndex& cells,
                                    const std::vector<uint32_t>& indexed,
                                    const TrajectorySet& facs,
                                    size_t* cleared) {
  EXPECT_EQ(cells.IndexedTrajectories(), indexed);
  EXPECT_TRUE(cells.has_tables());
  const TrajectorySet& users = cells.users();
  const ServiceModel& model = cells.model();
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&facs, model.psi);
  const auto bit = [](const std::vector<uint64_t>& mask, uint32_t u) {
    return ((mask[u >> 6] >> (u & 63)) & 1) != 0;
  };
  std::vector<bool> is_indexed(users.size(), false);
  for (const uint32_t u : indexed) is_indexed[u] = true;
  std::vector<double> values(facs.size(), 0.0);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    std::vector<uint64_t> mask;
    std::vector<uint64_t> sources;
    std::vector<uint64_t> destinations;
    const bool filtered = cells.MarkCandidates(grid.stops(), grid.psi(), &mask);
    EXPECT_TRUE(filtered) << "facility " << f;
    if (!filtered) continue;
    EXPECT_EQ(mask.size(), (users.size() + 63) / 64);
    const bool endpoint_masks = cells.MarkEndpointCandidates(
        grid.stops(), grid.psi(), &sources, &destinations);
    EXPECT_EQ(endpoint_masks, cells.kind() == ZPruneMode::kStartEnd)
        << "facility " << f;
    if (endpoint_masks) {
      EXPECT_EQ(sources.size(), mask.size());
      EXPECT_EQ(destinations.size(), mask.size());
      // Only indexed users have endpoint bits.
      for (uint32_t u = 0; u < users.size(); ++u) {
        if (is_indexed[u]) continue;
        EXPECT_FALSE(bit(sources, u) || bit(destinations, u))
            << "unindexed user " << u << " facility " << f;
      }
    }
    double so = 0.0;
    size_t candidates = 0;
    for (const uint32_t u : indexed) {
      const double v = testing::BruteForceService(users, u, grid.stops(), model);
      so += v;
      if (bit(mask, u)) {
        ++candidates;
      } else {
        ++*cleared;
      }
      if (v > 0.0 || eval.Evaluate(u, grid) > 0.0) {
        EXPECT_TRUE(bit(mask, u)) << "user " << u << " facility " << f;
      }
      if (endpoint_masks) {
        const std::span<const Point> pts = users.points(u);
        if (grid.Serves(pts.front())) {
          EXPECT_TRUE(bit(sources, u))
              << "served source: user " << u << " facility " << f;
        }
        if (grid.Serves(pts.back())) {
          EXPECT_TRUE(bit(destinations, u))
              << "served destination: user " << u << " facility " << f;
        }
      } else if (eval.EvaluateDetail(u, grid).Any()) {
        // Without endpoint tables, collection reads the candidate mask.
        EXPECT_TRUE(bit(mask, u))
            << "served point: user " << u << " facility " << f;
      }
    }
    // Only indexed users have bits: removed ones stay listed in the tables
    // but are cleared by the indexed-ids bitmap.
    size_t marked = 0;
    for (const uint64_t word : mask) marked += std::popcount(word);
    EXPECT_EQ(marked, candidates) << "facility " << f;
    QueryStats stats;
    const double got = EvaluateServiceCells(cells, eval, grid, &stats);
    values[f] = got;
    // One exact check per candidate bit.
    EXPECT_EQ(stats.exact_checks, candidates) << "facility " << f;
    EXPECT_GE(cells.CellUpperBound(grid), got) << "facility " << f;
    if (IntegerValued(model)) {
      EXPECT_EQ(got, so) << "facility " << f;
    } else {
      EXPECT_NEAR(got, so, 1e-9 * std::max(1.0, so)) << "facility " << f;
    }
  }
  return values;
}

// CheckCellFilter on a whole tree's cell index, over the ids it indexes,
// plus the tree's own answers: EvaluateServiceTQ returns the cells' bits
// without a walk, served-set collection finds exactly the users with a
// served detail, and top-k returns EvaluateServiceTQ's bits in the
// exhaustive order. Also checks that the whole tree builds no quadtree (no
// node, no stored unit) and counts its indexed trajectories. Returns how
// many (user, facility) pairs the default mask cleared.
size_t CheckCandidateFilter(TQTree* tree, const TrajectorySet& facs,
                            const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(tree->num_nodes(), 0u);
  EXPECT_EQ(tree->ComputeStats().num_entries, 0u);
  const std::vector<uint32_t> indexed = tree->cells().IndexedTrajectories();
  EXPECT_EQ(tree->num_units(), indexed.size());
  size_t cleared = 0;
  const std::vector<double> values =
      CheckCellFilter(tree->cells(), indexed, facs, &cleared);
  const TrajectorySet& users = tree->users();
  const ServiceEvaluator eval(&users, tree->options().model);
  const FacilityCatalog catalog(&facs, tree->options().model.psi);
  std::vector<RankedFacility> exact(facs.size());
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    QueryStats stats;
    exact[f] = RankedFacility{f, EvaluateServiceTQ(tree, eval, grid, &stats)};
    EXPECT_EQ(exact[f].value, values[f]) << "facility " << f;
    EXPECT_EQ(stats.nodes_visited, 0u) << "facility " << f;
    std::map<uint32_t, DynamicBitset> want_served;
    for (const uint32_t u : indexed) {
      ServeDetail detail = eval.EvaluateDetail(u, grid);
      if (detail.Any()) want_served.emplace(u, std::move(detail.mask));
    }
    ServedGather served;
    CollectServedTQ(tree, eval, grid, &served);
    EXPECT_EQ(served.users().size(), want_served.size()) << "facility " << f;
    const std::set<uint32_t> collected(served.users().begin(),
                                       served.users().end());
    for (const auto& [u, detail] : want_served) {
      if (collected.count(u) == 0) {
        ADD_FAILURE() << "not collected: user " << u << " facility " << f;
        continue;
      }
      const std::span<const uint64_t> mask = served.MaskOf(u);
      EXPECT_TRUE(std::equal(mask.begin(), mask.end(), detail.WordData(),
                             detail.WordData() + detail.NumWords()))
          << "user " << u << " facility " << f;
    }
  }
  std::sort(exact.begin(), exact.end(), RankedBefore);
  for (const size_t k : {size_t{1}, size_t{5}, facs.size()}) {
    const TopKResult top = TopKFacilitiesTQ(tree, catalog, eval, k);
    EXPECT_EQ(top.ranked.size(), k);
    if (top.ranked.size() != k) continue;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(top.ranked[i].id, exact[i].id) << "k=" << k << " rank " << i;
      EXPECT_EQ(top.ranked[i].value, exact[i].value)
          << "k=" << k << " rank " << i;
    }
  }
  return cleared;
}

// CheckCellFilter on a cell index alone, which must index exactly `ids`.
void CheckCells(const CellIndex& cells, const std::set<uint32_t>& ids,
                const TrajectorySet& facs, const std::string& where) {
  SCOPED_TRACE(where);
  size_t cleared = 0;
  CheckCellFilter(cells, std::vector<uint32_t>(ids.begin(), ids.end()), facs,
                  &cleared);
}

// Soundness of the point-cell filter under every model, through the life of
// an index: fresh, after inserts (pending list, then folded into a rebuilt
// table), after removals, on both sides of a cell-index fork, in place on a
// tree and after a rebuild over the indexed ids. Points and stops sit on
// raster cell borders (a point exactly ψ beyond a stop across a border) and
// outside the world box, where cells clamp. `two_point` builds
// source-destination users, whose Scenario 1 and 3 trees filter by source
// and destination tables (both near, or each endpoint against its own
// table for served-set collection) and whose Scenario 2 trees by the any-point table; multipoint
// users get endpoint tables under Scenario 1 and the any-point table
// otherwise.
void CheckPointCellLifecycle(bool two_point) {
  Rng rng(two_point ? 337 : 331);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const size_t min_pts = two_point ? 2 : 3;
  const size_t max_pts = two_point ? 2 : 8;
  // Drops the middle points of a trajectory in the two-point world.
  const auto shape = [two_point](std::vector<Point> pts) {
    if (two_point) pts.erase(pts.begin() + 1, pts.end() - 1);
    return pts;
  };
  TrajectorySet base = testing::RandomUsers(&rng, 300, min_pts, max_pts, w);
  // Pin the bounding box to `w`, so the world of every tree below is known.
  base.Add(shape({{0, 0}, {20000, 0}, {20000, 20000}}));
  const ServiceModel probe_model = ServiceModel::PointCount(150.0);
  const Rect world = TQTree(&base, MakeOptions(IndexVariant::kZOrder,
                                               TrajMode::kWhole, probe_model))
                         .world();
  const double cw = world.Width() / static_cast<double>(kRasterResolution);
  const double ch = world.Height() / static_cast<double>(kRasterResolution);
  const double psi = 150.0;

  TrajectorySet facs = testing::RandomFacilities(&rng, 20, 8, w);
  // Users on cell borders, each with a facility whose stops lie exactly ψ
  // away from the source and the destination on the other side of a
  // border (and one sharing the border).
  TrajectorySet users = base;
  for (int j = 0; j < 12; ++j) {
    const double x =
        world.min_x + static_cast<double>(20 + rng.NextBelow(200)) * cw;
    const double y =
        world.min_y + static_cast<double>(20 + rng.NextBelow(200)) * ch;
    users.Add(shape({{x, y}, {x + 0.5 * cw, y}, {x, y + 3.0 * ch}}));
    const Point stops[] = {{x - psi, y}, {x, y + 3.0 * ch + psi}};
    facs.Add(stops);
  }
  // Users outside the world box, inserted after the build, and facilities
  // near them whose ψ-squares also leave the world.
  TrajectorySet extended = users;
  std::vector<uint32_t> outside;
  for (int j = 0; j < 8; ++j) {
    const double y = rng.NextUniform(world.min_y, world.max_y);
    const double dx = 100.0 + 40.0 * j;
    outside.push_back(extended.Add(shape({{world.max_x + dx, y},
                                          {world.max_x + dx + 30.0, y + 30.0},
                                          {world.min_x - dx,
                                           world.max_y + dx}})));
    const Point stops[] = {{world.max_x + dx - 100.0, y},
                           {world.min_x - dx + psi, world.max_y + dx}};
    facs.Add(stops);
  }
  // Plain random extension users (inserted after the build).
  TrajectorySet more = testing::RandomUsers(&rng, 60, min_pts, max_pts, w);
  std::vector<uint32_t> later;
  for (uint32_t u = 0; u < more.size(); ++u) {
    later.push_back(extended.Add(more.points(u)));
  }

  for (const ServiceModel& model :
       {ServiceModel::Endpoints(psi),
        ServiceModel::PointCount(psi, Normalization::kNone),
        ServiceModel::PointCount(psi, Normalization::kPerUser),
        ServiceModel::Length(psi, Normalization::kNone),
        ServiceModel::Length(psi, Normalization::kPerUser)}) {
    SCOPED_TRACE("scenario " + std::to_string(static_cast<int>(
                                   model.scenario)) +
                 " norm " +
                 std::to_string(static_cast<int>(model.normalization)));
    TQTree fresh(&users, MakeOptions(IndexVariant::kZOrder, TrajMode::kWhole,
                                     model, 16));
    ASSERT_EQ(fresh.world(), world);
    ASSERT_EQ(fresh.prune_mode(),
              DerivePruneMode(TrajMode::kWhole, model, two_point ? 2 : 3));
    ASSERT_EQ(fresh.cells().kind(), fresh.prune_mode());
    const size_t fresh_cleared = CheckCandidateFilter(&fresh, facs, "fresh");
    // The filter must actually filter.
    EXPECT_GT(fresh_cleared, 0u);
    // TQ(B) trees are frozen at construction and filter their linear scan.
    TQTree basic(&users, MakeOptions(IndexVariant::kBasic, TrajMode::kWhole,
                                     model, 16));
    CheckCandidateFilter(&basic, facs, "TQ(B)");

    // A fork of the tree's cell index over the extended set keeps the
    // tree's world, so the outside users clamp into border cells. Inserts
    // go to the pending list (no refreeze yet), then stay there through a
    // freeze while they are few.
    const std::vector<uint32_t> fresh_ids = fresh.cells().IndexedTrajectories();
    std::set<uint32_t> ids(fresh_ids.begin(), fresh_ids.end());
    std::unique_ptr<CellIndex> fork = fresh.cells().Fork(&extended);
    ASSERT_EQ(fork->world(), world);
    for (const uint32_t u : outside) {
      fork->Insert(u);
      ids.insert(u);
    }
    CheckCells(*fork, ids, facs, "fork, pending inserts");
    fork->Freeze();
    EXPECT_EQ(fork->num_pending(), outside.size());
    CheckCells(*fork, ids, facs, "fork, frozen with pending");
    // The parent keeps its own (empty) pending list and its answers.
    EXPECT_EQ(fresh.cells().num_pending(), 0u);
    CheckCandidateFilter(&fresh, facs, "parent after fork writes");

    // A fork of an index with pending inserts inherits them; both sides
    // share the tables and write independently.
    {
      std::unique_ptr<CellIndex> grandchild = fork->Fork(&extended);
      ASSERT_TRUE(grandchild->Remove(1));
      ASSERT_TRUE(grandchild->Remove(outside[1]));
      grandchild->Freeze();
      std::set<uint32_t> grandchild_ids = ids;
      grandchild_ids.erase(1);
      grandchild_ids.erase(outside[1]);
      CheckCells(*grandchild, grandchild_ids, facs, "grandchild");
      CheckCells(*fork, ids, facs, "fork after grandchild writes");
    }

    // Removals leave stale ids in the tables; no mask may carry them.
    for (uint32_t u = 0; u < users.size(); u += 3) {
      ASSERT_TRUE(fork->Remove(u));
      ids.erase(u);
    }
    ASSERT_TRUE(fork->Remove(outside[0]));
    ASSERT_FALSE(fork->Remove(outside[0]));
    ids.erase(outside[0]);
    CheckCells(*fork, ids, facs, "fork after removes");

    // Enough inserts to pass 1/8 of the tables fold into a rebuild at the
    // next freeze; re-inserting a removed user is a pending insert too.
    for (const uint32_t u : later) {
      fork->Insert(u);
      ids.insert(u);
    }
    fork->Insert(outside[0]);
    ids.insert(outside[0]);
    CheckCells(*fork, ids, facs, "fork, many pending");
    fork->Freeze();
    EXPECT_EQ(fork->num_pending(), 0u);
    CheckCells(*fork, ids, facs, "fork, folded table");

    // The same writes in place on a tree built over the base ids of the
    // extended set.
    TQTree live(&extended, fresh.options(), AllIds(users));
    for (const uint32_t u : outside) live.Insert(u);
    CheckCandidateFilter(&live, facs, "in place, pending inserts");
    live.Freeze();
    EXPECT_EQ(live.cells().num_pending(), outside.size());
    for (uint32_t u = 0; u < users.size(); u += 3) {
      ASSERT_TRUE(live.Remove(u));
    }
    ASSERT_TRUE(live.Remove(outside[0]));
    CheckCandidateFilter(&live, facs, "in place after removes");
    for (const uint32_t u : later) live.Insert(u);
    live.Insert(outside[0]);
    CheckCandidateFilter(&live, facs, "in place, many pending");
    live.Freeze();
    EXPECT_EQ(live.cells().num_pending(), 0u);
    CheckCandidateFilter(&live, facs, "in place, folded table");
    EXPECT_EQ(live.cells().IndexedTrajectories(), fork->IndexedTrajectories());

    // A rebuild over the indexed ids (recovery's) builds the tables
    // afresh, for both variants.
    for (const TQTree* tree : {&live, &basic}) {
      TQTree rebuilt(tree == &basic ? &users : &extended, tree->options(),
                     tree->cells().IndexedTrajectories());
      EXPECT_EQ(rebuilt.cells().IndexedTrajectories(),
                tree->cells().IndexedTrajectories());
      EXPECT_EQ(rebuilt.num_units(), tree->num_units());
      EXPECT_EQ(rebuilt.cells().num_pending(), 0u);
      CheckCandidateFilter(&rebuilt, facs, "rebuilt");
    }
  }
}

TEST(TQTree, PointCellFilterNeverDropsAServedUser) {
  CheckPointCellLifecycle(/*two_point=*/false);
}

TEST(TQTree, EndpointCellFilterNeverDropsAServedUser) {
  CheckPointCellLifecycle(/*two_point=*/true);
}

// ------------------------------------------------------- near-cell runs

// Checks the runs CellsNearStops gives for `stops` and `psi` on `grid`:
// ascending, non-empty, in range and maximal (each ends before the next
// begins, so no two could merge); the cell of every lattice point within ψ
// of a stop, and of points on each stop's ψ-circle, lies in a run. Returns
// the runs.
std::vector<CellRun> CheckRuns(const RasterGrid& grid,
                               std::span<const Point> stops, double psi) {
  std::vector<CellRun> runs;
  grid.CellsNearStops(stops, psi, &runs);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_LT(runs[i].begin, runs[i].end) << "run " << i;
    EXPECT_LE(runs[i].end, RasterGrid::kNumCells) << "run " << i;
    if (i > 0) {
      EXPECT_LT(runs[i - 1].end, runs[i].begin) << "run " << i;
    }
  }
  const auto covered = [&runs](uint32_t cell) {
    const auto it = std::upper_bound(
        runs.begin(), runs.end(), cell,
        [](uint32_t c, const CellRun& r) { return c < r.begin; });
    return it != runs.begin() && cell < std::prev(it)->end;
  };
  constexpr int kLattice = 8;  // lattice steps per ψ
  constexpr int kCircle = 64;  // points on each ψ-circle
  const double two_pi = 2.0 * std::acos(-1.0);
  for (const Point& s : stops) {
    for (int i = -kLattice; i <= kLattice; ++i) {
      for (int j = -kLattice; j <= kLattice; ++j) {
        const Point p{s.x + psi * i / kLattice, s.y + psi * j / kLattice};
        if (Distance(p, s) > psi) continue;
        EXPECT_TRUE(covered(grid.CellOf(p)))
            << "lattice point (" << p.x << ", " << p.y << ")";
      }
    }
    for (int k = 0; k < kCircle; ++k) {
      const double a = two_pi * k / kCircle;
      const Point p{s.x + psi * std::cos(a), s.y + psi * std::sin(a)};
      EXPECT_TRUE(covered(grid.CellOf(p)))
          << "circle point (" << p.x << ", " << p.y << ")";
    }
  }
  return runs;
}

// The paper's default setting (NYT trips, 128 bus routes of 64 stops,
// ψ = 200 m): a route's near cells come as a few long runs, and their total
// pins the walk's output. A large ψ fills whole bitmap words and rows, so
// runs cross word and row boundaries and a word's run can end at its last
// bit.
TEST(TQTree, CellsNearStopsGivesMaximalRunsOfNearCells) {
  const TrajectorySet users = presets::NytTrips(35713);
  const TrajectorySet routes = presets::NyBusRoutes(128, 64);
  const CellIndex index(&users, ServiceModel::Endpoints(200.0),
                        /*tables=*/false, {});
  const RasterGrid grid(index.world());
  size_t cells = 0;
  size_t runs = 0;
  for (uint32_t f = 0; f < routes.size(); ++f) {
    SCOPED_TRACE("route " + std::to_string(f));
    for (const CellRun& run : CheckRuns(grid, routes.points(f), 200.0)) {
      cells += run.end - run.begin;
      ++runs;
    }
  }
  EXPECT_EQ(cells, 93564u);
  EXPECT_EQ(runs, 18717u);

  const Rect& w = index.world();
  const double psi = 0.4 * std::max(w.Width(), w.Height());
  const double mid_y = 0.5 * (w.min_y + w.max_y);
  // One stop near each side: every row they share holds [c0, 255] of the
  // left-reaching square and [0, c1] of the right-reaching one, so runs
  // wrap from row to row.
  const std::vector<Point> sides = {{w.max_x - 1.0, mid_y},
                                    {w.min_x + 1.0, mid_y + 1.0}};
  const std::vector<CellRun> wide = CheckRuns(grid, sides, psi);
  bool whole_word = false;
  bool wraps = false;
  for (const CellRun& run : wide) {
    whole_word = whole_word || (run.begin + 63) / 64 * 64 + 64 <= run.end;
    wraps = wraps || run.begin / kRasterResolution !=
                         (run.end - 1) / kRasterResolution;
  }
  EXPECT_TRUE(whole_word);
  EXPECT_TRUE(wraps);
  // A square over the whole world: one run of every cell, whose words are
  // all full.
  const Point centre{0.5 * (w.min_x + w.max_x), mid_y};
  const std::vector<CellRun> all =
      CheckRuns(grid, std::span(&centre, 1), 2.0 * psi);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].begin, 0u);
  EXPECT_EQ(all[0].end, RasterGrid::kNumCells);
}

// A fork whose extended user set turns a two-point Scenario 3 index
// (endpoint tables) into a multipoint one (any-point table) drops the
// shared tables until its next freeze rebuilds them in the new kind.
TEST(TQTree, PruneModeFlipRebuildsCellTables) {
  Rng rng(339);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 2, w);
  TrajectorySet extended = users;
  const TrajectorySet more = testing::RandomUsers(&rng, 40, 3, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) extended.Add(more.points(u));
  TrajectorySet facs = testing::RandomFacilities(&rng, 12, 8, w);
  // Routes along users' own points, two-point and multipoint, so that
  // facilities serve distinct positive values.
  for (const uint32_t u : {0u, 1u, 2u, 300u, 301u, 302u}) {
    facs.Add(extended.points(u));
  }
  const ServiceModel model = ServiceModel::Length(150.0);
  TQTree tree(&users, MakeOptions(IndexVariant::kZOrder, TrajMode::kWhole,
                                  model, 16));
  ASSERT_EQ(tree.prune_mode(), ZPruneMode::kStartEnd);
  std::unique_ptr<CellIndex> fork = tree.cells().Fork(&extended);
  ASSERT_EQ(fork->kind(), ZPruneMode::kMbr);
  const std::vector<uint32_t> tree_ids = tree.cells().IndexedTrajectories();
  std::set<uint32_t> ids(tree_ids.begin(), tree_ids.end());
  for (uint32_t u = static_cast<uint32_t>(users.size()); u < extended.size();
       ++u) {
    fork->Insert(u);
    ids.insert(u);
  }
  std::vector<uint64_t> mask;
  EXPECT_FALSE(fork->has_tables());
  EXPECT_FALSE(fork->MarkCandidates(facs.points(0), 150.0, &mask));
  // Without tables the bound falls back to the raster alone; it must stay
  // sound.
  const ServiceEvaluator eval(&extended, model);
  const FacilityCatalog catalog(&facs, model.psi);
  {
    SCOPED_TRACE("flipped fork, no tables");
    size_t positive = 0;
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const double exact =
          EvaluateServiceOver(fork->IndexedTrajectories(), eval,
                              catalog.grid(f));
      EXPECT_GE(fork->CellUpperBound(catalog.grid(f)), exact)
          << "facility " << f;
      if (exact > 0.0) ++positive;
    }
    EXPECT_GE(positive, 6u);
  }
  // The library's tree without tables, a segmented one, keys its top-k on
  // the raster bound alone; the answer must stay exact.
  {
    SCOPED_TRACE("segmented tree, no tables");
    TQTree segmented(&extended, MakeOptions(IndexVariant::kZOrder,
                                            TrajMode::kSegmented, model, 16));
    ASSERT_FALSE(segmented.cells().has_tables());
    for (const size_t k : {size_t{1}, size_t{5}, facs.size()}) {
      const TopKResult top = TopKFacilitiesTQ(&segmented, catalog, eval, k);
      const TopKResult want =
          TopKFacilitiesExhaustiveTQ(&segmented, catalog, eval, k);
      ASSERT_EQ(top.ranked.size(), want.ranked.size()) << "k=" << k;
      for (size_t i = 0; i < want.ranked.size(); ++i) {
        EXPECT_EQ(top.ranked[i].id, want.ranked[i].id)
            << "k=" << k << " rank " << i;
        EXPECT_EQ(top.ranked[i].value, want.ranked[i].value)
            << "k=" << k << " rank " << i;
      }
    }
  }
  fork->Freeze();
  EXPECT_EQ(fork->num_pending(), 0u);
  CheckCells(*fork, ids, facs, "flipped fork, frozen");
  CheckCandidateFilter(&tree, facs, "parent");
}

// Segmented trees have no cell tables, so their walk is their only filter:
// a segmented TQ(Z) tree holds a z-index on every non-empty node after
// construction, after inserts, removes and a freeze, and after a rebuild
// over the indexed ids; a segmented TQ(B) tree holds none.
TEST(TQTree, ZIndexesOnlyOnSegmentedZOrderTrees) {
  Rng rng(341);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 6, w);
  TrajectorySet extended = users;
  const TrajectorySet more = testing::RandomUsers(&rng, 40, 2, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) extended.Add(more.points(u));
  for (const IndexVariant variant :
       {IndexVariant::kBasic, IndexVariant::kZOrder}) {
    SCOPED_TRACE(variant == IndexVariant::kZOrder ? "TQ(Z)" : "TQ(B)");
    TQTree tree(&extended,
                MakeOptions(variant, TrajMode::kSegmented,
                            ServiceModel::PointCount(150.0)),
                AllIds(users));
    ExpectZIndexRule(&tree, "constructed");
    for (uint32_t u = static_cast<uint32_t>(users.size());
         u < extended.size(); ++u) {
      tree.Insert(u);
    }
    for (uint32_t u = 0; u < users.size(); u += 7) {
      ASSERT_TRUE(tree.Remove(u));
    }
    tree.Freeze();
    ExpectZIndexRule(&tree, "updated, frozen");
    TQTree rebuilt(&extended, tree.options(),
                   tree.cells().IndexedTrajectories());
    EXPECT_EQ(rebuilt.cells().IndexedTrajectories(),
              tree.cells().IndexedTrajectories());
    ExpectZIndexRule(&rebuilt, "rebuilt");
  }
}

// The one rebuild: a tree built over an updated tree's indexed ids answers
// every facility with the same bits, under every model, for whole and
// segmented trees of both variants, although its splits and pending list
// differ from the updated tree's; and a cell index rebuilt over a fork's
// indexed ids answers with the fork's bits, although its world differs
// too.
TEST(TQTree, RebuildOverIndexedIdsAnswersBitIdentically) {
  Rng rng(343);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 6, w);
  TrajectorySet extended = users;
  const TrajectorySet more = testing::RandomUsers(&rng, 30, 2, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) extended.Add(more.points(u));
  const TrajectorySet facs = testing::RandomFacilities(&rng, 12, 8, w);
  for (const ServiceModel& model :
       {ServiceModel::Endpoints(300.0),
        ServiceModel::PointCount(300.0, Normalization::kNone),
        ServiceModel::PointCount(300.0, Normalization::kPerUser),
        ServiceModel::Length(300.0, Normalization::kNone),
        ServiceModel::Length(300.0, Normalization::kPerUser)}) {
    const ServiceEvaluator eval(&extended, model);
    const FacilityCatalog catalog(&facs, model.psi);
    const std::string scenario =
        "scenario " + std::to_string(static_cast<int>(model.scenario)) +
        " norm " + std::to_string(static_cast<int>(model.normalization));
    for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
      for (const IndexVariant variant :
           {IndexVariant::kBasic, IndexVariant::kZOrder}) {
        SCOPED_TRACE(scenario +
                     (mode == TrajMode::kWhole ? " whole" : " segmented") +
                     (variant == IndexVariant::kZOrder ? " TQ(Z)" : " TQ(B)"));
        TQTree tree(&extended, MakeOptions(variant, mode, model, 16),
                    AllIds(users));
        for (uint32_t u = static_cast<uint32_t>(users.size());
             u < extended.size(); ++u) {
          tree.Insert(u);
        }
        for (uint32_t u = 0; u < users.size(); u += 5) {
          ASSERT_TRUE(tree.Remove(u));
        }
        tree.Freeze();
        TQTree rebuilt(&extended, tree.options(),
                       tree.cells().IndexedTrajectories());
        EXPECT_EQ(rebuilt.cells().IndexedTrajectories(),
                  tree.cells().IndexedTrajectories());
        EXPECT_EQ(rebuilt.num_units(), tree.num_units());
        for (uint32_t f = 0; f < catalog.size(); ++f) {
          EXPECT_EQ(EvaluateServiceTQ(&rebuilt, eval, catalog.grid(f)),
                    EvaluateServiceTQ(&tree, eval, catalog.grid(f)))
              << "facility " << f;
        }
        const TopKResult want = TopKFacilitiesTQ(&tree, catalog, eval, 5);
        const TopKResult got = TopKFacilitiesTQ(&rebuilt, catalog, eval, 5);
        ASSERT_EQ(got.ranked.size(), want.ranked.size());
        for (size_t i = 0; i < want.ranked.size(); ++i) {
          EXPECT_EQ(got.ranked[i].id, want.ranked[i].id) << "rank " << i;
          EXPECT_EQ(got.ranked[i].value, want.ranked[i].value)
              << "rank " << i;
        }
      }
    }
    SCOPED_TRACE(scenario + " cell-index fork");
    const CellIndex parent(&users, model, /*tables=*/true, AllIds(users));
    std::unique_ptr<CellIndex> fork = parent.Fork(&extended);
    for (uint32_t u = static_cast<uint32_t>(users.size());
         u < extended.size(); ++u) {
      fork->Insert(u);
    }
    for (uint32_t u = 0; u < users.size(); u += 5) {
      ASSERT_TRUE(fork->Remove(u));
    }
    fork->Freeze();
    const CellIndex rebuilt(&extended, model, /*tables=*/true,
                            fork->IndexedTrajectories());
    EXPECT_NE(rebuilt.world(), fork->world());
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      EXPECT_EQ(EvaluateServiceCells(rebuilt, eval, catalog.grid(f)),
                EvaluateServiceCells(*fork, eval, catalog.grid(f)))
          << "facility " << f;
    }
  }
}

}  // namespace
}  // namespace tq
