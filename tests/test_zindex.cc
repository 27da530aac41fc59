#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "test_util.h"
#include "tqtree/aggregates.h"
#include "tqtree/zindex.h"

namespace tq {
namespace {

std::vector<TrajEntry> MakeEntries(const TrajectorySet& users,
                                   const ServiceModel& model) {
  std::vector<TrajEntry> out;
  for (uint32_t u = 0; u < users.size(); ++u) {
    out.push_back(MakeWholeEntry(users, u, model));
  }
  return out;
}

std::set<uint32_t> Candidates(const ZIndex& zi,
                               std::span<const Point> stops, double psi) {
  std::set<uint32_t> out;
  const ZIndex::Corridor corridor{stops, psi,
                                  Rect::BoundingBox(stops).Expanded(psi)};
  zi.ForEachCandidate(corridor, [&](uint32_t i) { out.insert(i); });
  return out;
}

TEST(ZIndex, StartEndFilterIsSoundForEndpointService) {
  Rng rng(401);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 2, w);
  const ServiceModel model = ServiceModel::Endpoints(150.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(w, entries, 8, ZPruneMode::kStartEnd);

  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const auto cands = Candidates(zi, facs.points(f), model.psi);
    // Soundness: every entry the oracle serves must be a candidate.
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const double s = testing::BruteForceService(users, entries[i].traj_id,
                                                  facs.points(f), model);
      if (s > 0.0) {
        EXPECT_TRUE(cands.count(i)) << "facility " << f << " entry " << i;
      }
    }
  }
}

TEST(ZIndex, StartOrEndFilterIsSoundForPointService) {
  Rng rng(403);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 2, w);
  const ServiceModel model = ServiceModel::PointCount(150.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(w, entries, 8, ZPruneMode::kStartOrEnd);

  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const auto cands = Candidates(zi, facs.points(f), model.psi);
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const double s = testing::BruteForceService(users, entries[i].traj_id,
                                                  facs.points(f), model);
      if (s > 0.0) {
        EXPECT_TRUE(cands.count(i));
      }
    }
  }
}

TEST(ZIndex, ActuallyPrunesOnClusteredData) {
  Rng rng(407);
  const Rect w = Rect::Of(0, 0, 100000, 100000);
  const TrajectorySet users = testing::RandomUsers(&rng, 2000, 2, 2, w);
  const ServiceModel model = ServiceModel::Endpoints(100.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(w, entries, 16, ZPruneMode::kStartEnd);
  // A small facility footprint in one corner must not touch most entries.
  const std::vector<Point> stops = {{1000, 1000}, {2000, 2000}};
  const ZIndex::Corridor corridor{
      stops, 100.0, Rect::BoundingBox(stops).Expanded(100.0)};
  ZIndex::ReduceStats stats;
  size_t cands = 0;
  zi.ForEachCandidate(corridor, [&](uint32_t) { ++cands; }, &stats);
  EXPECT_LT(cands, entries.size() / 4) << "pruning ineffective";
  EXPECT_LT(stats.entries_scanned, entries.size())
      << "zReduce scanned the whole list";
  EXPECT_EQ(stats.candidates, cands);
  EXPECT_LE(stats.buckets_visited, stats.buckets_total);
}

TEST(ZIndex, EmptyEmbrYieldsNoCandidates) {
  Rng rng(409);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 2, w);
  const ServiceModel model = ServiceModel::Endpoints(100.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(w, entries, 8, ZPruneMode::kStartEnd);
  // Facility entirely outside the world.
  const std::vector<Point> stops = {{-5000, -5000}, {-4500, -4500}};
  const auto cands = Candidates(zi, stops, 100.0);
  EXPECT_TRUE(cands.empty());
}

TEST(ZIndex, BucketsRespectBeta) {
  Rng rng(411);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 333, 2, 2, w);
  const ServiceModel model = ServiceModel::Endpoints(100.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(w, entries, 10, ZPruneMode::kStartEnd);
  EXPECT_EQ(zi.num_entries(), 333u);
  EXPECT_EQ(zi.num_buckets(), (333 + 9) / 10);
}

TEST(ZIndex, OutOfRectEntriesBecomeOutliersAndStayVisible) {
  // An entry whose endpoints escape the index rectangle (possible after
  // dynamic inserts beyond the original world) cannot be z-addressed; it
  // must land on the outlier list and still surface as a candidate.
  const Rect node_rect = Rect::Of(0, 0, 1000, 1000);
  TrajectorySet users;
  const Point inside[] = {{100, 100}, {200, 200}};
  const Point outside[] = {{5000, 5000}, {5100, 5100}};
  users.Add(inside);
  users.Add(outside);
  const ServiceModel model = ServiceModel::Endpoints(50.0);
  const auto entries = MakeEntries(users, model);
  const ZIndex zi(node_rect, entries, 4, ZPruneMode::kStartEnd);
  EXPECT_EQ(zi.num_outliers(), 1u);
  EXPECT_EQ(zi.num_entries(), 2u);
  // A facility near the outlier must reach it; a facility near the inside
  // entry must reach that one. (Supersets are always permitted — pruning is
  // a candidate filter, not the exact check — so no EXPECT_FALSE here.)
  const std::vector<Point> stops = {{5050, 5050}};
  EXPECT_TRUE(Candidates(zi, stops, model.psi).count(1));
  const std::vector<Point> near_inside = {{150, 150}};
  EXPECT_TRUE(Candidates(zi, near_inside, model.psi).count(0));
}

TEST(ZIndex, WholeWorldEmbrReturnsEverything) {
  Rng rng(413);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 150, 2, 2, w);
  const ServiceModel model = ServiceModel::Endpoints(100.0);
  const auto entries = MakeEntries(users, model);
  // A dense stop lattice whose corridor blankets the world.
  std::vector<Point> stops;
  for (double x = 0; x <= 10000; x += 500) {
    for (double y = 0; y <= 10000; y += 500) {
      stops.push_back({x, y});
    }
  }
  for (const ZPruneMode pm :
       {ZPruneMode::kStartEnd, ZPruneMode::kStartOrEnd}) {
    const ZIndex zi(w, entries, 8, pm);
    const auto cands = Candidates(zi, stops, 400.0);
    EXPECT_EQ(cands.size(), entries.size());
  }
}

}  // namespace
}  // namespace tq
