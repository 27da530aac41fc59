// Persistent snapshot tests (cell-index forks + runtime integration):
//   * publish isolation — a single-trajectory ApplyUpdates on the NYF
//     preset leaves the retained snapshot's cell index untouched, bounds
//     and answers alike, and publishes what a from-scratch build answers;
//   * snapshot immutability — after K random write batches, every retained
//     older snapshot still answers a fixed query set byte-identically to
//     its recorded answers, and the newest snapshot matches a from-scratch
//     TQTree oracle bit-for-bit (integer-valued model);
//   * sharded equivalence — N-shard forked publishes stay bit-identical to
//     a single-tree from-scratch build for N ∈ {1, 2, 4, 8};
//   * top-k over the result cache: a repeated top-k reruns its waves with
//     every refinement slot served from the per-(facility, shard) entries,
//     and after a one-shard publish only that shard's slots miss.
// The single-shard cases run a one-shard ShardedEngine and read its cell
// index through snapshot()->shards[0].
// Run under -fsanitize=address and -fsanitize=thread in CI: the raster,
// bitmap and tables a fork shares with retained snapshots are exactly where
// lifetime and data-race bugs would live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::UpdateBatch;

// Top-k of one shard's frozen cell index: every facility evaluated, then
// ranked by (value desc, id asc).
std::vector<RankedFacility> ShardTopK(const runtime::ShardState& shard,
                                      const FacilityCatalog& catalog,
                                      size_t k) {
  std::vector<RankedFacility> all(catalog.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    all[f] = RankedFacility{
        f, EvaluateServiceCells(*shard.cells, *shard.eval, catalog.grid(f))};
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

// ------------------------------------------------------- publish isolation

// A single-trajectory publish on the NYF preset forks the shard's cell
// index: the retained snapshot keeps its indexed ids, bound bits and
// answer bits, while the new one lists the insert as pending.
TEST(ForkPublish, SingleTrajectoryNyfPublishLeavesRetainedSnapshotUntouched) {
  const TrajectorySet users = presets::NyfCheckins(20000);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.tree.beta = 16;
  options.tree.mode = TrajMode::kSegmented;
  options.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes, options);

  const runtime::ShardedSnapshotPtr retained = engine.snapshot();
  const runtime::ShardState& old_shard = *retained->shards[0];
  const FacilityCatalog& old_catalog = *retained->catalog;
  const std::vector<uint32_t> old_ids = old_shard.cells->IndexedTrajectories();
  ASSERT_EQ(old_ids.size(), users.size());
  std::vector<double> old_bounds;
  std::vector<double> old_values;
  for (uint32_t f = 0; f < old_catalog.size(); ++f) {
    old_bounds.push_back(old_shard.cells->CellUpperBound(old_catalog.grid(f)));
    old_values.push_back(EvaluateServiceCells(*old_shard.cells, *old_shard.eval,
                                              old_catalog.grid(f)));
  }

  const std::vector<Point> traj{
      Point{1000.0, 1000.0}, Point{1200.0, 1150.0}, Point{1400.0, 1300.0}};
  UpdateBatch batch;
  batch.inserts.push_back(traj);
  engine.ApplyUpdates(batch);

  const runtime::MetricsView m = engine.metrics().Read();
  EXPECT_GT(m.publish_ns, 0u);
  const runtime::ShardState& new_shard = *engine.snapshot()->shards[0];
  EXPECT_NE(new_shard.cells, old_shard.cells);
  EXPECT_EQ(new_shard.cells->num_pending(), 1u);
  EXPECT_EQ(new_shard.cells->IndexedTrajectories().size(), users.size() + 1);
  EXPECT_EQ(old_shard.cells->num_pending(), 0u);
  EXPECT_EQ(old_shard.cells->IndexedTrajectories(), old_ids);
  for (uint32_t f = 0; f < old_catalog.size(); ++f) {
    EXPECT_EQ(old_shard.cells->CellUpperBound(old_catalog.grid(f)),
              old_bounds[f])
        << "facility " << f;
    EXPECT_EQ(EvaluateServiceCells(*old_shard.cells, *old_shard.eval,
                                   old_catalog.grid(f)),
              old_values[f])
        << "facility " << f;
  }

  // The published fork answers like a from-scratch build over the extended
  // set (integer-valued model: bit-identical).
  TrajectorySet extended = users;
  extended.Add(traj);
  TQTree oracle(&extended, options.tree);
  const ServiceEvaluator eval(&extended, options.tree.model);
  const FacilityCatalog catalog(&routes, options.tree.model.psi);
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const QueryResponse r =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_EQ(r.value, EvaluateServiceTQ(&oracle, eval, catalog.grid(f)))
        << "facility " << f;
  }
}

// ------------------------------------------------------- immutability

// Property test: K random ApplyUpdates batches; every retained snapshot
// must keep answering the fixed query set byte-identically to the answers
// recorded when it was current, and the newest snapshot must match a fresh
// from-scratch TQTree oracle bit-for-bit.
TEST(SnapshotImmutability, RetainedSnapshotsAnswerByteIdenticallyAfterKBatches) {
  constexpr size_t kBatches = 8;
  Rng rng(1234);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 400, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 4;
  options.tree.beta = 16;
  options.tree.model = ServiceModel::PointCount(300.0, Normalization::kNone);
  ShardedEngine engine(base, facs, options);

  struct Recorded {
    runtime::ShardedSnapshotPtr snap;
    std::vector<double> values;              // per facility
    std::vector<RankedFacility> topk;
  };
  const auto record = [&](const runtime::ShardedSnapshotPtr& snap) {
    Recorded r;
    r.snap = snap;
    const runtime::ShardState& shard = *snap->shards[0];
    for (uint32_t f = 0; f < snap->catalog->size(); ++f) {
      r.values.push_back(EvaluateServiceCells(*shard.cells, *shard.eval,
                                              snap->catalog->grid(f)));
    }
    r.topk = ShardTopK(shard, *snap->catalog, 5);
    return r;
  };

  std::vector<Recorded> retained;
  retained.push_back(record(engine.snapshot()));
  std::vector<bool> active(base.size(), true);  // by global id
  size_t total_users = base.size();
  for (size_t b = 0; b < kBatches; ++b) {
    UpdateBatch batch;
    const size_t num_inserts = 1 + rng.NextBelow(12);
    const TrajectorySet extra =
        testing::RandomUsers(&rng, num_inserts, 2, 6, w);
    for (uint32_t t = 0; t < extra.size(); ++t) {
      const auto pts = extra.points(t);
      batch.inserts.emplace_back(pts.begin(), pts.end());
    }
    for (int attempts = 0; attempts < 3; ++attempts) {
      const auto victim =
          static_cast<uint32_t>(rng.NextBelow(total_users));
      if (active[victim]) {
        active[victim] = false;
        batch.removes.push_back(victim);
      }
    }
    engine.ApplyUpdates(batch);
    total_users += num_inserts;
    active.resize(total_users, true);
    retained.push_back(record(engine.snapshot()));
  }

  // Every retained snapshot — including ones forked from many times —
  // re-answers exactly. == on doubles: byte-identical modulo ±0, which
  // cannot arise from non-negative sums.
  for (size_t i = 0; i < retained.size(); ++i) {
    const Recorded& r = retained[i];
    const runtime::ShardState& shard = *r.snap->shards[0];
    EXPECT_EQ(r.snap->version, i + 1);
    for (uint32_t f = 0; f < r.snap->catalog->size(); ++f) {
      EXPECT_EQ(EvaluateServiceCells(*shard.cells, *shard.eval,
                                     r.snap->catalog->grid(f)),
                r.values[f])
          << "version " << r.snap->version << " facility " << f;
    }
    const std::vector<RankedFacility> again =
        ShardTopK(shard, *r.snap->catalog, 5);
    ASSERT_EQ(again.size(), r.topk.size());
    for (size_t j = 0; j < again.size(); ++j) {
      EXPECT_EQ(again[j].id, r.topk[j].id);
      EXPECT_EQ(again[j].value, r.topk[j].value);
    }
  }

  // Newest snapshot vs from-scratch oracle over the surviving users
  // (integer-valued model ⇒ the different summation order cannot matter).
  // One shard: every global id is its local id in the shard's user set.
  const runtime::ShardedSnapshotPtr newest = engine.snapshot();
  const runtime::ShardState& newest_shard = *newest->shards[0];
  TrajectorySet survivors;
  for (uint32_t u = 0; u < total_users; ++u) {
    if (active[u]) survivors.Add(newest_shard.users->points(u));
  }
  TQTree oracle(&survivors, options.tree);
  const ServiceEvaluator oracle_eval(&survivors, options.tree.model);
  for (uint32_t f = 0; f < newest->catalog->size(); ++f) {
    EXPECT_EQ(EvaluateServiceCells(*newest_shard.cells, *newest_shard.eval,
                                   newest->catalog->grid(f)),
              EvaluateServiceTQ(&oracle, oracle_eval,
                                newest->catalog->grid(f)))
        << "facility " << f;
  }
}

// --------------------------------------------------- sharded equivalence

// Acceptance: after forked publishes, an N-shard engine's
// gathered answers stay bit-identical to a single-tree from-scratch build
// over the same surviving user set, for N ∈ {1, 2, 4, 8}.
TEST(ShardedForkedPublish, BitIdenticalToFromScratchBuildAtEveryShardCount) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);

  // Deterministic batches, pre-generated so every shard count sees the
  // exact same update stream.
  Rng rng(77);
  const Rect extent = users.BoundingBox();
  std::vector<TrajectorySet> inserts;
  std::vector<std::vector<uint32_t>> removes;
  size_t total = users.size();
  std::vector<bool> active(users.size(), true);
  for (int b = 0; b < 3; ++b) {
    inserts.push_back(testing::RandomUsers(&rng, 15, 2, 5, extent));
    std::vector<uint32_t> rm;
    for (int attempts = 0; attempts < 5; ++attempts) {
      const auto victim = static_cast<uint32_t>(rng.NextBelow(total));
      if (victim < active.size() && active[victim]) {
        active[victim] = false;
        rm.push_back(victim);
      }
    }
    removes.push_back(rm);
    total += inserts.back().size();
    active.resize(total, true);
  }

  // From-scratch oracle over the final surviving users.
  TrajectorySet survivors;
  {
    TrajectorySet all = users;
    for (const TrajectorySet& ins : inserts) {
      for (uint32_t t = 0; t < ins.size(); ++t) all.Add(ins.points(t));
    }
    for (uint32_t u = 0; u < all.size(); ++u) {
      if (active[u]) survivors.Add(all.points(u));
    }
  }
  TQTreeOptions topt;
  topt.beta = 16;
  topt.model = model;
  TQTree oracle(&survivors, topt);
  const ServiceEvaluator oracle_eval(&survivors, model);
  const FacilityCatalog catalog(&routes, model.psi);
  std::vector<double> expected;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    expected.push_back(
        EvaluateServiceTQ(&oracle, oracle_eval, catalog.grid(f)));
  }
  const TopKResult expected_topk =
      TopKFacilitiesTQ(&oracle, catalog, oracle_eval, 5);

  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedEngineOptions so;
    so.num_shards = shards;
    so.num_threads = 4;
    so.tree.beta = 16;
    so.tree.model = model;
    ShardedEngine engine(users, routes, so);
    for (size_t b = 0; b < inserts.size(); ++b) {
      UpdateBatch batch;
      for (uint32_t t = 0; t < inserts[b].size(); ++t) {
        const auto pts = inserts[b].points(t);
        batch.inserts.emplace_back(pts.begin(), pts.end());
      }
      batch.removes = removes[b];
      engine.ApplyUpdates(batch);
    }
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      const QueryResponse r =
          engine.Submit(QueryRequest::ServiceValue(f)).get();
      EXPECT_EQ(r.value, expected[f])
          << "shards=" << shards << " facility=" << f;
    }
    const QueryResponse topk = engine.Submit(QueryRequest::TopK(5)).get();
    ASSERT_EQ(topk.ranked.size(), expected_topk.ranked.size())
        << "shards=" << shards;
    for (size_t i = 0; i < expected_topk.ranked.size(); ++i) {
      EXPECT_EQ(topk.ranked[i].id, expected_topk.ranked[i].id)
          << "shards=" << shards << " rank=" << i;
      EXPECT_EQ(topk.ranked[i].value, expected_topk.ranked[i].value)
          << "shards=" << shards << " rank=" << i;
    }
  }
}

// ------------------------------------------------------ top-k result cache

// The counters one repeated query moved.
runtime::MetricsView Delta(const runtime::MetricsView& after,
                           const runtime::MetricsView& before) {
  runtime::MetricsView d;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.exact_checks = after.exact_checks - before.exact_checks;
  d.prune_rounds = after.prune_rounds - before.prune_rounds;
  d.facilities_evaluated =
      after.facilities_evaluated - before.facilities_evaluated;
  return d;
}

void ExpectSameRanking(const QueryResponse& got, const QueryResponse& want) {
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (size_t i = 0; i < want.ranked.size(); ++i) {
    EXPECT_EQ(got.ranked[i].id, want.ranked[i].id) << "rank " << i;
    EXPECT_EQ(got.ranked[i].value, want.ranked[i].value) << "rank " << i;
  }
}

// A repeated top-k at unchanged generations reruns the bound wave and its
// refinement waves, and every slot they evaluate is a cache hit: no miss,
// no exact check, the same bits. A publish gives the shard a new
// generation, so the next top-k misses on every slot it evaluates.
TEST(OneShardEngine, RepeatedTopKRefinesFromCachedSlotsUntilPublish) {
  Rng rng(55);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 8, w);
  ShardedEngineOptions options;
  options.num_shards = 1;
  options.num_threads = 2;
  options.tree.beta = 16;
  options.tree.model = ServiceModel::PointCount(300.0);
  ShardedEngine engine(users, facs, options);

  const QueryResponse first = engine.Submit(QueryRequest::TopK(4)).get();
  const runtime::MetricsView m1 = engine.metrics().Read();
  ASSERT_GT(m1.facilities_evaluated, 0u);
  const QueryResponse second = engine.Submit(QueryRequest::TopK(4)).get();
  const runtime::MetricsView repeat = Delta(engine.metrics().Read(), m1);
  EXPECT_FALSE(second.cache_hit);  // top-k never reports a cache hit
  ExpectSameRanking(second, first);
  EXPECT_EQ(repeat.cache_misses, 0u);
  EXPECT_EQ(repeat.exact_checks, 0u);
  EXPECT_GE(repeat.prune_rounds, 1u);
  EXPECT_EQ(repeat.facilities_evaluated, m1.facilities_evaluated);
  EXPECT_EQ(repeat.cache_hits, repeat.facilities_evaluated);

  UpdateBatch batch;
  batch.removes = {1};
  engine.ApplyUpdates(batch);
  const runtime::MetricsView m2 = engine.metrics().Read();
  const QueryResponse after = engine.Submit(QueryRequest::TopK(4)).get();
  const runtime::MetricsView fresh = Delta(engine.metrics().Read(), m2);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_GT(fresh.facilities_evaluated, 0u);
  EXPECT_EQ(fresh.cache_hits, 0u);
  EXPECT_EQ(fresh.cache_misses, fresh.facilities_evaluated);
}

// Four shards: a repeated top-k is served from cached slots, and after a
// publish touching one shard, only that shard's facilities miss — each
// once, whether a top-k refinement or a sum asks first — while every
// other shard's warm entries keep hitting.
TEST(ShardedEngine, RepeatedTopKMissesOnlyOnTheRepublishedShard) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngineOptions so;
  so.num_shards = 4;
  so.num_threads = 4;
  so.tree.beta = 16;
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes, so);
  const size_t num_fac = routes.size();

  const QueryResponse first = engine.Submit(QueryRequest::TopK(5)).get();
  const runtime::MetricsView m1 = engine.metrics().Read();
  const QueryResponse second = engine.Submit(QueryRequest::TopK(5)).get();
  const runtime::MetricsView repeat = Delta(engine.metrics().Read(), m1);
  EXPECT_FALSE(second.cache_hit);
  ExpectSameRanking(second, first);
  EXPECT_EQ(repeat.cache_misses, 0u);
  EXPECT_EQ(repeat.exact_checks, 0u);
  EXPECT_GE(repeat.prune_rounds, 1u);
  EXPECT_EQ(repeat.cache_hits, repeat.facilities_evaluated);

  // Warm every (facility, shard) slot, then republish exactly one shard.
  std::vector<QueryRequest> sums;
  for (uint32_t f = 0; f < num_fac; ++f) {
    sums.push_back(QueryRequest::ServiceValue(f));
  }
  engine.RunBatch(sums);
  UpdateBatch batch;
  batch.removes = {0};
  engine.ApplyUpdates(batch);
  ASSERT_EQ(engine.metrics().Read().shard_publishes,
            m1.shard_publishes + 1);

  const runtime::MetricsView m2 = engine.metrics().Read();
  const QueryResponse after = engine.Submit(QueryRequest::TopK(5)).get();
  const runtime::MetricsView topk = Delta(engine.metrics().Read(), m2);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_GT(topk.cache_misses, 0u);
  EXPECT_LE(topk.cache_misses, num_fac);
  EXPECT_EQ(topk.cache_hits + topk.cache_misses, topk.facilities_evaluated);
  engine.RunBatch(sums);
  const runtime::MetricsView all = Delta(engine.metrics().Read(), m2);
  EXPECT_EQ(all.cache_misses, num_fac);
  EXPECT_EQ(all.cache_hits + all.cache_misses,
            topk.facilities_evaluated + so.num_shards * num_fac);

  // The recomputed ranking is what an engine built on the updated users
  // answers (integer-valued model: bit for bit).
  TrajectorySet active;
  for (uint32_t u = 1; u < users.size(); ++u) active.Add(users.points(u));
  ShardedEngine rebuilt(active, routes, so);
  ExpectSameRanking(after, rebuilt.Submit(QueryRequest::TopK(5)).get());
}

}  // namespace
}  // namespace tq
