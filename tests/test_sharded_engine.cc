// Tests for the sharded scatter/gather runtime (src/runtime/sharded_engine):
// Z-order shard routing is a stable total partition, N-shard scatter/gather
// agrees bit-for-bit with the single-tree library and with the brute-force
// oracle (tie-breaks included), writers republish only the shards a batch
// touches, and a single-shard publish leaves the other shards' result
// cache entries hitting. Run under -fsanitize=thread
// (cmake -DTQ_SANITIZE=thread) to check the scatter/gather path for races;
// CI does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "runtime/result_cache.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ResultCache;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::ShardRouter;
using runtime::UpdateBatch;

// ----------------------------------------------------------- ResultCache

TEST(ResultCacheSharded, KeysWithDifferentShardsAreIndependent) {
  ResultCache cache(16, 2);
  const ResultCache::Key shard0{5, 1, 0}, shard1{5, 1, 1};
  cache.Put(shard0, 10.0);
  cache.Put(shard1, 20.0);
  double v = 0.0;
  ASSERT_TRUE(cache.Get(shard0, &v));
  EXPECT_DOUBLE_EQ(v, 10.0);
  ASSERT_TRUE(cache.Get(shard1, &v));
  EXPECT_DOUBLE_EQ(v, 20.0);
}

// A publish gives the republished shard a new generation: its lookups are
// new keys and miss, while the other shard's entries still hit.
TEST(ResultCacheSharded, NewGenerationMissesWhileOtherShardHits) {
  ResultCache cache(32, 4);
  cache.Put(ResultCache::Key{7, 1, 0}, 1.0);
  cache.Put(ResultCache::Key{7, 1, 1}, 11.0);
  double v = 0.0;
  EXPECT_FALSE(cache.Get(ResultCache::Key{7, 2, 0}, &v));  // shard 0 at gen 2
  ASSERT_TRUE(cache.Get(ResultCache::Key{7, 1, 1}, &v));   // shard 1 untouched
  EXPECT_EQ(v, 11.0);
  cache.Put(ResultCache::Key{7, 2, 0}, 2.0);
  ASSERT_TRUE(cache.Get(ResultCache::Key{7, 2, 0}, &v));
  EXPECT_EQ(v, 2.0);
}

// Without an invalidation pass, LRU eviction alone bounds the cache: over
// 64 publishes of a serving pattern (every facility looked up on every
// shard at its current generation, and put on a miss), size() never
// exceeds the capacity — an odd one, split unevenly over the lock shards —
// and a lookup never returns a value put under an older generation.
TEST(ResultCacheSharded, LruAloneBoundsSizeAndNeverServesAnOldGeneration) {
  constexpr size_t kCapacity = 101;
  constexpr uint32_t kDataShards = 4;
  constexpr uint32_t kFacilities = 20;
  ResultCache cache(kCapacity, 8);
  // The value encodes its whole key, so a stale hit cannot go unnoticed.
  const auto value_of = [](const ResultCache::Key& k) {
    return static_cast<double>(k.generation * 1000000 + k.shard * 1000 +
                               k.facility);
  };
  std::vector<uint64_t> gens(kDataShards, 1);
  size_t hits = 0;
  for (uint64_t publish = 2; publish <= 65; ++publish) {
    // Republish one or two shards, as a write batch would.
    gens[publish % kDataShards] = publish;
    if (publish % 3 == 0) gens[(publish + 1) % kDataShards] = publish;
    for (uint32_t f = 0; f < kFacilities; ++f) {
      for (uint32_t s = 0; s < kDataShards; ++s) {
        const ResultCache::Key key{f, gens[s], s};
        double v = -1.0;
        if (cache.Get(key, &v)) {
          ++hits;
          ASSERT_EQ(v, value_of(key));
        } else {
          cache.Put(key, value_of(key));
        }
        ASSERT_LE(cache.size(), kCapacity);
      }
    }
  }
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_GT(hits, 0u);
}

// ----------------------------------------------------------- ShardRouter

TEST(ShardRouter, EveryUserLandsInExactlyOneShard) {
  Rng rng(11);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 500, 2, 5, w);
  for (const size_t n : {1u, 2u, 4u, 8u}) {
    const ShardRouter router(users, users.BoundingBox(), n);
    ASSERT_EQ(router.num_shards(), n);
    EXPECT_TRUE(
        std::is_sorted(router.splits().begin(), router.splits().end()));
    std::vector<size_t> counts(n, 0);
    for (uint32_t u = 0; u < users.size(); ++u) {
      const size_t shard = router.Route(users.points(u));
      ASSERT_LT(shard, n);
      ++counts[shard];
    }
    size_t total = 0;
    for (const size_t c : counts) total += c;
    EXPECT_EQ(total, users.size());
    // Equal-count quantile splits: no shard ends up pathologically empty on
    // a spread-out workload.
    if (n > 1) {
      for (const size_t c : counts) EXPECT_GT(c, 0u);
    }
  }
}

TEST(ShardRouter, RoutesKeysOutsideTheWorldRect) {
  Rng rng(13);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 4, w);
  const ShardRouter router(users, w, 4);
  // MortonKey clamps out-of-world points, so routing stays total.
  const std::vector<Point> far{Point{1e9, -1e9}};
  EXPECT_LT(router.Route(far), 4u);
}

// --------------------------------------------------------- ShardedEngine

ShardedEngineOptions ShardedOptions(size_t shards, const ServiceModel& model,
                                    size_t threads = 4,
                                    size_t cache_capacity = 2048) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = threads;
  so.cache_capacity = cache_capacity;
  so.tree.beta = 16;
  so.tree.model = model;
  return so;
}

// The library reference: one whole TQ-tree over every user, queried with
// the single-tree Algorithms 1–4 (query/eval_service, query/topk). It shares
// no runtime code with the engine under test.
struct LibraryOracle {
  LibraryOracle(const TrajectorySet& users, const TrajectorySet& facs,
                const ServiceModel& model)
      : tree(&users, ShardedOptions(1, model).tree),
        eval(&users, model),
        catalog(&facs, model.psi) {}

  double Value(FacilityId f) {
    return EvaluateServiceTQ(&tree, eval, catalog.grid(f));
  }
  std::vector<RankedFacility> TopK(size_t k) {
    return TopKFacilitiesTQ(&tree, catalog, eval, k).ranked;
  }

  TQTree tree;
  ServiceEvaluator eval;
  FacilityCatalog catalog;
};

// The acceptance check: on the NYF preset, every shard count must reproduce
// the library's service values and top-k lists BIT-IDENTICALLY.
// Integer-valued service models (raw point counts, endpoint counts) make the
// cross-shard sum exactly associative, so == on doubles is the right assert.
TEST(ShardedEngine, NyfPresetAgreesBitIdenticallyWithLibrary) {
  const TrajectorySet users = presets::NyfCheckins(1200);
  const TrajectorySet routes = presets::NyBusRoutes(12, 10);
  for (const ServiceModel& model :
       {ServiceModel::PointCount(200.0, Normalization::kNone),
        ServiceModel::Endpoints(200.0)}) {
    LibraryOracle reference(users, routes, model);
    std::vector<QueryRequest> batch;
    std::vector<double> expected;
    for (uint32_t f = 0; f < routes.size(); ++f) {
      batch.push_back(QueryRequest::ServiceValue(f));
      expected.push_back(reference.Value(f));
    }
    batch.push_back(QueryRequest::TopK(5));
    const std::vector<RankedFacility> topk_ref = reference.TopK(5);

    for (const size_t shards : {1u, 2u, 4u, 8u}) {
      ShardedEngine sharded(users, routes, ShardedOptions(shards, model));
      const std::vector<QueryResponse> got = sharded.RunBatch(batch);
      ASSERT_EQ(got.size(), batch.size());
      for (uint32_t f = 0; f < routes.size(); ++f) {
        // EXPECT_EQ on double is exact comparison — bit-identical modulo
        // +0/-0, which cannot arise from non-negative service sums.
        EXPECT_EQ(got[f].value, expected[f])
            << "shards=" << shards << " facility=" << f;
        EXPECT_NEAR(got[f].value,
                    testing::BruteForceSO(users, routes.points(f), model),
                    1e-9);
      }
      const QueryResponse& topk = got.back();
      ASSERT_EQ(topk.ranked.size(), topk_ref.size())
          << "shards=" << shards;
      for (size_t i = 0; i < topk_ref.size(); ++i) {
        EXPECT_EQ(topk.ranked[i].id, topk_ref[i].id)
            << "shards=" << shards << " rank=" << i;
        EXPECT_EQ(topk.ranked[i].value, topk_ref[i].value)
            << "shards=" << shards << " rank=" << i;
      }
    }
  }
}

// Fractional models (the per-user normalized default) cannot promise bitwise
// sums across a different grouping, but shard counts must still agree with
// the oracle to float tolerance.
TEST(ShardedEngine, NormalizedModelAgreesWithOracleAtEveryShardCount) {
  Rng rng(21);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  const ServiceModel model = ServiceModel::PointCount(300.0);
  for (const size_t shards : {2u, 5u}) {
    ShardedEngine engine(users, facs, ShardedOptions(shards, model));
    for (uint32_t f = 0; f < facs.size(); ++f) {
      const QueryResponse r =
          engine.Submit(QueryRequest::ServiceValue(f)).get();
      EXPECT_NEAR(r.value,
                  testing::BruteForceSO(users, facs.points(f), model), 1e-6);
    }
  }
}

// The engine reads only the service model of its tree options: whatever
// mode and variant are configured, every shard is a cell index, and its
// answers keep the bits of the library's segmented TQ(Z) tree, which walks
// the quadtree instead. On one shard for every model; on four for the
// integer-valued models, whose cross-shard sums are exact.
TEST(ShardedEngine, EveryTreeConfigurationAnswersWithTheLibrarysBits) {
  Rng rng(23);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 6, w);
  TrajectorySet facs = testing::RandomFacilities(&rng, 10, 8, w);
  // Routes along users' own points, so that every model scores positive.
  for (const uint32_t u : {0u, 1u, 2u}) facs.Add(users.points(u));
  for (const ServiceModel& model : testing::AllModels(300.0)) {
    SCOPED_TRACE(model.ToString());
    TQTreeOptions segmented = ShardedOptions(1, model).tree;
    segmented.variant = IndexVariant::kZOrder;
    segmented.mode = TrajMode::kSegmented;
    TQTree library(&users, segmented);
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&facs, model.psi);
    std::vector<RankedFacility> want(facs.size());
    size_t positive = 0;
    for (uint32_t f = 0; f < facs.size(); ++f) {
      want[f] = {f, EvaluateServiceTQ(&library, eval, catalog.grid(f))};
      if (want[f].value > 0.0) ++positive;
    }
    EXPECT_GE(positive, 3u);
    std::vector<RankedFacility> want_top = want;
    std::sort(want_top.begin(), want_top.end(), RankedBefore);
    want_top.resize(5);
    const bool integer_valued =
        model.scenario == Scenario::kEndpoints ||
        (model.scenario == Scenario::kPointCount &&
         model.normalization == Normalization::kNone);
    for (const size_t shards : {1u, 4u}) {
      if (shards > 1 && !integer_valued) continue;
      for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
        for (const IndexVariant variant :
             {IndexVariant::kBasic, IndexVariant::kZOrder}) {
          SCOPED_TRACE(std::to_string(shards) + " shards" +
                       (mode == TrajMode::kWhole ? " whole" : " segmented") +
                       (variant == IndexVariant::kZOrder ? " TQ(Z)"
                                                         : " TQ(B)"));
          ShardedEngineOptions options = ShardedOptions(shards, model);
          options.tree.mode = mode;
          options.tree.variant = variant;
          ShardedEngine engine(users, facs, options);
          for (uint32_t f = 0; f < facs.size(); ++f) {
            EXPECT_EQ(engine.Submit(QueryRequest::ServiceValue(f)).get().value,
                      want[f].value)
                << "facility " << f;
          }
          const QueryResponse top = engine.Submit(QueryRequest::TopK(5)).get();
          ASSERT_EQ(top.ranked.size(), want_top.size());
          for (size_t i = 0; i < want_top.size(); ++i) {
            EXPECT_EQ(top.ranked[i].id, want_top[i].id) << "rank " << i;
            EXPECT_EQ(top.ranked[i].value, want_top[i].value) << "rank " << i;
          }
        }
      }
    }
  }
}

// kMaxRRST tie-break: duplicated facilities have exactly equal values, and
// the gathered ranking must list them by ascending facility id — matching
// the library's documented order.
TEST(ShardedEngine, TopKTieBreaksByAscendingFacilityId) {
  Rng rng(31);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 5, w);
  TrajectorySet facs;
  const TrajectorySet base = testing::RandomFacilities(&rng, 4, 8, w);
  for (uint32_t f = 0; f < base.size(); ++f) {
    facs.Add(base.points(f));  // ids 0..3
  }
  for (uint32_t f = 0; f < base.size(); ++f) {
    facs.Add(base.points(f));  // ids 4..7: exact duplicates => exact ties
  }
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);

  const std::vector<RankedFacility> expected =
      LibraryOracle(users, facs, model).TopK(8);
  ShardedEngine sharded(users, facs, ShardedOptions(4, model));
  const QueryResponse got = sharded.Submit(QueryRequest::TopK(8)).get();

  ASSERT_EQ(got.ranked.size(), 8u);
  ASSERT_EQ(expected.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got.ranked[i].id, expected[i].id) << "rank " << i;
    EXPECT_EQ(got.ranked[i].value, expected[i].value) << "rank " << i;
  }
  for (size_t i = 0; i + 1 < 8; ++i) {
    // Duplicate pairs (f, f+4) tie exactly; the smaller id must come first.
    if (got.ranked[i].value == got.ranked[i + 1].value) {
      EXPECT_LT(got.ranked[i].id, got.ranked[i + 1].id);
    }
  }
}

TEST(ShardedEngine, RoutingAndBoundariesStableAcrossRepublish) {
  Rng rng(41);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 200, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 6, 8, w);
  const ServiceModel model = ServiceModel::PointCount(300.0);
  ShardedEngine engine(users, facs, ShardedOptions(4, model));

  const std::vector<uint64_t> splits_before = engine.router().splits();
  std::vector<ShardedEngine::UserLocation> locs_before;
  for (uint32_t u = 0; u < users.size(); ++u) {
    locs_before.push_back(engine.LocateUser(u));
  }

  UpdateBatch batch;
  const TrajectorySet extra = testing::RandomUsers(&rng, 20, 2, 5, w);
  for (uint32_t t = 0; t < extra.size(); ++t) {
    const auto pts = extra.points(t);
    batch.inserts.emplace_back(pts.begin(), pts.end());
  }
  batch.removes = {0, 5};
  engine.ApplyUpdates(batch);

  // Split keys and existing users' shard assignments never move.
  EXPECT_EQ(engine.router().splits(), splits_before);
  for (uint32_t u = 0; u < users.size(); ++u) {
    const auto loc = engine.LocateUser(u);
    EXPECT_EQ(loc.shard, locs_before[u].shard) << "user " << u;
    EXPECT_EQ(loc.local_id, locs_before[u].local_id) << "user " << u;
  }
  // New users routed by the same frozen splits.
  for (uint32_t t = 0; t < extra.size(); ++t) {
    const auto loc = engine.LocateUser(
        static_cast<uint32_t>(users.size() + t));
    EXPECT_EQ(loc.shard, engine.router().Route(extra.points(t)));
  }
}

TEST(ShardedEngine, ApplyUpdatesRepublishesOnlyAffectedShards) {
  Rng rng(51);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 250, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 8, w);
  const ServiceModel model = ServiceModel::PointCount(300.0);
  ShardedEngine engine(users, facs, ShardedOptions(4, model));

  // Remove one user: exactly its shard gets a new generation.
  const uint32_t victim = 7;
  const uint32_t touched = engine.LocateUser(victim).shard;
  UpdateBatch batch;
  batch.removes = {victim};
  engine.ApplyUpdates(batch);

  const auto snap = engine.snapshot();
  EXPECT_EQ(snap->version, 2u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(snap->shards[s]->generation, s == touched ? 2u : 1u)
        << "shard " << s;
  }
  const runtime::MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.shard_publishes, 4u + 1u);  // construction + one shard
  EXPECT_EQ(m.trajectories_removed, 1u);

  // Post-update values agree with the oracle over the surviving users.
  TrajectorySet active;
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (u != victim) active.Add(users.points(u));
  }
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const QueryResponse r =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_EQ(r.snapshot_version, 2u);
    EXPECT_NEAR(r.value,
                testing::BruteForceSO(active, facs.points(f), model), 1e-6);
  }
}

// The cache acceptance check: after a single-shard publish, the untouched
// shards' entries must still hit — asserted through the hit/miss metrics.
TEST(ShardedEngine, SingleShardPublishKeepsOtherShardsCacheWarm) {
  Rng rng(61);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 300, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 8, w);
  const ServiceModel model = ServiceModel::PointCount(300.0);
  constexpr size_t kShards = 4;
  const size_t num_fac = facs.size();
  ShardedEngine engine(users, facs, ShardedOptions(kShards, model));

  std::vector<QueryRequest> all_facilities;
  for (uint32_t f = 0; f < num_fac; ++f) {
    all_facilities.push_back(QueryRequest::ServiceValue(f));
  }

  // Pass 1 fills the cache: one miss per (facility, shard).
  engine.RunBatch(all_facilities);
  // Pass 2 is fully warm: every response reports a whole-query cache hit.
  for (const QueryResponse& r : engine.RunBatch(all_facilities)) {
    EXPECT_TRUE(r.cache_hit);
  }
  runtime::MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.cache_misses, kShards * num_fac);
  EXPECT_EQ(m.cache_hits, kShards * num_fac);

  // Publish touching exactly one shard.
  const uint32_t touched = engine.LocateUser(0).shard;
  UpdateBatch batch;
  batch.removes = {0};
  engine.ApplyUpdates(batch);

  // Pass 3: the touched shard re-misses once per facility; the other
  // kShards-1 shards answer from their still-valid generation-1 entries.
  TrajectorySet active;
  for (uint32_t u = 1; u < users.size(); ++u) active.Add(users.points(u));
  for (uint32_t f = 0; f < num_fac; ++f) {
    const QueryResponse r =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_FALSE(r.cache_hit);  // one shard of the scatter missed
    EXPECT_NEAR(r.value,
                testing::BruteForceSO(active, facs.points(f), model), 1e-6);
  }
  m = engine.metrics().Read();
  EXPECT_EQ(m.cache_misses, kShards * num_fac + num_fac);
  EXPECT_EQ(m.cache_hits, kShards * num_fac + (kShards - 1) * num_fac);
  (void)touched;
}

TEST(ShardedEngine, OutOfRangeFacilityReturnsErrorNotCrash) {
  Rng rng(71);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 60, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 3, 6, w);
  ShardedEngine engine(users, facs,
                       ShardedOptions(2, ServiceModel::PointCount(300.0)));
  const QueryResponse bad =
      engine.Submit(QueryRequest::ServiceValue(999)).get();
  EXPECT_FALSE(bad.status.ok());
  EXPECT_EQ(bad.status.code(), StatusCode::kOutOfRange);
  const QueryResponse good =
      engine.Submit(QueryRequest::ServiceValue(0)).get();
  EXPECT_TRUE(good.status.ok());
}

// More shards than users: some shards are empty, and everything still works.
TEST(ShardedEngine, SurvivesEmptyShards) {
  Rng rng(81);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 3, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 4, 6, w);
  const ServiceModel model = ServiceModel::PointCount(300.0);
  ShardedEngine engine(users, facs, ShardedOptions(8, model));
  EXPECT_EQ(engine.num_shards(), 8u);
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const QueryResponse r =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_NEAR(r.value,
                testing::BruteForceSO(users, facs.points(f), model), 1e-6);
  }
  const QueryResponse topk = engine.Submit(QueryRequest::TopK(2)).get();
  EXPECT_EQ(topk.ranked.size(), 2u);
}

}  // namespace
}  // namespace tq
