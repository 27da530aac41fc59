// Tests for bound-and-prune distributed top-k (src/runtime/sharded_engine
// sweep + refinement waves, src/tqtree TQTree::UpperBound):
//   * the aggregate bound is sound — never below the exact service value —
//     at every descent budget, tree mode and service model tested;
//   * pruned top-k answers agree bit-for-bit with the exhaustive gather and
//     with the brute-force ranked oracle on NYF for k ∈ {1, 5, 64} ×
//     shards ∈ {1, 2, 4, 8}, including tie-heavy value distributions;
//   * the protocol evaluates only what best-first order needs:
//     facilities_evaluated stays within the positive-bound slots of
//     facilities whose bound reaches the k-th value, with the skipped slots
//     accounted in facilities_pruned;
//   * the adaptive large-k switch (prune_skip_ratio) routes k ≥ ratio·|F|
//     queries straight to the exhaustive gather, same answers;
//   * the shared window planner (runtime/prune_plan.h), iterated to its
//     fixpoint on random bound/exact matrices against a brute-force top-k:
//     B == value ties across ids, k ≥ |F|, all-zero bounds and dropped
//     participants, and never asking for a facility below the k-th value.
// Runs under ASan+UBSan and TSan in CI (every wave's last task re-enters the
// coordinator on whichever pool thread it ran on).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "runtime/prune_plan.h"
#include "runtime/sharded_engine.h"
#include "service/facility_index.h"
#include "test_util.h"
#include "tqtree/tq_tree.h"

namespace tq {
namespace {

using runtime::FacilityMatrix;
using runtime::KnownMatrix;
using runtime::MetricsView;
using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;

ShardedEngineOptions Options(size_t shards, const ServiceModel& model,
                             bool prune, size_t cache_capacity = 0) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 4;
  so.cache_capacity = cache_capacity;
  so.prune_topk = prune;
  so.tree.beta = 16;
  so.tree.model = model;
  return so;
}

// Brute-force ranked oracle: every facility's SO over the raw user set,
// ordered by the library's (value desc, id asc) rule.
std::vector<RankedFacility> OracleRanking(const TrajectorySet& users,
                                          const TrajectorySet& facs,
                                          const ServiceModel& model,
                                          size_t k) {
  std::vector<RankedFacility> all(facs.size());
  for (uint32_t f = 0; f < facs.size(); ++f) {
    all[f] = RankedFacility{
        f, testing::BruteForceSO(users, facs.points(f), model)};
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

void ExpectSameRanking(const std::vector<RankedFacility>& got,
                       const std::vector<RankedFacility>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "rank " << i;
  }
}

// ------------------------------------------------------ TQTree::UpperBound

// Soundness at every descent budget: the aggregate bound may be loose but
// must never fall below the exact value, or pruning would drop answers.
TEST(TQTreeUpperBound, NeverBelowExactServiceValue) {
  Rng rng(97);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 24, 8, w);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    for (const ServiceModel& model :
         {ServiceModel::PointCount(300.0, Normalization::kNone),
          ServiceModel::Endpoints(300.0), ServiceModel::PointCount(150.0)}) {
      TQTreeOptions options;
      options.beta = 16;
      options.mode = mode;
      options.model = model;
      TQTree tree(&users, options);
      const ServiceEvaluator eval(&users, model);
      const FacilityCatalog catalog(&facs, model.psi);
      for (uint32_t f = 0; f < facs.size(); ++f) {
        const double exact =
            EvaluateServiceTQ(&tree, eval, catalog.grid(f), nullptr);
        for (const int levels : {0, 2, 6}) {
          size_t nodes = 0;
          const double bound =
              tree.UpperBound(catalog.grid(f), levels, &nodes);
          EXPECT_GE(bound, exact)
              << "mode=" << static_cast<int>(mode)
              << " facility=" << f << " levels=" << levels;
          EXPECT_GT(nodes, 0u);
        }
        // Deeper descent can only tighten (or keep) the bound.
        EXPECT_LE(tree.UpperBound(catalog.grid(f), 6),
                  tree.UpperBound(catalog.grid(f), 0));
      }
    }
  }
}

TEST(TQTreeUpperBound, ZeroBoundForUnreachableFacility) {
  Rng rng(101);
  const Rect w = Rect::Of(0, 0, 1000, 1000);
  const TrajectorySet users = testing::RandomUsers(&rng, 50, 2, 4, w);
  // A facility whose ψ-disks cannot touch any user point.
  TrajectorySet facs;
  facs.Add(std::vector<Point>{Point{50000, 50000}, Point{50100, 50100}});
  const ServiceModel model = ServiceModel::PointCount(10.0);
  TQTreeOptions options;
  options.model = model;
  TQTree tree(&users, options);
  const FacilityCatalog catalog(&facs, model.psi);
  EXPECT_EQ(tree.UpperBound(catalog.grid(0), 4), 0.0);
}

// --------------------------------------------------- pruned top-k answers

// The acceptance sweep: on the NYF preset, the pruned protocol must
// reproduce the brute-force ranked oracle (ids, and values to float
// tolerance) and the exhaustive gather (values bit for bit) at every
// (k, shards) combination.
TEST(TopKPrune, NyfExactAgreementWithBruteForceRanking) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  for (const size_t k : {1u, 5u, 64u}) {
    const std::vector<RankedFacility> oracle =
        OracleRanking(users, routes, model, k);
    for (const size_t shards : {1u, 2u, 4u, 8u}) {
      ShardedEngine pruned(users, routes, Options(shards, model, true));
      ShardedEngine exhaustive(users, routes, Options(shards, model, false));
      const QueryResponse got =
          pruned.Submit(QueryRequest::TopK(k)).get();
      const QueryResponse want =
          exhaustive.Submit(QueryRequest::TopK(k)).get();
      ASSERT_EQ(got.ranked.size(), oracle.size())
          << "k=" << k << " shards=" << shards;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(got.ranked[i].id, oracle[i].id)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        EXPECT_NEAR(got.ranked[i].value, oracle[i].value, 1e-9)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        // Bit-identical to the exhaustive scatter/gather: same per-shard
        // sums in the same shard order.
        EXPECT_EQ(got.ranked[i].id, want.ranked[i].id);
        EXPECT_EQ(got.ranked[i].value, want.ranked[i].value);
      }
    }
  }
}

// Tie-heavy distribution: three exact copies of every facility force large
// groups of exactly equal values; pruning near the k-th threshold must not
// disturb the ascending-id tie order, even when k cuts through a tie group.
TEST(TopKPrune, TieHeavyValuesKeepAscendingIdOrder) {
  Rng rng(31);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 5, w);
  const TrajectorySet base = testing::RandomFacilities(&rng, 6, 8, w);
  TrajectorySet facs;
  for (int copy = 0; copy < 3; ++copy) {
    for (uint32_t f = 0; f < base.size(); ++f) facs.Add(base.points(f));
  }
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  // k = 8 lands inside the third tie group (each group has 3 members).
  for (const size_t k : {3u, 8u, 18u}) {
    const std::vector<RankedFacility> oracle =
        OracleRanking(users, facs, model, k);
    for (const size_t shards : {2u, 4u}) {
      ShardedEngine pruned(users, facs, Options(shards, model, true));
      const QueryResponse got =
          pruned.Submit(QueryRequest::TopK(k)).get();
      ASSERT_EQ(got.ranked.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(got.ranked[i].id, oracle[i].id)
            << "k=" << k << " shards=" << shards << " rank=" << i;
        EXPECT_NEAR(got.ranked[i].value, oracle[i].value, 1e-9);
      }
      for (size_t i = 0; i + 1 < got.ranked.size(); ++i) {
        if (got.ranked[i].value == got.ranked[i + 1].value) {
          EXPECT_LT(got.ranked[i].id, got.ranked[i + 1].id);
        }
      }
    }
  }
}

// ------------------------------------------------------- prune accounting

// The point of the protocol: exact evaluation only where a sound bound
// cannot rule the facility out. With the shards' bounds and exact values
// recomputed here, facilities_evaluated must stay within the positive-bound
// slots of facilities whose initial B(f) = Σ_s UB_s(f) reaches the final
// k-th value — strictly fewer than the exhaustive facilities × shards
// sweep, with the skipped slots accounted.
TEST(TopKPrune, EvaluatesStrictlyFewerFacilitiesThanExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  constexpr size_t kShards = 4;
  constexpr size_t kK = 10;
  ShardedEngine engine(users, routes, Options(kShards, model, true));
  const QueryResponse got = engine.Submit(QueryRequest::TopK(kK)).get();
  ASSERT_EQ(got.ranked.size(), kK);

  // Per-facility bounds and exact values, summed in ascending shard order.
  const runtime::ShardedSnapshotPtr snap = engine.snapshot();
  const FacilityCatalog& catalog = *snap->catalog;
  std::vector<double> bound(routes.size(), 0.0);
  std::vector<double> exact(routes.size(), 0.0);
  std::vector<uint64_t> positive_slots(routes.size(), 0);
  for (const runtime::ShardStatePtr& shard : snap->shards) {
    for (uint32_t f = 0; f < routes.size(); ++f) {
      const double ub = shard->tree->UpperBound(
          catalog.grid(f), engine.options().bound_levels);
      bound[f] += ub;
      if (ub > 0.0) ++positive_slots[f];
      exact[f] += EvaluateServiceTQ(shard->tree.get(), *shard->eval,
                                    catalog.grid(f), nullptr);
    }
  }
  std::vector<double> ranked_exact = exact;
  std::sort(ranked_exact.begin(), ranked_exact.end(), std::greater<>());
  const double kth = ranked_exact[kK - 1];
  EXPECT_EQ(got.ranked.back().value, kth);
  uint64_t needed = 0;  // slots best-first refinement may have to evaluate
  for (uint32_t f = 0; f < routes.size(); ++f) {
    if (bound[f] >= kth) needed += positive_slots[f];
  }

  const MetricsView m = engine.metrics().Read();
  const uint64_t slots = static_cast<uint64_t>(routes.size()) * kShards;
  EXPECT_GT(m.facilities_pruned, 0u) << "no facility was ever pruned";
  EXPECT_LE(m.facilities_evaluated, needed)
      << "evaluated a slot whose facility's bound is below the k-th value";
  EXPECT_LT(m.facilities_evaluated, slots)
      << "pruned top-k regressed to the exhaustive sweep";
  EXPECT_EQ(m.facilities_evaluated + m.facilities_pruned, slots);
  EXPECT_GE(m.prune_rounds, 1u);

  // The exhaustive engine leaves the prune counters untouched.
  ShardedEngine exhaustive(users, routes, Options(kShards, model, false));
  (void)exhaustive.Submit(QueryRequest::TopK(10)).get();
  const MetricsView me = exhaustive.metrics().Read();
  EXPECT_EQ(me.facilities_evaluated, 0u);
  EXPECT_EQ(me.facilities_pruned, 0u);
  EXPECT_EQ(me.prune_rounds, 0u);
}

// Memoised answers and invalidation are protocol-independent: a repeated
// top-k hits the cache without re-running the rounds, and a write batch
// that republishes a contributing shard forces a fresh (still exact) run.
TEST(TopKPrune, CachedAnswerSurvivesAndInvalidatesAcrossWrites) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes,
                       Options(4, model, true, /*cache_capacity=*/2048));

  const QueryResponse first = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(first.cache_hit);
  const uint64_t evaluated_after_first =
      engine.metrics().Read().facilities_evaluated;
  const QueryResponse second = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_TRUE(second.cache_hit);
  // A memoised hit never re-enters the rounds.
  EXPECT_EQ(engine.metrics().Read().facilities_evaluated,
            evaluated_after_first);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].id, first.ranked[i].id);
    EXPECT_EQ(second.ranked[i].value, first.ranked[i].value);
  }

  runtime::UpdateBatch batch;
  batch.removes = {0};
  engine.ApplyUpdates(batch);
  const QueryResponse third = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(third.cache_hit);

  // Fresh answer agrees with the post-write brute-force oracle.
  TrajectorySet active;
  for (uint32_t u = 1; u < users.size(); ++u) active.Add(users.points(u));
  const std::vector<RankedFacility> oracle =
      OracleRanking(active, routes, model, 5);
  ASSERT_EQ(third.ranked.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(third.ranked[i].id, oracle[i].id) << "rank " << i;
    EXPECT_NEAR(third.ranked[i].value, oracle[i].value, 1e-9);
  }
}

// Multi-wave queries re-enter the coordinator on whichever pool thread ends
// a wave, while a writer publishes: every answer must equal the exhaustive
// ranking of the snapshot version it reports. The TSan job runs this.
TEST(TopKPrune, ConcurrentMultiWaveQueriesAcrossAPublish) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(32, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  const std::vector<size_t> ks = {1, 3, 6};
  runtime::UpdateBatch batch;
  for (uint32_t id = 0; id < 40; ++id) {
    batch.removes.push_back(id);
    const auto pts = users.points(400 + id);
    batch.inserts.emplace_back(pts.begin(), pts.end());
  }

  // want[version - 1][i]: the exhaustive answer for ks[i] at that version.
  ShardedEngine reference(users, routes, Options(4, model, false));
  std::vector<std::vector<std::vector<RankedFacility>>> want(2);
  for (size_t v = 0; v < 2; ++v) {
    if (v == 1) reference.ApplyUpdates(batch);
    for (const size_t k : ks) {
      want[v].push_back(reference.Submit(QueryRequest::TopK(k)).get().ranked);
    }
  }

  ShardedEngine engine(users, routes, Options(4, model, true));
  std::atomic<size_t> answered{0};
  std::atomic<bool> published{false};
  std::thread writer([&] {
    while (answered.load() < 3) std::this_thread::yield();
    engine.ApplyUpdates(batch);
    published.store(true);
  });
  std::vector<std::vector<QueryResponse>> got(3);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < got.size(); ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0, after = 0; after < ks.size(); ++i) {
        const bool late = published.load();
        got[r].push_back(
            engine.Submit(QueryRequest::TopK(ks[i % ks.size()])).get());
        answered.fetch_add(1);
        if (late) ++after;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  size_t queries = 0;
  std::vector<size_t> per_version(2, 0);
  for (const std::vector<QueryResponse>& responses : got) {
    for (size_t i = 0; i < responses.size(); ++i, ++queries) {
      const QueryResponse& r = responses[i];
      ASSERT_TRUE(r.snapshot_version == 1 || r.snapshot_version == 2);
      ++per_version[r.snapshot_version - 1];
      SCOPED_TRACE("version " + std::to_string(r.snapshot_version) +
                   " k=" + std::to_string(ks[i % ks.size()]));
      ExpectSameRanking(r.ranked, want[r.snapshot_version - 1][i % ks.size()]);
    }
  }
  EXPECT_GT(per_version[0], 0u);
  EXPECT_GT(per_version[1], 0u);
  // More than two waves per query on average: the coordinator loop ran.
  EXPECT_GT(engine.metrics().Read().prune_rounds, 2 * queries);
}

// ------------------------------------------------------------- edge cases

TEST(TopKPrune, DegenerateRequestsStayExact) {
  Rng rng(71);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 5, 6, w);
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  ShardedEngine engine(users, facs, Options(8, model, true));

  // k = 0: empty answer, no crash.
  EXPECT_TRUE(engine.Submit(QueryRequest::TopK(0)).get().ranked.empty());
  // k > facilities: clamped to the full exact ranking.
  const QueryResponse all = engine.Submit(QueryRequest::TopK(99)).get();
  const std::vector<RankedFacility> oracle =
      OracleRanking(users, facs, model, facs.size());
  ASSERT_EQ(all.ranked.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(all.ranked[i].id, oracle[i].id);
    EXPECT_NEAR(all.ranked[i].value, oracle[i].value, 1e-9);
  }

  // More shards than users (some shards empty) with a tiny k.
  const TrajectorySet few = testing::RandomUsers(&rng, 3, 2, 4, w);
  ShardedEngine sparse(few, facs, Options(8, model, true));
  const QueryResponse top =
      sparse.Submit(QueryRequest::TopK(2)).get();
  const std::vector<RankedFacility> sparse_oracle =
      OracleRanking(few, facs, model, 2);
  ASSERT_EQ(top.ranked.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(top.ranked[i].id, sparse_oracle[i].id);
    EXPECT_NEAR(top.ranked[i].value, sparse_oracle[i].value, 1e-9);
  }
}

// Segmented trees route top-k through the accumulator-dedup path; the bound
// protocol must stay sound there too (per-unit bounds over-count a
// trajectory that spans many nodes, which only loosens the bound).
TEST(TopKPrune, SegmentedModeAgreesWithExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(24, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  for (const size_t shards : {1u, 4u}) {
    ShardedEngineOptions po = Options(shards, model, true);
    po.tree.mode = TrajMode::kSegmented;
    ShardedEngineOptions eo = Options(shards, model, false);
    eo.tree.mode = TrajMode::kSegmented;
    ShardedEngine pruned(users, routes, po);
    ShardedEngine exhaustive(users, routes, eo);
    const QueryResponse got = pruned.Submit(QueryRequest::TopK(6)).get();
    const QueryResponse want =
        exhaustive.Submit(QueryRequest::TopK(6)).get();
    ASSERT_EQ(got.ranked.size(), want.ranked.size());
    for (size_t i = 0; i < want.ranked.size(); ++i) {
      EXPECT_EQ(got.ranked[i].id, want.ranked[i].id)
          << "shards=" << shards << " rank=" << i;
      EXPECT_EQ(got.ranked[i].value, want.ranked[i].value);
    }
  }
}

// ------------------------------------------------- adaptive large-k switch

// At k ≥ prune_skip_ratio·|F| the answer must contain at least half the
// catalog, so the bound sweep is pure overhead — the engine must go
// straight to the exhaustive gather (prune counters untouched) while small
// k keeps the pruned protocol. Both answers match the oracle either way.
TEST(TopKPrune, LargeKSkipsBoundSweepAdaptively) {
  const TrajectorySet users = presets::NyfCheckins(900);
  const TrajectorySet routes = presets::NyBusRoutes(32, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes, Options(4, model, true));
  ASSERT_EQ(engine.options().prune_skip_ratio, 0.5);  // the documented default

  // k = 16 = 0.5 · 32: at the threshold, the sweep is skipped.
  const QueryResponse large = engine.Submit(QueryRequest::TopK(16)).get();
  MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.prune_rounds, 0u) << "large k still ran the bound sweep";
  EXPECT_EQ(m.facilities_evaluated, 0u);

  // k = 2 is far below the threshold: the pruned protocol runs.
  const QueryResponse small = engine.Submit(QueryRequest::TopK(2)).get();
  m = engine.metrics().Read();
  EXPECT_GE(m.prune_rounds, 1u) << "small k skipped the bound sweep";

  // Both paths match the brute-force ranking.
  const std::vector<RankedFacility> oracle16 =
      OracleRanking(users, routes, model, 16);
  ASSERT_EQ(large.ranked.size(), oracle16.size());
  for (size_t i = 0; i < oracle16.size(); ++i) {
    EXPECT_EQ(large.ranked[i].id, oracle16[i].id) << "rank " << i;
    EXPECT_EQ(large.ranked[i].value, oracle16[i].value) << "rank " << i;
  }
  const std::vector<RankedFacility> oracle2 =
      OracleRanking(users, routes, model, 2);
  ASSERT_EQ(small.ranked.size(), oracle2.size());
  for (size_t i = 0; i < oracle2.size(); ++i) {
    EXPECT_EQ(small.ranked[i].id, oracle2[i].id) << "rank " << i;
    EXPECT_EQ(small.ranked[i].value, oracle2[i].value) << "rank " << i;
  }
}

// The ratio is a real knob: ≥ 1.0 never skips (k is clamped to |F|), and
// 0.0 always skips — equivalent to prune_topk = false.
TEST(TopKPrune, PruneSkipRatioIsConfigurable) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);

  ShardedEngineOptions never_skip = Options(2, model, true);
  never_skip.prune_skip_ratio = 1.1;
  ShardedEngine pruned(users, routes, never_skip);
  // k beyond the catalog clamps to |F| = 16 < 1.1 · 16: protocol runs.
  (void)pruned.Submit(QueryRequest::TopK(100)).get();
  EXPECT_GE(pruned.metrics().Read().prune_rounds, 1u);

  ShardedEngineOptions always_skip = Options(2, model, true);
  always_skip.prune_skip_ratio = 0.0;
  ShardedEngine exhaustive(users, routes, always_skip);
  (void)exhaustive.Submit(QueryRequest::TopK(1)).get();
  EXPECT_EQ(exhaustive.metrics().Read().prune_rounds, 0u);

  // The predicate both coordinators share.
  EXPECT_TRUE(runtime::UsePrunedTopK(true, 1.1, 100, 16));
  EXPECT_FALSE(runtime::UsePrunedTopK(true, 0.5, 8, 16));
  EXPECT_TRUE(runtime::UsePrunedTopK(true, 0.5, 7, 16));
  EXPECT_FALSE(runtime::UsePrunedTopK(false, 2.0, 1, 16));
}

// ------------------------------------------------------------ prune planner

// Brute force: every facility's total over `parts` (ascending participant
// order, like every engine merge), ranked (value desc, id asc).
std::vector<RankedFacility> BruteTopK(std::span<const size_t> parts,
                                      const FacilityMatrix& truth, size_t k) {
  std::vector<RankedFacility> all(truth[0].size());
  for (uint32_t f = 0; f < all.size(); ++f) {
    all[f].id = f;
    for (const size_t p : parts) all[f].value += truth[p][f];
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

// The coordinator loop over the planner alone. `truth` holds every
// participant's exact per-facility value; `exact`/`known` the slots settled
// before the first plan. Plans, refines the window's unsettled slots from
// `truth` (as one wave would), and plans again until the window is settled,
// then merges and ranks. Fails the test if a wave asks for a zero-bound
// slot or an already-settled facility, if a facility it asks for has
// B(f) below the final k-th value, or if the loop does not converge.
std::vector<RankedFacility> PlannedTopK(std::span<const size_t> parts,
                                        const FacilityMatrix& bounds,
                                        const FacilityMatrix& truth,
                                        FacilityMatrix exact,
                                        KnownMatrix known, size_t k) {
  const size_t num_fac = truth[0].size();
  const std::vector<RankedFacility> brute = BruteTopK(parts, truth, k);
  for (size_t wave = 0;; ++wave) {
    const std::vector<uint32_t> window =
        runtime::PlanWindow(parts, bounds, &exact, &known, k, num_fac);
    for (const size_t p : parts) {
      for (size_t f = 0; f < num_fac; ++f) {
        if (bounds[p][f] <= 0.0) {
          EXPECT_TRUE(known[p][f]) << "zero-bound slot left unsettled";
          EXPECT_EQ(exact[p][f], 0.0);
        }
      }
    }
    if (window.empty()) break;
    if (wave == parts.size() * num_fac) {
      ADD_FAILURE() << "planner still refining after every slot settled";
      break;
    }
    for (const uint32_t f : window) {
      double b = 0.0;  // B(f) as the planner valued it, ascending order
      for (const size_t p : parts) {
        b += known[p][f] ? exact[p][f] : bounds[p][f];
      }
      EXPECT_GE(b, brute.back().value)
          << "asked for facility " << f << " whose bound is below the k-th";
      bool asked = false;
      for (const size_t p : parts) {
        if (known[p][f]) continue;
        EXPECT_GT(bounds[p][f], 0.0) << "refinement of a zero-bound slot";
        exact[p][f] = truth[p][f];
        known[p][f] = 1;
        asked = true;
      }
      EXPECT_TRUE(asked) << "window returned settled facility " << f;
    }
  }
  return runtime::Rank(
      runtime::CompleteFacilities(parts, exact, &known, num_fac), k);
}

// Property: on random non-negative exact matrices with bounds ≥ exacts and
// random pre-settled masks, the planner loop + merge equals the brute-force
// top-k, bit for bit. Small integer values make exact ties (B == value
// across ids included) common; every few trials drops one participant.
TEST(PrunePlan, MatchesBruteForceOnRandomMatrices) {
  Rng rng(2001);
  // Unsettled slots hold garbage: the planner must never read them.
  constexpr double kUnsettled = 1e9;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t num_parts = 1 + rng.NextBelow(5);
    const size_t num_fac = 1 + rng.NextBelow(24);
    const bool integral = rng.NextBernoulli(0.6);
    FacilityMatrix truth(num_parts, std::vector<double>(num_fac));
    FacilityMatrix bounds = truth;
    FacilityMatrix exact(num_parts, std::vector<double>(num_fac, kUnsettled));
    KnownMatrix known(num_parts, std::vector<uint8_t>(num_fac, 0));
    for (size_t p = 0; p < num_parts; ++p) {
      for (size_t f = 0; f < num_fac; ++f) {
        if (!rng.NextBernoulli(0.3)) {
          truth[p][f] = integral ? static_cast<double>(rng.NextBelow(5))
                                 : rng.NextUniform(0.0, 10.0);
        }
        const bool tight = truth[p][f] == 0.0 ? rng.NextBernoulli(0.5)
                                              : rng.NextBernoulli(0.3);
        bounds[p][f] =
            truth[p][f] +
            (tight ? 0.0
                   : (integral ? static_cast<double>(1 + rng.NextBelow(3))
                               : rng.NextUniform(0.0, 3.0)));
        if (rng.NextBernoulli(0.4)) {
          exact[p][f] = truth[p][f];
          known[p][f] = 1;
        }
      }
    }
    std::vector<size_t> parts;
    const size_t dropped =
        num_parts > 1 && rng.NextBernoulli(0.3) ? rng.NextBelow(num_parts)
                                                : num_parts;
    for (size_t p = 0; p < num_parts; ++p) {
      if (p != dropped) parts.push_back(p);
    }
    const size_t k = rng.NextBelow(num_fac + 3);  // 0 and k > |F| included
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameRanking(PlannedTopK(parts, bounds, truth, exact, known, k),
                      BruteTopK(parts, truth, k));
  }
}

// A facility's bound B(0) = 2 ties facility 1's settled exact value 2. The
// window breaks the tie on id, so facility 0 is refined — and, at exactly 2,
// wins. Breaking it the other way would answer facility 1 unrefined.
TEST(PrunePlan, BreaksBoundValueTiesById) {
  const FacilityMatrix truth = {{1, 2}, {1, 0}};
  const FacilityMatrix bounds = {{1, 2}, {1, 0}};
  const FacilityMatrix exact = {{1, 2}, {0, 0}};
  const KnownMatrix known = {{1, 1}, {0, 1}};  // only slot (1, 0) open
  const std::vector<size_t> parts = {0, 1};
  std::vector<RankedFacility> got =
      PlannedTopK(parts, bounds, truth, exact, known, 1);
  ExpectSameRanking(got, BruteTopK(parts, truth, 1));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0u);

  // The first plan asks for exactly the tied, smaller-id facility.
  FacilityMatrix ex = exact;
  KnownMatrix kn = known;
  EXPECT_EQ(runtime::PlanWindow(parts, bounds, &ex, &kn, 1, 2),
            std::vector<uint32_t>{0});
}

TEST(PrunePlan, AllZeroBoundsSettleWithoutRefinement) {
  const size_t num_fac = 6;
  const FacilityMatrix zeros(3, std::vector<double>(num_fac, 0.0));
  FacilityMatrix exact = zeros;
  KnownMatrix known(3, std::vector<uint8_t>(num_fac, 0));
  const std::vector<size_t> parts = {0, 1, 2};
  EXPECT_TRUE(
      runtime::PlanWindow(parts, zeros, &exact, &known, 4, num_fac).empty());
  for (const auto& row : known) {
    EXPECT_EQ(row, std::vector<uint8_t>(num_fac, 1));
  }
  // Every facility ties at 0: ascending ids, k clamped to |F|.
  ExpectSameRanking(
      runtime::Rank(
          runtime::CompleteFacilities(parts, exact, &known, num_fac), 99),
      BruteTopK(parts, zeros, 99));
}

// Leaving a participant out of the list drops its contribution entirely —
// the coordinator's dead-worker path — and k ≥ |F| ranks everything.
TEST(PrunePlan, DroppedParticipantAndLargeK) {
  const FacilityMatrix truth = {{1, 4, 0}, {9, 9, 9}, {2, 0, 3}};
  FacilityMatrix bounds = truth;
  for (auto& row : bounds) {
    for (double& b : row) b += 1.0;
  }
  const FacilityMatrix exact(3, std::vector<double>(3, 0.0));
  const KnownMatrix known(3, std::vector<uint8_t>(3, 0));
  const std::vector<size_t> survivors = {0, 2};
  const std::vector<RankedFacility> got =
      PlannedTopK(survivors, bounds, truth, exact, known, 5);
  ExpectSameRanking(got, BruteTopK(survivors, truth, 5));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].value, 4.0);  // participant 1's 9s never counted
}

}  // namespace
}  // namespace tq
