// Tests for bound-and-prune distributed top-k (src/runtime/sharded_engine
// sweep + refinement waves, src/tqtree CellIndex::CellUpperBound):
//   * the cell bound is sound — never below the exact service value — in
//     every tree mode and service model tested;
//   * top-k answers agree bit-for-bit with the snapshot oracle (every
//     facility evaluated on every shard, summed in ascending shard order)
//     for small k, k = |F|/2, k = |F| and k > |F| × shards ∈ {1, 2, 4, 8},
//     under the raw point count (also equal to the brute-force ranking)
//     and the paper's per-user-normalised Scenario 2, including tie-heavy
//     value distributions;
//   * the protocol evaluates only what best-first order needs:
//     facilities_evaluated stays within the positive-bound slots of
//     facilities whose bound reaches the k-th value, with the skipped slots
//     accounted in facilities_pruned;
//   * the bounds memo (CellIndex::Bounds): writes patch it instead of
//     dropping it — the patched memo is sound, lists the live candidates
//     and, under integer-valued models, equals a fresh index's bit for bit,
//     through tree churn, a table rebuild and 240 engine publishes — a long
//     write log falls back to a sweep, each catalog gets its own, racing
//     first top-ks fill it once, and a fork racing the readers of its
//     parent's memo gets a correct one;
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
#include <future>
#include <memory>
#include <optional>
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
                             size_t cache_capacity = 0) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = 4;
  so.cache_capacity = cache_capacity;
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

// Snapshot oracle: every facility evaluated exactly on every shard of
// `snap` (EvaluateServiceCells), summed in ascending shard order and ranked by
// (value desc, id asc). These are the bits any exact sharded top-k must
// return, computed without any coordinator code.
std::vector<RankedFacility> SnapshotRanking(
    const runtime::ShardedSnapshot& snap, size_t k) {
  const FacilityCatalog& catalog = *snap.catalog;
  std::vector<RankedFacility> all(catalog.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) all[f].id = f;
  for (const runtime::ShardStatePtr& shard : snap.shards) {
    for (uint32_t f = 0; f < catalog.size(); ++f) {
      all[f].value += EvaluateServiceCells(*shard->cells, *shard->eval,
                                           catalog.grid(f), nullptr);
    }
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

// ---------------------------------------------- CellIndex::CellUpperBound

// CellUpperBound ≥ the exact value for every facility.
void ExpectBoundNeverBelowExact(TQTree* tree, const ServiceEvaluator& eval,
                                const FacilityCatalog& catalog,
                                const std::string& where) {
  SCOPED_TRACE(where);
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const double exact =
        EvaluateServiceTQ(tree, eval, catalog.grid(f), nullptr);
    EXPECT_GE(tree->cells().CellUpperBound(catalog.grid(f)), exact)
        << "facility=" << f;
  }
}

// The same on a cell index alone, exact over its indexed ids.
void ExpectBoundNeverBelowExact(const CellIndex& cells,
                                const ServiceEvaluator& eval,
                                const FacilityCatalog& catalog,
                                const std::string& where) {
  SCOPED_TRACE(where);
  const std::vector<uint32_t> ids = cells.IndexedTrajectories();
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const double exact = EvaluateServiceOver(ids, eval, catalog.grid(f));
    EXPECT_GE(cells.CellUpperBound(catalog.grid(f)), exact)
        << "facility=" << f;
  }
}

// Soundness: the bound may be loose but must never fall below the exact
// value, or pruning would drop answers. Covers every scenario and
// normalisation (the point-mass raster deposits each differently), whole
// trees (cell tables, pending inserts before the freeze) and segmented
// trees (raster alone), fresh and after inserts and removes in place; and
// the same through a cell-index fork: the fork's raster is copied on its
// first write, so the parent's bound must still cover the parent's own
// exact values afterwards.
TEST(TQTreeUpperBound, NeverBelowExactServiceValue) {
  Rng rng(97);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 6, w);
  TrajectorySet extended = users;
  const TrajectorySet more = testing::RandomUsers(&rng, 80, 2, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) extended.Add(more.points(u));
  const TrajectorySet facs = testing::RandomFacilities(&rng, 24, 8, w);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    for (const ServiceModel& model :
         {ServiceModel::PointCount(300.0, Normalization::kNone),
          ServiceModel::Endpoints(300.0), ServiceModel::PointCount(150.0),
          ServiceModel::Length(300.0, Normalization::kNone),
          ServiceModel::Length(300.0, Normalization::kPerUser)}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " scenario=" +
                   std::to_string(static_cast<int>(model.scenario)) +
                   " norm=" +
                   std::to_string(static_cast<int>(model.normalization)));
      TQTreeOptions options;
      options.beta = 16;
      options.mode = mode;
      options.model = model;
      TQTree tree(&extended, options, AllIds(users));
      // The extended set is an append-only extension, so one evaluator
      // serves the base and the extended ids alike.
      const ServiceEvaluator eval(&extended, model);
      const FacilityCatalog catalog(&facs, model.psi);
      ExpectBoundNeverBelowExact(&tree, eval, catalog, "fresh");
      for (uint32_t u = static_cast<uint32_t>(users.size());
           u < extended.size(); ++u) {
        tree.Insert(u);
      }
      for (uint32_t u = 0; u < users.size(); u += 4) {
        ASSERT_TRUE(tree.Remove(u));
      }
      ExpectBoundNeverBelowExact(&tree, eval, catalog, "before freeze");
      tree.Freeze();
      ExpectBoundNeverBelowExact(&tree, eval, catalog, "frozen");

      const CellIndex parent(&users, model, mode == TrajMode::kWhole,
                             AllIds(users));
      std::unique_ptr<CellIndex> fork = parent.Fork(&extended);
      for (uint32_t u = static_cast<uint32_t>(users.size());
           u < extended.size(); ++u) {
        fork->Insert(u);
      }
      for (uint32_t u = 0; u < users.size(); u += 4) {
        ASSERT_TRUE(fork->Remove(u));
      }
      ExpectBoundNeverBelowExact(*fork, eval, catalog, "fork before freeze");
      fork->Freeze();
      ExpectBoundNeverBelowExact(*fork, eval, catalog, "fork frozen");
      ExpectBoundNeverBelowExact(parent, eval, catalog,
                                 "parent after fork writes");
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
  const FacilityCatalog catalog(&facs, model.psi);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    options.mode = mode;
    TQTree tree(&users, options);
    EXPECT_EQ(tree.cells().CellUpperBound(catalog.grid(0)), 0.0)
        << "mode=" << static_cast<int>(mode);
  }
}

// ---------------------------------------------------- CellIndex::Bounds memo

// Values that are integers sum to the same bits in any order, so a patched
// memo must equal a fresh sweep exactly.
bool IntegerValued(const ServiceModel& model) {
  return model.scenario == Scenario::kEndpoints ||
         (model.scenario == Scenario::kPointCount &&
          model.normalization == Normalization::kNone);
}

bool SameBounds(const FacilityBounds& a, const FacilityBounds& b) {
  return a.bound == b.bound && a.cap == b.cap && a.mass == b.mass &&
         a.ids == b.ids && a.begin == b.begin;
}

// The bounds of an index built fresh over `cells`' indexed trajectories,
// with its user set, model and tables.
std::shared_ptr<const FacilityBounds> FreshBounds(
    const CellIndex& cells, const FacilityCatalog& catalog) {
  const CellIndex fresh(&cells.users(), cells.model(), cells.has_tables(),
                        cells.IndexedTrajectories());
  return fresh.Bounds(catalog);
}

// What an index's memoised bounds must hold at any step, against `exact`
// (SO of each facility): no bound falls below the exact SO; the candidate
// lists are a live CellUpperBound sweep's (sets, so exact under every
// model); and under an integer-valued model every bound equals the live
// sweep's bit for bit. With `fresh_oracle` (the index's world is its user
// set's, so an index built over its indexed trajectories has the same
// cells), bounds, caps, masses and lists also equal that fresh index's,
// bit for bit for integer-valued models and to rounding otherwise.
void ExpectMemoSound(const CellIndex& cells, const FacilityCatalog& catalog,
                     const std::vector<double>& exact, bool fresh_oracle) {
  const std::shared_ptr<const FacilityBounds> memo = cells.Bounds(catalog);
  ASSERT_EQ(memo->bound.size(), catalog.size());
  EXPECT_EQ(memo->listed(), cells.lists_candidates());
  const bool integer = IntegerValued(cells.model());
  std::vector<uint32_t> ids;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    SCOPED_TRACE("facility=" + std::to_string(f));
    EXPECT_GE(memo->bound[f], exact[f]);
    ids.clear();
    const double live = cells.CellUpperBound(catalog.grid(f), &ids);
    if (integer) {
      EXPECT_EQ(memo->bound[f], live);
    }
    if (memo->listed()) {
      const std::span<const uint32_t> listed = memo->candidates(f);
      EXPECT_EQ(std::vector<uint32_t>(listed.begin(), listed.end()), ids);
    }
  }
  if (!fresh_oracle) return;
  const std::shared_ptr<const FacilityBounds> want =
      FreshBounds(cells, catalog);
  EXPECT_EQ(memo->ids, want->ids);
  EXPECT_EQ(memo->begin, want->begin);
  if (integer) {
    EXPECT_TRUE(SameBounds(*memo, *want));
    return;
  }
  ASSERT_EQ(memo->cap.size(), want->cap.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const double tol = 1e-9 * std::max(1.0, want->bound[f]);
    EXPECT_NEAR(memo->bound[f], want->bound[f], tol) << "facility=" << f;
    EXPECT_NEAR(memo->mass[f], want->mass[f], tol) << "facility=" << f;
    if (!want->cap.empty()) {
      EXPECT_NEAR(memo->cap[f], want->cap[f], tol) << "facility=" << f;
    }
  }
}

// One step of the churn: the first top-k since the step sweeps
// `expect_computed` bounds and patches `expect_patched` writes, and ranks
// exactly as the exhaustive search does; a repeat does neither and returns
// the same prefix; the memo then holds (ExpectMemoSound).
void ExpectMemoStep(TQTree* tree, const ServiceEvaluator& eval,
                    const FacilityCatalog& catalog, size_t expect_computed,
                    size_t expect_patched, const std::string& step) {
  SCOPED_TRACE(step);
  const size_t n = catalog.size();
  const TopKResult all = TopKFacilitiesTQ(tree, catalog, eval, n);
  EXPECT_EQ(all.stats.bounds_computed, expect_computed);
  EXPECT_EQ(all.stats.bounds_patched, expect_patched);
  const std::vector<RankedFacility> want =
      TopKFacilitiesExhaustiveTQ(tree, catalog, eval, n).ranked;
  ExpectSameRanking(all.ranked, want);
  const TopKResult again = TopKFacilitiesTQ(tree, catalog, eval, 5);
  EXPECT_EQ(again.stats.bounds_computed, 0u);
  EXPECT_EQ(again.stats.bounds_patched, 0u);
  ExpectSameRanking(again.ranked,
                    std::vector<RankedFacility>(want.begin(), want.begin() + 5));
  std::vector<double> exact(n);
  for (uint32_t f = 0; f < n; ++f) {
    exact[f] = EvaluateServiceTQ(tree, eval, catalog.grid(f), nullptr);
  }
  ExpectMemoSound(tree->cells(), catalog, exact, /*fresh_oracle=*/true);
}

// Rounds of a few inserts, removes and reinserts on whole and segmented
// trees, under all three scenarios (Scenario 2 raw and per-user): no write
// drops the memo, so the first top-k after each round patches exactly that
// round's writes and sweeps nothing, and the patched memo is sound and
// equals a fresh index's. The whole tree's pending inserts then pass 1/8 of
// its tables, so its freeze rebuilds them and keeps the memo, which still
// equals a fresh index's.
TEST(BoundsMemo, ChurnPatchesAfterEachWrite) {
  Rng rng(53);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 300, 2, 6, w);
  TrajectorySet users = base;
  const TrajectorySet more = testing::RandomUsers(&rng, 60, 2, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) users.Add(more.points(u));
  const TrajectorySet facs = testing::RandomFacilities(&rng, 20, 8, w);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    for (const ServiceModel& model :
         {ServiceModel::Endpoints(300.0),
          ServiceModel::PointCount(300.0, Normalization::kNone),
          ServiceModel::PointCount(300.0), ServiceModel::Length(300.0)}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " model=" + model.ToString());
      TQTreeOptions options;
      options.beta = 16;
      options.mode = mode;
      options.model = model;
      TQTree tree(&users, options, AllIds(base));
      const ServiceEvaluator eval(&users, model);
      const FacilityCatalog catalog(&facs, model.psi);
      ExpectMemoStep(&tree, eval, catalog, catalog.size(), 0, "fresh");
      auto next = static_cast<uint32_t>(base.size());
      std::vector<uint32_t> removed;
      for (uint32_t round = 0; round < 12; ++round) {
        size_t writes = 0;
        for (int i = 0; i < 3; ++i, ++writes) tree.Insert(next++);
        for (uint32_t i = 0; i < 2; ++i, ++writes) {
          ASSERT_TRUE(tree.Remove(7 * round + i));
          removed.push_back(7 * round + i);
        }
        if (round % 3 == 2) {
          tree.Insert(removed.back());
          removed.pop_back();
          ++writes;
        }
        ExpectMemoStep(&tree, eval, catalog, 0, writes,
                       "round " + std::to_string(round));
      }
      if (mode == TrajMode::kWhole) {
        ASSERT_EQ(tree.cells().num_pending(), 40u);
      }
      tree.Freeze();
      EXPECT_EQ(tree.cells().num_pending(), 0u);
      ExpectMemoStep(&tree, eval, catalog, 0, 0, "frozen");
    }
  }
}

// A write log longer than 1/8 of the indexed trajectories drops the memo:
// the next top-k sweeps the catalog and patches nothing. A log at the
// limit still patches.
TEST(BoundsMemo, LongLogFallsBackToASweep) {
  Rng rng(61);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 320, 2, 6, w);
  TrajectorySet users = base;
  const TrajectorySet more = testing::RandomUsers(&rng, 60, 2, 6, w);
  for (uint32_t u = 0; u < more.size(); ++u) users.Add(more.points(u));
  const TrajectorySet facs = testing::RandomFacilities(&rng, 12, 8, w);
  const ServiceModel model = ServiceModel::Endpoints(300.0);
  for (const TrajMode mode : {TrajMode::kWhole, TrajMode::kSegmented}) {
    SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
    TQTreeOptions options;
    options.beta = 16;
    options.mode = mode;
    options.model = model;
    TQTree tree(&users, options, AllIds(base));
    const ServiceEvaluator eval(&users, model);
    const FacilityCatalog catalog(&facs, model.psi);
    ExpectMemoStep(&tree, eval, catalog, catalog.size(), 0, "fresh");
    // 35 removes leave 285 indexed, and 35 × 8 = 280 is not above it.
    for (uint32_t u = 0; u < 35; ++u) ASSERT_TRUE(tree.Remove(u));
    ExpectMemoStep(&tree, eval, catalog, 0, 35, "log at the limit");
    for (uint32_t u = 35; u < 75; ++u) ASSERT_TRUE(tree.Remove(u));
    ExpectMemoStep(&tree, eval, catalog, catalog.size(), 0, "40 removes");
    for (auto u = static_cast<uint32_t>(base.size()); u < users.size(); ++u) {
      tree.Insert(u);
    }
    ExpectMemoStep(&tree, eval, catalog, catalog.size(), 0, "60 inserts");
  }
}

// Bounds are per catalog: two catalogs of one facility set at different ψ,
// used alternately on one tree, each get their own (the memo holds one
// catalog's, so each switch sweeps again); and a catalog built at a
// destroyed one's address gets its own too.
TEST(BoundsMemo, EachCatalogGetsItsOwnBounds) {
  Rng rng(59);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 400, 2, 6, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 16, 8, w);
  const ServiceModel model = ServiceModel::Endpoints(300.0);
  TQTreeOptions options;
  options.model = model;
  TQTree tree(&users, options);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog narrow(&facs, 150.0);
  const FacilityCatalog wide(&facs, 600.0);
  EXPECT_NE(narrow.serial(), wide.serial());
  ExpectMemoStep(&tree, eval, narrow, facs.size(), 0, "narrow");
  ExpectMemoStep(&tree, eval, wide, facs.size(), 0, "wide");
  ExpectMemoStep(&tree, eval, narrow, facs.size(), 0, "narrow again");
  ExpectMemoStep(&tree, eval, wide, facs.size(), 0, "wide again");
  EXPECT_NE(tree.cells().Bounds(narrow)->bound,
            tree.cells().Bounds(wide)->bound);

  // The replacement is built in the destroyed catalog's own storage.
  std::optional<FacilityCatalog> slot;
  slot.emplace(&facs, 150.0);
  ExpectMemoStep(&tree, eval, *slot, facs.size(), 0, "to be destroyed");
  const uint64_t gone_serial = slot->serial();
  slot.reset();
  slot.emplace(&facs, 450.0);
  EXPECT_NE(slot->serial(), gone_serial);
  ExpectMemoStep(&tree, eval, *slot, facs.size(), 0, "replacement");
}

// Engine shards keep their memo through publishes: a repeated top-k sweeps
// and patches nothing, and a publish touching one of four shards costs the
// next top-k exactly that shard's writes, patched, with no sweep. Under the
// integer point count every partition sums to the same bits, so the answer
// equals a fresh engine's over the same users.
TEST(BoundsMemo, EnginePublishPatchesOnlyTheTouchedShard) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  constexpr size_t kShards = 4;
  constexpr size_t kK = 5;
  const uint64_t nf = routes.size();
  ShardedEngine engine(users, routes, Options(kShards, model));
  const auto computed = [&] { return engine.metrics().Read().bounds_computed; };
  const auto patched = [&] { return engine.metrics().Read().bounds_patched; };
  engine.Submit(QueryRequest::TopK(kK)).get();
  EXPECT_EQ(computed(), kShards * nf);
  EXPECT_EQ(patched(), 0u);
  engine.Submit(QueryRequest::TopK(kK)).get();
  EXPECT_EQ(computed(), kShards * nf) << "a repeat swept the bounds again";

  const TrajectorySet extra = presets::NyfCheckins(820);
  const auto publish_one_shard = [&](const runtime::UpdateBatch& batch) {
    const std::vector<uint64_t> before = engine.shard_generations();
    const std::vector<uint32_t> ids = engine.ApplyUpdates(batch);
    const std::vector<uint64_t> after = engine.shard_generations();
    size_t touched = 0;
    for (size_t s = 0; s < kShards; ++s) touched += before[s] != after[s];
    EXPECT_EQ(touched, 1u);
    return ids;
  };
  runtime::UpdateBatch insert;
  insert.inserts.emplace_back(extra.points(810).begin(),
                              extra.points(810).end());
  const std::vector<uint32_t> ids = publish_one_shard(insert);
  ASSERT_EQ(ids.size(), 1u);
  TrajectorySet now = users;
  now.Add(extra.points(810));
  QueryResponse got = engine.Submit(QueryRequest::TopK(kK)).get();
  EXPECT_EQ(computed(), kShards * nf);
  EXPECT_EQ(patched(), 1u);
  ShardedEngine fresh(now, routes, Options(kShards, model));
  ExpectSameRanking(got.ranked,
                    fresh.Submit(QueryRequest::TopK(kK)).get().ranked);
  ExpectSameRanking(got.ranked, OracleRanking(now, routes, model, kK));
  engine.Submit(QueryRequest::TopK(kK)).get();
  EXPECT_EQ(patched(), 1u) << "a repeat patched again";

  // Removing the inserted user again touches the same shard.
  runtime::UpdateBatch remove;
  remove.removes.push_back(ids[0]);
  publish_one_shard(remove);
  got = engine.Submit(QueryRequest::TopK(kK)).get();
  EXPECT_EQ(computed(), kShards * nf);
  EXPECT_EQ(patched(), 2u);
  ExpectSameRanking(got.ranked, OracleRanking(users, routes, model, kK));
}

// 240 random publishes of 1–3 inserts and 1–3 removes each on a 4-shard
// engine, a top-k after every one, under Scenario 1 (listed memos),
// Scenario 2 raw and Scenario 3 per-user: each answer equals the snapshot
// oracle's bits, every shard's memo stays sound against its exact SO (and
// equals a live sweep bit for bit under the integer-valued models), and
// the engine swept each shard's bounds once, patching every write after.
TEST(BoundsMemo, EngineBoundsStaySoundThroughRandomPublishes) {
  constexpr size_t kShards = 4;
  constexpr size_t kK = 3;
  constexpr int kPublishes = 240;
  const TrajectorySet routes = presets::NyBusRoutes(12, 8);
  struct Case {
    TrajectorySet users;
    TrajectorySet held;
    ServiceModel model;
  };
  const Case cases[] = {
      {presets::NytTrips(500), presets::NytTrips(900),
       ServiceModel::Endpoints(300.0)},
      {presets::NyfCheckins(500), presets::NyfCheckins(900),
       ServiceModel::PointCount(200.0, Normalization::kNone)},
      {presets::NyfCheckins(500), presets::NyfCheckins(900),
       ServiceModel::Length(200.0, Normalization::kPerUser)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.model.ToString());
    ShardedEngine engine(c.users, routes, Options(kShards, c.model));
    engine.Submit(QueryRequest::TopK(kK)).get();  // sweeps every shard
    Rng rng(71);
    std::vector<uint32_t> live(c.users.size());
    for (uint32_t g = 0; g < live.size(); ++g) live[g] = g;
    uint64_t writes = 0;
    uint32_t held_row = 0;
    for (int step = 0; step < kPublishes; ++step) {
      runtime::UpdateBatch batch;
      const size_t inserts = 1 + rng.NextBelow(3);
      const size_t removes = 1 + rng.NextBelow(3);
      for (size_t i = 0; i < inserts; ++i) {
        const auto pts = c.held.points(held_row++ % c.held.size());
        batch.inserts.emplace_back(pts.begin(), pts.end());
      }
      for (size_t i = 0; i < removes; ++i) {
        const size_t r = rng.NextBelow(live.size());
        batch.removes.push_back(live[r]);
        live[r] = live.back();
        live.pop_back();
      }
      for (const uint32_t id : engine.ApplyUpdates(batch)) live.push_back(id);
      writes += inserts + removes;
      const QueryResponse got = engine.Submit(QueryRequest::TopK(kK)).get();
      const runtime::ShardedSnapshotPtr snap = engine.snapshot();
      ASSERT_EQ(got.snapshot_version, snap->version);
      ExpectSameRanking(got.ranked, SnapshotRanking(*snap, kK));
      if (step % 40 != 39) continue;
      SCOPED_TRACE("step " + std::to_string(step));
      const FacilityCatalog& catalog = *snap->catalog;
      for (const runtime::ShardStatePtr& shard : snap->shards) {
        std::vector<double> exact(catalog.size());
        for (uint32_t f = 0; f < catalog.size(); ++f) {
          exact[f] = EvaluateServiceCells(*shard->cells, *shard->eval,
                                          catalog.grid(f), nullptr);
        }
        ExpectMemoSound(*shard->cells, catalog, exact,
                        /*fresh_oracle=*/false);
      }
    }
    const MetricsView m = engine.metrics().Read();
    EXPECT_EQ(m.bounds_computed, kShards * routes.size());
    EXPECT_EQ(m.bounds_patched, writes);
  }
}

// A fork carries its parent's memo with the writes the parent has not
// replayed yet, so a grandchild forked before any read patches both
// generations' writes, and the retained parent keeps its own bounds; the
// first patch stores the footprints, which later forks share. A fork
// whose table kind flips starts without a memo and sweeps; the freeze that
// builds its tables drops the table-less memo it swept.
TEST(BoundsMemo, ForkCarriesTheMemoAndTheUnreplayedLog) {
  const TrajectorySet users = presets::NytTrips(1300);
  const TrajectorySet routes = presets::NyBusRoutes(16, 16);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const FacilityCatalog catalog(&routes, model.psi);
  std::vector<uint32_t> first = AllIds(users);
  first.resize(1200);
  const CellIndex base(&users, model, true, first);
  size_t computed = 0;
  size_t patched = 0;
  base.Bounds(catalog, &computed, &patched);
  EXPECT_EQ(computed, catalog.size());
  const std::unique_ptr<CellIndex> child = base.Fork(&users);
  for (uint32_t u = 1200; u < 1203; ++u) child->Insert(u);
  ASSERT_TRUE(child->Remove(5));
  child->Freeze();
  const std::unique_ptr<CellIndex> grandchild = child->Fork(&users);
  grandchild->Insert(1203);
  grandchild->Insert(1204);
  grandchild->Freeze();
  computed = patched = 0;
  EXPECT_TRUE(SameBounds(*grandchild->Bounds(catalog, &computed, &patched),
                         *FreshBounds(*grandchild, catalog)));
  EXPECT_EQ(computed, 0u);
  EXPECT_EQ(patched, 6u);
  computed = patched = 0;
  EXPECT_TRUE(SameBounds(*child->Bounds(catalog, &computed, &patched),
                         *FreshBounds(*child, catalog)));
  EXPECT_EQ(computed, 0u);
  EXPECT_EQ(patched, 4u);
  EXPECT_TRUE(SameBounds(*base.Bounds(catalog), *FreshBounds(base, catalog)));
  // Footprints: none on the never-written base, built by the first patch,
  // then shared by the patched memo of a fork.
  EXPECT_EQ(base.Bounds(catalog)->footprints, nullptr);
  const std::shared_ptr<const Footprints> footprints =
      grandchild->Bounds(catalog)->footprints;
  ASSERT_NE(footprints, nullptr);
  const std::unique_ptr<CellIndex> next = grandchild->Fork(&users);
  ASSERT_TRUE(next->Remove(1203));
  next->Freeze();
  EXPECT_EQ(next->Bounds(catalog)->footprints, footprints);
  EXPECT_TRUE(SameBounds(*next->Bounds(catalog), *FreshBounds(*next, catalog)));

  // Two-point users under the point count keep kStartOrEnd tables; a
  // four-point user, made of two users' points so the world stays the
  // same, flips a fork to kMbr.
  Rng rng(67);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet two = testing::RandomUsers(&rng, 300, 2, 2, w);
  TrajectorySet extended = two;
  std::vector<Point> joined(two.points(0).begin(), two.points(0).end());
  joined.insert(joined.end(), two.points(1).begin(), two.points(1).end());
  extended.Add(joined);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 12, 8, w);
  const ServiceModel count =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  const FacilityCatalog counts(&facs, count.psi);
  const CellIndex parent(&two, count, true, AllIds(two));
  parent.Bounds(counts);
  ASSERT_EQ(parent.kind(), ZPruneMode::kStartOrEnd);
  const std::unique_ptr<CellIndex> flipped = parent.Fork(&extended);
  ASSERT_EQ(flipped->kind(), ZPruneMode::kMbr);
  ASSERT_FALSE(flipped->has_tables());
  flipped->Insert(300);
  computed = patched = 0;
  flipped->Bounds(counts, &computed, &patched);
  EXPECT_EQ(computed, counts.size());
  flipped->Freeze();
  ASSERT_TRUE(flipped->has_tables());
  computed = patched = 0;
  EXPECT_TRUE(SameBounds(*flipped->Bounds(counts, &computed, &patched),
                         *FreshBounds(*flipped, counts)));
  EXPECT_EQ(computed, counts.size());
  EXPECT_EQ(patched, 0u);
}

// A fork made while reader threads fill, then patch, its parent's memo:
// every reader gets the bits of a fresh index over the parent's
// trajectories, and the fork, written and frozen, gets those of a fresh
// index over its own, whether it inherited the memo or not. TSan runs this.
TEST(BoundsMemo, ForkWhileReadersFillOrPatchTheParentsMemo) {
  const TrajectorySet users = presets::NytTrips(1300);
  const TrajectorySet routes = presets::NyBusRoutes(24, 16);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const FacilityCatalog catalog(&routes, model.psi);
  constexpr int kReaders = 3;
  constexpr int kReads = 20;
  std::vector<uint32_t> first = AllIds(users);
  first.resize(1200);
  // Forks `parent` while the readers read its memo, then writes six
  // inserts of unindexed ids and one remove to the fork and freezes it.
  uint32_t next = 1200;
  const auto race = [&](const CellIndex& parent) {
    const std::shared_ptr<const FacilityBounds> want =
        FreshBounds(parent, catalog);
    std::atomic<int> waiting{kReaders + 1};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        for (int i = 0; i < kReads; ++i) {
          if (!SameBounds(*parent.Bounds(catalog), *want)) failures++;
        }
      });
    }
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
    std::unique_ptr<CellIndex> fork = parent.Fork(&users);
    for (int i = 0; i < 6; ++i) fork->Insert(next++);
    EXPECT_TRUE(fork->Remove(next - 1200));
    fork->Freeze();
    for (auto& th : readers) th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_TRUE(
        SameBounds(*fork->Bounds(catalog), *FreshBounds(*fork, catalog)));
    return fork;
  };
  // Fill: the parent has no memo when the readers start.
  const CellIndex parent(&users, model, true, first);
  const std::unique_ptr<CellIndex> child = race(parent);
  // Patch: the child holds a memo and a log only if it forked after the
  // fill; a grandchild with writes and no read of its own holds the log.
  std::unique_ptr<CellIndex> grandchild = child->Fork(&users);
  for (int i = 0; i < 6; ++i) grandchild->Insert(next++);
  grandchild->Freeze();
  const std::unique_ptr<CellIndex> great = race(*grandchild);
  EXPECT_TRUE(SameBounds(*grandchild->Bounds(catalog),
                         *FreshBounds(*grandchild, catalog)));
}

// Several threads start the first top-k at once, on one frozen tree and on
// one engine, racing the memo fills: each memo is filled exactly once and
// every reader gets the serial answer's bits. TSan runs this suite in CI.
TEST(BoundsMemo, ConcurrentFirstTopKFillsEachMemoOnce) {
  const TrajectorySet users = presets::NytTrips(1200);
  const TrajectorySet routes = presets::NyBusRoutes(24, 16);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  constexpr size_t kShards = 4;
  constexpr size_t kK = 5;
  constexpr int kThreads = 4;
  TQTreeOptions options;
  options.model = model;
  TQTree tree(&users, options);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&routes, model.psi);
  // Neither reference touches the memos under test.
  const std::vector<RankedFacility> want_tree =
      TopKFacilitiesExhaustiveTQ(&tree, catalog, eval, kK).ranked;
  ShardedEngine engine(users, routes, Options(kShards, model));
  ShardedEngine reference(users, routes, Options(kShards, model));
  const std::vector<RankedFacility> want_engine =
      reference.Submit(QueryRequest::TopK(kK)).get().ranked;

  const auto same = [](const std::vector<RankedFacility>& a,
                       const std::vector<RankedFacility>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].id != b[i].id || a[i].value != b[i].value) return false;
    }
    return true;
  };
  std::atomic<int> waiting{kThreads};
  std::vector<size_t> computed(kThreads, 0);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      std::future<QueryResponse> pending =
          engine.Submit(QueryRequest::TopK(kK));
      const TopKResult top = TopKFacilitiesTQ(&tree, catalog, eval, kK);
      computed[t] = top.stats.bounds_computed;
      if (!same(top.ranked, want_tree)) failures[t]++;
      if (!same(pending.get().ranked, want_engine)) failures[t]++;
    });
  }
  for (auto& th : threads) th.join();
  size_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    total += computed[t];
  }
  EXPECT_EQ(total, catalog.size());
  EXPECT_EQ(engine.metrics().Read().bounds_computed, kShards * catalog.size());
}

// ---------------------------------------------------------- top-k answers

// The acceptance sweep on NYF: at every (k, shards) combination the answer
// equals the snapshot oracle bit for bit. Under the integer-valued raw
// point count it also equals the brute-force ranking exactly; under the
// paper's per-user-normalised Scenario 2 the sums are fractional, so the
// snapshot oracle (same per-shard sums, same shard order) is the reference.
// k runs from 1 through |F|/2 and |F| to beyond the catalog, and every
// query runs the bound sweep, however large its k.
TEST(TopKPrune, NyfExactAgreementWithBruteForceRanking) {
  struct Case {
    size_t users;
    size_t facilities;
    std::vector<size_t> ks;
  };
  const std::vector<Case> cases = {
      {1500, 64, {1, 5, 32, 64}},
      {900, 32, {2, 16}},   // k = |F|/2 on a smaller catalog
      {600, 16, {1, 100}},  // k > |F| clamps to the whole catalog
  };
  for (const Case& c : cases) {
    const TrajectorySet users = presets::NyfCheckins(c.users);
    const TrajectorySet routes = presets::NyBusRoutes(c.facilities, 8);
    for (const ServiceModel& model :
         {ServiceModel::PointCount(200.0, Normalization::kNone),
          ServiceModel::PointCount(200.0)}) {
      const bool integral = model.normalization == Normalization::kNone;
      std::vector<std::unique_ptr<ShardedEngine>> engines;
      for (const size_t shards : {1u, 2u, 4u, 8u}) {
        engines.push_back(std::make_unique<ShardedEngine>(
            users, routes, Options(shards, model)));
      }
      for (const size_t k : c.ks) {
        const std::vector<RankedFacility> brute =
            integral ? OracleRanking(users, routes, model, k)
                     : std::vector<RankedFacility>{};
        for (const auto& engine : engines) {
          SCOPED_TRACE("|F|=" + std::to_string(c.facilities) +
                       " model=" + model.ToString() +
                       " k=" + std::to_string(k) +
                       " shards=" + std::to_string(engine->num_shards()));
          const uint64_t rounds = engine->metrics().Read().prune_rounds;
          const QueryResponse got =
              engine->Submit(QueryRequest::TopK(k)).get();
          EXPECT_GT(engine->metrics().Read().prune_rounds, rounds)
              << "the query skipped the bound sweep";
          ExpectSameRanking(got.ranked,
                            SnapshotRanking(*engine->snapshot(), k));
          if (integral) ExpectSameRanking(got.ranked, brute);
        }
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
      ShardedEngine pruned(users, facs, Options(shards, model));
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
// k-th value — strictly fewer than evaluating all facilities × shards,
// with the skipped slots accounted.
TEST(TopKPrune, EvaluatesStrictlyFewerFacilitiesThanExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(1500);
  const TrajectorySet routes = presets::NyBusRoutes(64, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  constexpr size_t kShards = 4;
  constexpr size_t kK = 10;
  ShardedEngine engine(users, routes, Options(kShards, model));
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
      const double ub = shard->cells->CellUpperBound(catalog.grid(f));
      bound[f] += ub;
      if (ub > 0.0) ++positive_slots[f];
      exact[f] += EvaluateServiceCells(*shard->cells, *shard->eval,
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
      << "top-k regressed to evaluating every slot";
  EXPECT_EQ(m.facilities_evaluated + m.facilities_pruned, slots);
  EXPECT_GE(m.prune_rounds, 1u);
}

// No top-k answer is memoised: a repeated top-k reruns its rounds and reads
// every refinement slot from the per-(facility, shard) cache entries, and a
// write batch gives the republished shard new keys, so the next run
// recomputes them (still exact).
TEST(TopKPrune, RepeatedQueryRefinesFromCacheAndRecomputesAfterWrites) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(16, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  ShardedEngine engine(users, routes,
                       Options(4, model, /*cache_capacity=*/2048));

  const QueryResponse first = engine.Submit(QueryRequest::TopK(5)).get();
  EXPECT_FALSE(first.cache_hit);
  const MetricsView before = engine.metrics().Read();
  const QueryResponse second = engine.Submit(QueryRequest::TopK(5)).get();
  const MetricsView after = engine.metrics().Read();
  // The repeat reruns the waves, planned as before, and every slot they
  // evaluate is served from the cache: no miss and no exact check.
  EXPECT_FALSE(second.cache_hit);
  EXPECT_GE(after.prune_rounds - before.prune_rounds, 1u);
  EXPECT_EQ(after.facilities_evaluated - before.facilities_evaluated,
            before.facilities_evaluated);
  EXPECT_EQ(after.cache_misses, before.cache_misses);
  EXPECT_EQ(after.exact_checks, before.exact_checks);
  EXPECT_EQ(after.cache_hits - before.cache_hits,
            after.facilities_evaluated - before.facilities_evaluated);
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
  // The republished shard's slots are new keys: the write is recomputed.
  EXPECT_GT(engine.metrics().Read().cache_misses, after.cache_misses);

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
// a wave, while a writer publishes three batches that insert and remove
// multipoint users (newly inserted ones included): every answer must equal
// the snapshot oracle's ranking of the version it reports. Readers run the
// point-cell filter (thread-local masks over shared tables) on snapshots
// whose forks are taking pending inserts and folding them into rebuilt
// tables. The TSan job runs this.
TEST(TopKPrune, ConcurrentMultiWaveQueriesAcrossAPublish) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(32, 8);
  const ServiceModel model =
      ServiceModel::PointCount(200.0, Normalization::kNone);
  const std::vector<size_t> ks = {1, 3, 6};
  // Batch b removes `removes` global ids and inserts the points of users
  // [next, next + inserts); inserted users take the next global ids.
  std::vector<runtime::UpdateBatch> batches(3);
  uint32_t next = 400;
  const auto fill = [&](runtime::UpdateBatch* batch,
                        std::vector<uint32_t> removes, uint32_t inserts) {
    batch->removes = std::move(removes);
    for (uint32_t i = 0; i < inserts; ++i, ++next) {
      const auto pts = users.points(next);
      batch->inserts.emplace_back(pts.begin(), pts.end());
    }
  };
  const auto range = [](uint32_t from, uint32_t to) {
    std::vector<uint32_t> ids;
    for (uint32_t id = from; id < to; ++id) ids.push_back(id);
    return ids;
  };
  const auto size = static_cast<uint32_t>(users.size());
  fill(&batches[0], range(0, 40), 40);  // new ids size .. size + 39
  std::vector<uint32_t> second = range(40, 60);
  for (uint32_t id = size; id < size + 20; ++id) second.push_back(id);
  fill(&batches[1], std::move(second), 60);  // new ids size + 40 .. + 99
  std::vector<uint32_t> third = range(60, 100);
  for (uint32_t id = size + 40; id < size + 60; ++id) third.push_back(id);
  fill(&batches[2], std::move(third), 40);
  const size_t versions = batches.size() + 1;

  // want[version - 1][i]: the snapshot oracle's answer for ks[i] on a
  // reference engine's snapshot at that version.
  ShardedEngine reference(users, routes, Options(4, model));
  std::vector<std::vector<std::vector<RankedFacility>>> want(versions);
  for (size_t v = 0; v < versions; ++v) {
    if (v > 0) reference.ApplyUpdates(batches[v - 1]);
    const runtime::ShardedSnapshotPtr snap = reference.snapshot();
    ASSERT_EQ(snap->version, v + 1);
    for (const size_t k : ks) want[v].push_back(SnapshotRanking(*snap, k));
  }

  ShardedEngine engine(users, routes, Options(4, model));
  std::atomic<size_t> answered{0};
  std::atomic<bool> published{false};
  std::thread writer([&] {
    for (size_t b = 0; b < batches.size(); ++b) {
      // Let a few answers land between publishes.
      const size_t until = answered.load() + 3;
      while (answered.load() < until) std::this_thread::yield();
      engine.ApplyUpdates(batches[b]);
    }
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
  std::vector<size_t> per_version(versions, 0);
  for (const std::vector<QueryResponse>& responses : got) {
    for (size_t i = 0; i < responses.size(); ++i, ++queries) {
      const QueryResponse& r = responses[i];
      ASSERT_TRUE(r.snapshot_version >= 1 && r.snapshot_version <= versions);
      ++per_version[r.snapshot_version - 1];
      SCOPED_TRACE("version " + std::to_string(r.snapshot_version) +
                   " k=" + std::to_string(ks[i % ks.size()]));
      ExpectSameRanking(r.ranked, want[r.snapshot_version - 1][i % ks.size()]);
    }
  }
  EXPECT_GT(per_version.front(), 0u);
  EXPECT_GT(per_version.back(), 0u);
  // More than two waves per query on average: the coordinator loop ran.
  EXPECT_GT(engine.metrics().Read().prune_rounds, 2 * queries);
}

// The same across publishes on a two-point Scenario 1 world (NYT trips),
// whose trees filter exact checks by both endpoint cell tables: readers mix
// SO and top-k queries, so pool threads mark the both-endpoints mask (and
// its destination scratch) over shared tables while forks take pending
// inserts, de-index users and fold pending inserts into rebuilt tables.
// Every answer equals the snapshot oracle of the version it reports. The
// TSan job runs this.
TEST(TopKPrune, ConcurrentTwoPointSoAndTopKAcrossPublishes) {
  const TrajectorySet users = presets::NytTrips(800);
  const TrajectorySet routes = presets::NyBusRoutes(24, 8);
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  const std::vector<size_t> ks = {1, 4, routes.size()};
  // Batch b removes a run of ids and re-inserts the trips of users
  // [next, next + inserts) under new ids.
  std::vector<runtime::UpdateBatch> batches(3);
  uint32_t next = 300;
  for (size_t b = 0; b < batches.size(); ++b) {
    for (uint32_t id = 40 * static_cast<uint32_t>(b);
         id < 40 * static_cast<uint32_t>(b) + 30; ++id) {
      batches[b].removes.push_back(id);
    }
    for (uint32_t i = 0; i < 50; ++i, ++next) {
      const auto pts = users.points(next);
      batches[b].inserts.emplace_back(pts.begin(), pts.end());
    }
  }
  const size_t versions = batches.size() + 1;

  // Per version: the snapshot oracle's SO of every facility and its
  // ranking for each k.
  ShardedEngine reference(users, routes, Options(4, model));
  std::vector<std::vector<double>> want_so(versions);
  std::vector<std::vector<std::vector<RankedFacility>>> want_top(versions);
  for (size_t v = 0; v < versions; ++v) {
    if (v > 0) reference.ApplyUpdates(batches[v - 1]);
    const runtime::ShardedSnapshotPtr snap = reference.snapshot();
    ASSERT_EQ(snap->version, v + 1);
    const std::vector<RankedFacility> all =
        SnapshotRanking(*snap, routes.size());
    want_so[v].resize(routes.size());
    for (const RankedFacility& rf : all) want_so[v][rf.id] = rf.value;
    for (const size_t k : ks) want_top[v].push_back(SnapshotRanking(*snap, k));
  }

  ShardedEngine engine(users, routes, Options(4, model));
  std::atomic<size_t> answered{0};
  std::atomic<bool> published{false};
  std::thread writer([&] {
    for (const runtime::UpdateBatch& batch : batches) {
      const size_t until = answered.load() + 4;
      while (answered.load() < until) std::this_thread::yield();
      engine.ApplyUpdates(batch);
    }
    published.store(true);
  });
  // Query i of reader r: top-k for ks[i % 3] on odd i, else the SO of a
  // facility that walks the catalog.
  const auto request = [&](size_t r, size_t i) {
    if (i % 2 == 1) return QueryRequest::TopK(ks[(i / 2) % ks.size()]);
    return QueryRequest::ServiceValue(
        static_cast<FacilityId>((7 * r + i) % routes.size()));
  };
  std::vector<std::vector<QueryResponse>> got(3);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < got.size(); ++r) {
    readers.emplace_back([&, r] {
      for (size_t i = 0, after = 0; after < 2 * ks.size(); ++i) {
        const bool late = published.load();
        got[r].push_back(engine.Submit(request(r, i)).get());
        answered.fetch_add(1);
        if (late) ++after;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  std::vector<size_t> per_version(versions, 0);
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t i = 0; i < got[r].size(); ++i) {
      const QueryResponse& resp = got[r][i];
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_TRUE(resp.snapshot_version >= 1 &&
                  resp.snapshot_version <= versions);
      const size_t v = resp.snapshot_version - 1;
      ++per_version[v];
      const QueryRequest req = request(r, i);
      SCOPED_TRACE("version " + std::to_string(v + 1) + " query " +
                   std::to_string(i));
      if (req.kind == runtime::QueryKind::kTopK) {
        ExpectSameRanking(resp.ranked,
                          want_top[v][(i / 2) % ks.size()]);
      } else {
        EXPECT_EQ(resp.value, want_so[v][req.facility])
            << "facility " << req.facility;
      }
    }
  }
  EXPECT_GT(per_version.front(), 0u);
  EXPECT_GT(per_version.back(), 0u);
}

// ------------------------------------------------------------- edge cases

TEST(TopKPrune, DegenerateRequestsStayExact) {
  Rng rng(71);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 4, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 5, 6, w);
  const ServiceModel model =
      ServiceModel::PointCount(300.0, Normalization::kNone);
  ShardedEngine engine(users, facs, Options(8, model));

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
  ShardedEngine sparse(few, facs, Options(8, model));
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

// An engine configured with segmented trees still serves from whole-
// trajectory cell indexes (the engine reads only the model): its top-k must
// match the snapshot oracle, fractional per-user models included.
TEST(TopKPrune, SegmentedModeAgreesWithExhaustive) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(24, 8);
  for (const ServiceModel& model :
       {ServiceModel::PointCount(200.0, Normalization::kNone),
        ServiceModel::PointCount(200.0, Normalization::kPerUser),
        ServiceModel::Length(200.0, Normalization::kPerUser)}) {
    for (const size_t shards : {1u, 4u}) {
      ShardedEngineOptions so = Options(shards, model);
      so.tree.mode = TrajMode::kSegmented;
      ShardedEngine engine(users, routes, so);
      SCOPED_TRACE(model.ToString() + " shards=" + std::to_string(shards));
      ExpectSameRanking(engine.Submit(QueryRequest::TopK(6)).get().ranked,
                        SnapshotRanking(*engine.snapshot(), 6));
    }
  }
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
      runtime::CompleteFacilities(parts, exact, known, num_fac), k);
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
          runtime::CompleteFacilities(parts, exact, known, num_fac), 99),
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
