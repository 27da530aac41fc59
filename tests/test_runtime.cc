// Tests for the concurrent query runtime (src/runtime/): thread pool, result
// cache, cell-index forks, and — most importantly — that N concurrent Submits
// to a one-shard ShardedEngine agree with the serial evaluators and that a
// snapshot publish mid-stream never produces a torn read. Run this binary
// under -fsanitize=thread (cmake -DTQ_SANITIZE=thread) to verify the
// lock-free reader claim; CI's Debug job does.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "query/eval_service.h"
#include "runtime/result_cache.h"
#include "runtime/sharded_engine.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace tq {
namespace {

using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ResultCache;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::ThreadPool;
using runtime::UpdateBatch;

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.Post([&done]() { done.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, SubmitReturnsFutureValues) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 50; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i) pool.Post([&done]() { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ResultCache, HitAfterPutAndLruEviction) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  const ResultCache::Key a{1, 7}, b{2, 7}, c{3, 7};
  double v = 0.0;
  EXPECT_FALSE(cache.Get(a, &v));
  cache.Put(a, 1.5);
  cache.Put(b, 2.5);
  ASSERT_TRUE(cache.Get(a, &v));  // refreshes a; b becomes LRU
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_EQ(cache.Put(c, 3.5), 1u);  // evicts b
  EXPECT_FALSE(cache.Get(b, &v));
  EXPECT_TRUE(cache.Get(a, &v));
  EXPECT_TRUE(cache.Get(c, &v));
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put(ResultCache::Key{1, 1}, 1.0);
  double v = 0.0;
  EXPECT_FALSE(cache.Get(ResultCache::Key{1, 1}, &v));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CellIndexFork, ForkAnswersIdenticallyAndIsIndependent) {
  Rng rng(71);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet base = testing::RandomUsers(&rng, 300, 2, 5, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 8, w);
  const ServiceModel model = ServiceModel::PointCount(250.0);
  const CellIndex original(&base, model, /*tables=*/true, AllIds(base));

  // Fork against an extended copy of the user set, then insert the new
  // trajectory into the fork only — the engine writer's exact moves.
  TrajectorySet extended = base;
  std::vector<Point> extra;
  for (int i = 0; i < 4; ++i) {
    extra.push_back(Point{5000.0 + 100.0 * i, 5000.0});
  }
  const uint32_t new_id = extended.Add(extra);
  std::unique_ptr<CellIndex> fork = original.Fork(&extended);
  ASSERT_NE(fork, nullptr);
  EXPECT_EQ(fork->IndexedTrajectories(), original.IndexedTrajectories());

  const ServiceEvaluator eval_base(&base, model);
  const ServiceEvaluator eval_ext(&extended, model);
  const FacilityCatalog catalog(&facs, model.psi);
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    EXPECT_DOUBLE_EQ(
        EvaluateServiceCells(original, eval_base, catalog.grid(f)),
        EvaluateServiceCells(*fork, eval_ext, catalog.grid(f)));
  }

  fork->Insert(new_id);
  fork->Freeze();
  EXPECT_EQ(fork->IndexedTrajectories().size(), base.size() + 1);
  EXPECT_EQ(fork->num_pending(), 1u);
  EXPECT_EQ(original.IndexedTrajectories().size(), base.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    // The fork now reflects the extended set; the original is untouched.
    EXPECT_NEAR(EvaluateServiceCells(*fork, eval_ext, catalog.grid(f)),
                testing::BruteForceSO(extended, facs.points(f), model), 1e-6);
    EXPECT_NEAR(EvaluateServiceCells(original, eval_base, catalog.grid(f)),
                testing::BruteForceSO(base, facs.points(f), model), 1e-6);
  }
}

// ------------------------------------------------ one-shard ShardedEngine

struct EngineWorld {
  TrajectorySet users;
  TrajectorySet facilities;
  ServiceModel model = ServiceModel::PointCount(300.0);

  static EngineWorld Make(uint64_t seed, size_t num_users, size_t num_facs) {
    Rng rng(seed);
    const Rect w = Rect::Of(0, 0, 20000, 20000);
    return EngineWorld{testing::RandomUsers(&rng, num_users, 2, 5, w),
                       testing::RandomFacilities(&rng, num_facs, 8, w)};
  }

  ShardedEngineOptions Options(size_t threads,
                               size_t cache_capacity = 1024) const {
    ShardedEngineOptions eo;
    eo.num_shards = 1;
    eo.num_threads = threads;
    eo.cache_capacity = cache_capacity;
    eo.tree.beta = 16;
    eo.tree.model = model;
    return eo;
  }
};

TEST(OneShardEngine, ConcurrentSubmitsAgreeWithSerialEvaluation) {
  EngineWorld world = EngineWorld::Make(901, 400, 16);

  // Serial reference: the same tree configuration, evaluated inline.
  TQTreeOptions opt;
  opt.beta = 16;
  opt.model = world.model;
  TQTree serial_tree(&world.users, opt);
  const ServiceEvaluator serial_eval(&world.users, world.model);
  const FacilityCatalog serial_catalog(&world.facilities, world.model.psi);
  std::vector<double> expected(serial_catalog.size());
  for (uint32_t f = 0; f < serial_catalog.size(); ++f) {
    expected[f] =
        EvaluateServiceTQ(&serial_tree, serial_eval, serial_catalog.grid(f));
  }

  ShardedEngine engine(world.users, world.facilities, world.Options(8));
  std::vector<QueryRequest> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (uint32_t f = 0; f < serial_catalog.size(); ++f) {
      batch.push_back(QueryRequest::ServiceValue(f));
    }
  }
  const std::vector<QueryResponse> responses = engine.RunBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  // The shard is a cell index with point-cell tables: an evaluation visits
  // no node and exact-checks each bit of the facility's mask once.
  size_t want_checks = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].snapshot_version, 1u);
    EXPECT_DOUBLE_EQ(responses[i].value, expected[batch[i].facility]);
    if (responses[i].cache_hit) continue;
    const StopGrid& grid = serial_catalog.grid(batch[i].facility);
    std::vector<uint64_t> mask;
    ASSERT_TRUE(
        serial_tree.cells().MarkCandidates(grid.stops(), grid.psi(), &mask));
    for (const uint64_t word : mask) want_checks += std::popcount(word);
  }
  // Second pass over the same facilities: all cache hits, same answers.
  const std::vector<QueryResponse> again = engine.RunBatch(batch);
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_TRUE(again[i].cache_hit);
    EXPECT_DOUBLE_EQ(again[i].value, expected[batch[i].facility]);
  }
  const runtime::MetricsView m = engine.metrics().Read();
  EXPECT_GE(m.cache_hits, batch.size());
  EXPECT_EQ(m.queries_total, 2 * batch.size());
  EXPECT_EQ(m.exact_checks, want_checks);
}

TEST(OneShardEngine, OutOfRangeFacilityReturnsErrorNotCrash) {
  EngineWorld world = EngineWorld::Make(902, 80, 4);
  ShardedEngine engine(world.users, world.facilities, world.Options(2));
  const QueryResponse bad =
      engine.Submit(QueryRequest::ServiceValue(999)).get();
  EXPECT_FALSE(bad.status.ok());
  EXPECT_EQ(bad.status.code(), StatusCode::kOutOfRange);
  // The engine keeps serving after the rejected request.
  const QueryResponse good =
      engine.Submit(QueryRequest::ServiceValue(0)).get();
  EXPECT_TRUE(good.status.ok());
  EXPECT_EQ(good.snapshot_version, 1u);
}

TEST(OneShardEngine, TopKMatchesSerialBestFirst) {
  EngineWorld world = EngineWorld::Make(903, 300, 12);
  TQTreeOptions opt;
  opt.beta = 16;
  opt.model = world.model;
  TQTree serial_tree(&world.users, opt);
  const ServiceEvaluator serial_eval(&world.users, world.model);
  const FacilityCatalog serial_catalog(&world.facilities, world.model.psi);
  const TopKResult expected =
      TopKFacilitiesTQ(&serial_tree, serial_catalog, serial_eval, 5);

  ShardedEngine engine(world.users, world.facilities, world.Options(4));
  const std::vector<QueryResponse> responses =
      engine.RunBatch(std::vector<QueryRequest>(8, QueryRequest::TopK(5)));
  for (const QueryResponse& response : responses) {
    ASSERT_EQ(response.ranked.size(), expected.ranked.size());
    for (size_t i = 0; i < expected.ranked.size(); ++i) {
      EXPECT_EQ(response.ranked[i].id, expected.ranked[i].id);
      EXPECT_DOUBLE_EQ(response.ranked[i].value, expected.ranked[i].value);
    }
  }
}

TEST(OneShardEngine, ApplyUpdatesPublishesNewVersionWithCorrectValues) {
  EngineWorld world = EngineWorld::Make(905, 250, 10);
  ShardedEngine engine(world.users, world.facilities, world.Options(4));
  EXPECT_EQ(engine.snapshot()->version, 1u);

  // Keep a pre-update snapshot alive across the publish (reader isolation).
  const runtime::ShardedSnapshotPtr old_snap = engine.snapshot();
  const runtime::ShardState& old_shard = *old_snap->shards[0];

  UpdateBatch batch;
  Rng rng(907);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet extra = testing::RandomUsers(&rng, 30, 2, 5, w);
  for (uint32_t t = 0; t < extra.size(); ++t) {
    const auto pts = extra.points(t);
    batch.inserts.emplace_back(pts.begin(), pts.end());
  }
  batch.removes = {0, 1, 2};
  const std::vector<uint32_t> new_ids = engine.ApplyUpdates(batch);
  ASSERT_EQ(new_ids.size(), extra.size());
  EXPECT_EQ(new_ids.front(), world.users.size());
  EXPECT_EQ(engine.snapshot()->version, 2u);

  // Expected post-update values: brute force over the surviving + inserted
  // trajectories (an oracle independent of every index structure).
  TrajectorySet active;
  for (uint32_t u = 3; u < world.users.size(); ++u) {
    const auto pts = world.users.points(u);
    active.Add(pts);
  }
  for (uint32_t t = 0; t < extra.size(); ++t) active.Add(extra.points(t));

  for (uint32_t f = 0; f < world.facilities.size(); ++f) {
    const QueryResponse response =
        engine.Submit(QueryRequest::ServiceValue(f)).get();
    EXPECT_EQ(response.snapshot_version, 2u);
    EXPECT_NEAR(response.value,
                testing::BruteForceSO(active, world.facilities.points(f),
                                      world.model),
                1e-6)
        << "facility " << f;
  }

  // The retained snapshot still answers with pre-update state.
  for (uint32_t f = 0; f < world.facilities.size(); ++f) {
    EXPECT_NEAR(EvaluateServiceCells(*old_shard.cells, *old_shard.eval,
                                     old_snap->catalog->grid(f)),
                testing::BruteForceSO(world.users,
                                      world.facilities.points(f), world.model),
                1e-6);
  }
  const runtime::MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.snapshots_published, 2u);
  EXPECT_EQ(m.trajectories_inserted, extra.size());
  EXPECT_EQ(m.trajectories_removed, 3u);
}

// The satellite-mandated stress test: reader threads hammer Submit while the
// writer publishes snapshots mid-stream. Every response must exactly match
// the serial value for the snapshot version it reports — a torn read (some
// mix of two versions) cannot satisfy that.
TEST(OneShardEngine, PublishMidStreamNeverTearsReads) {
  EngineWorld world = EngineWorld::Make(909, 200, 8);
  constexpr size_t kReaderThreads = 4;
  constexpr size_t kQueriesPerReader = 120;
  constexpr size_t kUpdateBatches = 5;
  constexpr size_t kInsertsPerBatch = 25;

  // Pre-generate every update deterministically so the per-version user sets
  // can be reconstructed for the oracle afterwards.
  Rng rng(911);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  std::vector<TrajectorySet> batch_inserts;
  for (size_t b = 0; b < kUpdateBatches; ++b) {
    batch_inserts.push_back(
        testing::RandomUsers(&rng, kInsertsPerBatch, 2, 5, w));
  }
  // Batch b removes user id b (of the initial set).
  ShardedEngine engine(world.users, world.facilities,
                       world.Options(kReaderThreads));

  std::vector<std::vector<QueryResponse>> collected(kReaderThreads);
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (size_t r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&engine, &collected, r]() {
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        const auto f = static_cast<FacilityId>((r + q) % 8);
        collected[r].push_back(
            engine.Submit(QueryRequest::ServiceValue(f)).get());
      }
    });
  }
  // Main-thread queries bracket the writer loop: these are guaranteed to see
  // the first and the last version, so both extremes go through the oracle
  // check below no matter how the reader threads get scheduled.
  std::vector<QueryResponse> bracket;
  for (FacilityId f = 0; f < 8; ++f) {
    bracket.push_back(engine.Submit(QueryRequest::ServiceValue(f)).get());
    EXPECT_EQ(bracket.back().snapshot_version, 1u);
  }
  for (size_t b = 0; b < kUpdateBatches; ++b) {
    UpdateBatch batch;
    for (uint32_t t = 0; t < batch_inserts[b].size(); ++t) {
      const auto pts = batch_inserts[b].points(t);
      batch.inserts.emplace_back(pts.begin(), pts.end());
    }
    batch.removes = {static_cast<uint32_t>(b)};
    engine.ApplyUpdates(batch);
  }
  for (FacilityId f = 0; f < 8; ++f) {
    bracket.push_back(engine.Submit(QueryRequest::ServiceValue(f)).get());
    EXPECT_EQ(bracket.back().snapshot_version, kUpdateBatches + 1);
  }
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(engine.snapshot()->version, kUpdateBatches + 1);

  // Oracle: rebuild the active user set of every version and brute-force
  // each facility's value.
  std::vector<std::vector<double>> expected;  // [version - 1][facility]
  for (size_t version = 1; version <= kUpdateBatches + 1; ++version) {
    const size_t applied = version - 1;
    TrajectorySet active;
    for (uint32_t u = 0; u < world.users.size(); ++u) {
      if (u < applied) continue;  // removed by batch u
      active.Add(world.users.points(u));
    }
    for (size_t b = 0; b < applied; ++b) {
      for (uint32_t t = 0; t < batch_inserts[b].size(); ++t) {
        active.Add(batch_inserts[b].points(t));
      }
    }
    std::vector<double> per_fac(world.facilities.size());
    for (uint32_t f = 0; f < world.facilities.size(); ++f) {
      per_fac[f] = testing::BruteForceSO(active, world.facilities.points(f),
                                         world.model);
    }
    expected.push_back(std::move(per_fac));
  }

  size_t checked = 0;
  const auto check = [&](const QueryResponse& response, FacilityId f) {
    ASSERT_GE(response.snapshot_version, 1u);
    ASSERT_LE(response.snapshot_version, kUpdateBatches + 1);
    EXPECT_NEAR(response.value, expected[response.snapshot_version - 1][f],
                1e-6)
        << "torn read: facility " << f << " at version "
        << response.snapshot_version;
    ++checked;
  };
  for (size_t r = 0; r < kReaderThreads; ++r) {
    for (size_t q = 0; q < collected[r].size(); ++q) {
      check(collected[r][q], static_cast<FacilityId>((r + q) % 8));
    }
  }
  for (size_t i = 0; i < bracket.size(); ++i) {
    check(bracket[i], static_cast<FacilityId>(i % 8));
  }
  EXPECT_EQ(checked, kReaderThreads * kQueriesPerReader + bracket.size());
}

}  // namespace
}  // namespace tq
