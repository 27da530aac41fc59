// Tests for the durability subsystem (src/storage) and its ShardedEngine
// wiring: WAL framing / rotation / trim / torn-tail semantics, the
// crash-recovery kill-point matrix (recover = rebuild the checkpoint's trees
// + replay WAL, bit-identical to the uninterrupted engine), the checkpoint
// files' damage checks, checkpoints that leave the live snapshot and its
// bounds memos alone, and the protocol-v2 surfaces the subsystem rides on
// (EncodeUpdateBody, kStatus durability block).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/protocol.h"
#include "query/eval_service.h"
#include "runtime/sharded_engine.h"
#include "storage/checkpoint.h"
#include "storage/durability.h"
#include "storage/wal.h"
#include "test_util.h"

namespace tq {
namespace {

using runtime::QueryRequest;
using runtime::QueryResponse;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;
using runtime::UpdateBatch;
using storage::ListWalSegments;
using storage::ReplayWal;
using storage::TrimWalSegments;
using storage::WalOptions;
using storage::WalReplayStats;
using storage::WalSync;
using storage::WalWriter;

// Fresh (deleted-if-present) directory under the system temp dir.
std::string TempDir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("tq_durability_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

void Corrupt(const std::string& path, uint64_t offset_from_end) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<uint64_t>(f.tellg());
  ASSERT_GT(size, offset_from_end);
  f.seekp(static_cast<std::streamoff>(size - 1 - offset_from_end));
  char byte = 0;
  f.seekg(f.tellp());
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(size - 1 - offset_from_end));
  f.write(&byte, 1);
}

// ------------------------------------------------------------------- WAL

TEST(Wal, RoundTripRotationAndTrim) {
  const std::string dir = TempDir("wal_roundtrip");
  WalOptions options;
  options.sync = WalSync::kOff;
  options.segment_bytes = 1;  // every record rotates into its own segment
  {
    auto writer = WalWriter::Open(dir, 1, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t lsn = 1; lsn <= 8; ++lsn) {
      ASSERT_TRUE(
          (*writer)->Append(lsn, "payload-" + std::to_string(lsn)).ok());
    }
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*segments)[i].first_lsn, i + 1);
  }

  std::vector<std::pair<uint64_t, std::string>> seen;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(dir, 0,
                        [&](uint64_t lsn, std::string_view payload) {
                          seen.emplace_back(lsn, std::string(payload));
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 8u);
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.last_lsn, 8u);
  EXPECT_FALSE(stats.torn_tail);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, "payload-" + std::to_string(i + 1));
  }

  // Replay respects after_lsn: already-applied records are skipped.
  seen.clear();
  ASSERT_TRUE(ReplayWal(dir, 5,
                        [&](uint64_t lsn, std::string_view payload) {
                          seen.emplace_back(lsn, std::string(payload));
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.front().first, 6u);

  // Trim drops exactly the segments fully covered by keep_lsn = 5; the
  // surviving log still replays 6..8.
  auto trimmed = TrimWalSegments(dir, 5);
  ASSERT_TRUE(trimmed.ok());
  EXPECT_GT(*trimmed, 0u);
  segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ(segments->front().first_lsn, 6u);
  seen.clear();
  ASSERT_TRUE(ReplayWal(dir, 5,
                        [&](uint64_t lsn, std::string_view payload) {
                          seen.emplace_back(lsn, std::string(payload));
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Wal, TornTailEndsReplayAndIsTruncatedOnReopen) {
  const std::string dir = TempDir("wal_torn");
  WalOptions options;
  options.sync = WalSync::kOff;  // one big segment
  {
    auto writer = WalWriter::Open(dir, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(1, "aaaa").ok());
    ASSERT_TRUE((*writer)->Append(2, "bbbb").ok());
    ASSERT_TRUE((*writer)->Append(3, "cccc").ok());
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string path = segments->front().path;
  // SIGKILL mid-append: the last record loses its tail.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 2);

  std::vector<uint64_t> lsns;
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(dir, 0,
                        [&](uint64_t lsn, std::string_view) {
                          lsns.push_back(lsn);
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.last_lsn, 2u);

  // Reopen truncates the torn tail and keeps appending to the SAME segment;
  // the rewritten lsn 3 replays cleanly.
  {
    auto writer = WalWriter::Open(dir, 3, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append(3, "dddd").ok());
  }
  std::vector<std::pair<uint64_t, std::string>> seen;
  ASSERT_TRUE(ReplayWal(dir, 0,
                        [&](uint64_t lsn, std::string_view payload) {
                          seen.emplace_back(lsn, std::string(payload));
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(seen.back().first, 3u);
  EXPECT_EQ(seen.back().second, "dddd");
}

TEST(Wal, MidSegmentCorruptionIsAHardErrorNeverASilentSkip) {
  const std::string dir = TempDir("wal_corrupt");
  WalOptions options;
  options.sync = WalSync::kOff;
  options.segment_bytes = 1;  // one record per segment
  {
    auto writer = WalWriter::Open(dir, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(1, "aaaa").ok());
    ASSERT_TRUE((*writer)->Append(2, "bbbb").ok());
    ASSERT_TRUE((*writer)->Append(3, "cccc").ok());
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 3u);
  // Damage a NON-last segment's payload: that is corruption, not a crash
  // artifact, and replay must refuse rather than resurrect a partial state.
  Corrupt(segments->front().path, 0);
  WalReplayStats stats;
  const Status st = ReplayWal(
      dir, 0, [](uint64_t, std::string_view) { return Status::OK(); },
      &stats);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
}

// -------------------------------------------------------- protocol v2

TEST(Protocol, UpdateBodyRoundTripsAndRejectsDamage) {
  const std::vector<std::vector<Point>> inserts = {
      {Point{1.5, 2.5}, Point{3.25, 4.75}}, {Point{100.0, 200.0}}};
  const std::vector<uint32_t> removes = {7, 42};
  std::string body;
  net::EncodeUpdateBody(inserts, removes, &body);

  std::vector<std::vector<Point>> got_inserts;
  std::vector<uint32_t> got_removes;
  ASSERT_TRUE(net::DecodeUpdateBody(body, &got_inserts, &got_removes).ok());
  ASSERT_EQ(got_inserts.size(), 2u);
  ASSERT_EQ(got_inserts[0].size(), 2u);
  EXPECT_EQ(got_inserts[0][1].x, 3.25);
  EXPECT_EQ(got_inserts[0][1].y, 4.75);
  EXPECT_EQ(got_inserts[1][0].x, 100.0);
  EXPECT_EQ(got_removes, removes);

  // Trailing bytes mean a framing bug somewhere — reject, don't ignore.
  std::string trailing = body;
  trailing.push_back('\0');
  EXPECT_FALSE(
      net::DecodeUpdateBody(trailing, &got_inserts, &got_removes).ok());
  // Empty trajectories can never be routed (no first point).
  std::string empty_traj;
  net::EncodeUpdateBody({{}}, {}, &empty_traj);
  EXPECT_FALSE(
      net::DecodeUpdateBody(empty_traj, &got_inserts, &got_removes).ok());
  // Truncation at any boundary is an error, not a short decode.
  EXPECT_FALSE(net::DecodeUpdateBody(std::string_view(body).substr(
                                         0, body.size() - 3),
                                     &got_inserts, &got_removes)
                   .ok());
}

TEST(Protocol, StatusFrameCarriesDurabilityBlock) {
  net::NetResponse original;
  original.type = net::MessageType::kStatus;
  original.status = Status::OK();
  original.snapshot_version = 9;
  original.worker_info.num_shards = 4;
  original.worker_info.owned_begin = 0;
  original.worker_info.owned_end = 4;
  original.worker_info.psi = 300.0;
  original.worker_info.num_facilities = 12;
  original.worker_info.users_total = 372;
  original.durability.flags = 1 | 2 | 4;
  original.durability.checkpoint_lsn = 12;
  original.durability.last_lsn = 34;
  original.durability.replayed_batches = 5;
  original.durability.recovery_ns = 2'500'000;

  std::string wire;
  net::EncodeResponse(original, &wire);
  net::NetResponse decoded;
  ASSERT_TRUE(
      net::DecodeResponse(wire.substr(net::kFrameHeaderBytes), &decoded)
          .ok());
  EXPECT_TRUE(decoded.durability.durable());
  EXPECT_TRUE(decoded.durability.recovered());
  EXPECT_TRUE(decoded.durability.wal_torn_tail());
  EXPECT_EQ(decoded.durability.checkpoint_lsn, 12u);
  EXPECT_EQ(decoded.durability.last_lsn, 34u);
  EXPECT_EQ(decoded.durability.replayed_batches, 5u);
  EXPECT_EQ(decoded.durability.recovery_ns, 2'500'000u);

  const std::string json = net::WireStatusToJson(
      decoded.worker_info, decoded.workers, decoded.durability);
  EXPECT_NE(json.find("\"durability\":{\"durable\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"checkpoint_lsn\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"replayed_batches\":5"), std::string::npos) << json;
}

// ------------------------------------------------- engine crash recovery

// Flattened query surface compared bit-exactly between engines: every
// facility's service value plus a full top-k ranking.
struct AnswerSurface {
  std::vector<double> values;
  std::vector<std::pair<uint32_t, double>> ranked;
};

AnswerSurface Answers(ShardedEngine* engine, uint32_t num_facilities) {
  std::vector<QueryRequest> batch;
  for (uint32_t f = 0; f < num_facilities; ++f) {
    batch.push_back(QueryRequest::ServiceValue(f));
  }
  batch.push_back(QueryRequest::TopK(5));
  const std::vector<QueryResponse> responses = engine->RunBatch(batch);
  AnswerSurface out;
  for (uint32_t f = 0; f < num_facilities; ++f) {
    EXPECT_TRUE(responses[f].status.ok());
    out.values.push_back(responses[f].value);
  }
  for (const RankedFacility& r : responses.back().ranked) {
    out.ranked.emplace_back(r.id, r.value);
  }
  return out;
}

// EXPECT_EQ on double is exact comparison — recovery replays the SAME
// batches through the SAME partition in the same order, so every FP
// operation reruns identically and == is the honest assert.
void ExpectBitIdentical(const AnswerSurface& got, const AnswerSurface& want) {
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t i = 0; i < want.values.size(); ++i) {
    EXPECT_EQ(got.values[i], want.values[i]) << "facility " << i;
  }
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (size_t i = 0; i < want.ranked.size(); ++i) {
    EXPECT_EQ(got.ranked[i].first, want.ranked[i].first) << "rank " << i;
    EXPECT_EQ(got.ranked[i].second, want.ranked[i].second) << "rank " << i;
  }
}

ShardedEngineOptions DurableOptions(const std::string& data_dir,
                                    WalSync sync = WalSync::kAlways) {
  ShardedEngineOptions o;
  o.num_shards = 4;
  o.num_threads = 4;
  o.cache_capacity = 1024;
  o.tree.beta = 16;
  o.tree.model = ServiceModel::PointCount(300.0);
  o.durability.data_dir = data_dir;
  o.durability.wal_sync = sync;
  return o;
}

struct Workload {
  TrajectorySet users;
  TrajectorySet facilities;
  std::vector<UpdateBatch> batches;
};

Workload MakeWorkload(uint64_t seed, size_t num_batches) {
  Rng rng(seed);
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  Workload wl;
  wl.users = testing::RandomUsers(&rng, 300, 2, 5, w);
  wl.facilities = testing::RandomFacilities(&rng, 8, 8, w);
  uint32_t next_remove = 0;
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch batch;
    const TrajectorySet extra = testing::RandomUsers(&rng, 10, 2, 5, w);
    for (uint32_t t = 0; t < extra.size(); ++t) {
      const auto pts = extra.points(t);
      batch.inserts.emplace_back(pts.begin(), pts.end());
    }
    batch.removes = {next_remove, next_remove + 1};
    next_remove += 2;
    wl.batches.push_back(std::move(batch));
  }
  return wl;
}

// The kill-point matrix: crash with (a) all state still in the WAL, (b) a
// checkpoint covering everything, (c) a checkpoint plus trailing WAL
// records. In every case the recovered engine must be bit-identical to an
// engine that never crashed — same snapshot version, same per-shard
// generations, same answers to the last FP bit. `sync` is the victim's
// --wal-sync policy; every policy writes each record before its publish, so
// all of them survive a process kill (only power loss tells them apart).
void RunKillPointScenario(const std::string& name, size_t checkpoint_after,
                          uint64_t expect_checkpoint_lsn,
                          uint64_t expect_replayed,
                          WalSync sync = WalSync::kAlways) {
  const std::string dir = TempDir("kill_" + name);
  const Workload wl = MakeWorkload(/*seed=*/97, /*num_batches=*/4);
  const uint32_t nf = static_cast<uint32_t>(wl.facilities.size());

  ShardedEngineOptions reference_options = DurableOptions("");
  reference_options.durability = storage::DurabilityOptions{};
  ShardedEngine reference(wl.users, wl.facilities, reference_options);
  for (const UpdateBatch& batch : wl.batches) {
    reference.ApplyUpdates(batch);
  }
  const AnswerSurface expected = Answers(&reference, nf);

  {
    ShardedEngine victim(wl.users, wl.facilities, DurableOptions(dir, sync));
    for (size_t b = 0; b < wl.batches.size(); ++b) {
      victim.ApplyUpdates(wl.batches[b]);
      if (checkpoint_after == b + 1) {
        ASSERT_TRUE(victim.Checkpoint().ok());
      }
    }
    const runtime::MetricsView m = victim.metrics().Read();
    EXPECT_EQ(m.wal_appends, wl.batches.size()) << name;
    EXPECT_GT(m.wal_bytes, 0u) << name;
    EXPECT_GE(m.checkpoints, 1u) << name;
    // Destroyed here WITHOUT a final checkpoint: everything after
    // checkpoint_after lives only in the WAL, exactly like a SIGKILL
    // (the WAL write(2)s each batch before its publish).
  }

  auto recovered = ShardedEngine::Recover(DurableOptions(dir, sync));
  ASSERT_TRUE(recovered.ok()) << name << ": " << recovered.status().ToString();
  ShardedEngine* engine = recovered->get();

  const storage::RecoveryInfo info = engine->recovery_info();
  EXPECT_TRUE(info.durable) << name;
  EXPECT_TRUE(info.recovered) << name;
  EXPECT_FALSE(info.wal_torn_tail) << name;
  EXPECT_EQ(info.checkpoint_lsn, expect_checkpoint_lsn) << name;
  EXPECT_EQ(info.replayed_batches, expect_replayed) << name;
  EXPECT_EQ(info.last_lsn, reference.snapshot_version()) << name;

  EXPECT_EQ(engine->snapshot_version(), reference.snapshot_version()) << name;
  EXPECT_EQ(engine->shard_generations(), reference.shard_generations())
      << name;
  EXPECT_EQ(engine->NumUsersTotal(), reference.NumUsersTotal()) << name;
  EXPECT_EQ(engine->metrics().Read().wal_replayed, expect_replayed) << name;
  ExpectBitIdentical(Answers(engine, nf), expected);

  // The recovered engine is a full engine: it keeps logging, and a second
  // crash-free recovery sees the post-recovery batch too.
  UpdateBatch extra_batch;
  extra_batch.removes = {20};
  engine->ApplyUpdates(extra_batch);
  const AnswerSurface after_extra = Answers(engine, nf);
  const uint64_t version_after = engine->snapshot_version();
  recovered->reset();

  auto again = ShardedEngine::Recover(DurableOptions(dir, sync));
  ASSERT_TRUE(again.ok()) << name << ": " << again.status().ToString();
  EXPECT_EQ((*again)->snapshot_version(), version_after) << name;
  ExpectBitIdentical(Answers(again->get(), nf), after_extra);
}

TEST(CrashRecovery, WalOnly) {
  // No manual checkpoint: only the initial one (LSN 1); all 4 batches replay.
  RunKillPointScenario("wal_only", /*checkpoint_after=*/0,
                       /*expect_checkpoint_lsn=*/1, /*expect_replayed=*/4);
}

TEST(CrashRecovery, WalOnlyUnderBatchAndOffSync) {
  // The same WAL-only kill point under the two relaxed policies: kBatch
  // (fsync on the background tick) and kOff (never fsync).
  RunKillPointScenario("wal_only_batch", /*checkpoint_after=*/0,
                       /*expect_checkpoint_lsn=*/1, /*expect_replayed=*/4,
                       WalSync::kBatch);
  RunKillPointScenario("wal_only_off", /*checkpoint_after=*/0,
                       /*expect_checkpoint_lsn=*/1, /*expect_replayed=*/4,
                       WalSync::kOff);
}

TEST(CrashRecovery, CheckpointCoversEverything) {
  // Checkpoint after batch 4 (version 5): recovery replays nothing.
  RunKillPointScenario("post_checkpoint", /*checkpoint_after=*/4,
                       /*expect_checkpoint_lsn=*/5, /*expect_replayed=*/0);
}

TEST(CrashRecovery, CheckpointPlusTrailingWal) {
  // Checkpoint after batch 2 (version 3): batches 3 and 4 replay from WAL.
  RunKillPointScenario("mixed", /*checkpoint_after=*/2,
                       /*expect_checkpoint_lsn=*/3, /*expect_replayed=*/2);
}

TEST(CrashRecovery, TornWalTailIsTruncatedNotFatal) {
  const std::string dir = TempDir("torn_tail");
  const Workload wl = MakeWorkload(/*seed=*/131, /*num_batches=*/3);
  const uint32_t nf = static_cast<uint32_t>(wl.facilities.size());
  {
    ShardedEngine victim(wl.users, wl.facilities, DurableOptions(dir));
    for (const UpdateBatch& batch : wl.batches) {
      victim.ApplyUpdates(batch);
    }
  }
  // Tear the tail of the last WAL record (the crash hit mid-append).
  auto segments = ListWalSegments(storage::WalDir(dir));
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  const std::string& last = segments->back().path;
  std::filesystem::resize_file(last, std::filesystem::file_size(last) - 3);

  auto recovered = ShardedEngine::Recover(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const storage::RecoveryInfo info = (*recovered)->recovery_info();
  EXPECT_TRUE(info.wal_torn_tail);
  EXPECT_EQ(info.replayed_batches, 2u);  // batch 3's record was torn
  EXPECT_EQ((*recovered)->snapshot_version(), 3u);  // v1 + 2 replayed

  // The un-acknowledged batch is simply not there; re-applying it lands the
  // engine exactly where the uninterrupted run would be.
  ShardedEngineOptions reference_options = DurableOptions("");
  reference_options.durability = storage::DurabilityOptions{};
  ShardedEngine reference(wl.users, wl.facilities, reference_options);
  for (const UpdateBatch& batch : wl.batches) {
    reference.ApplyUpdates(batch);
  }
  (*recovered)->ApplyUpdates(wl.batches.back());
  EXPECT_EQ((*recovered)->snapshot_version(), reference.snapshot_version());
  ExpectBitIdentical(Answers(recovered->get(), nf), Answers(&reference, nf));
}

TEST(CrashRecovery, VirginDataDirIsNotFound) {
  const auto st =
      ShardedEngine::Recover(DurableOptions(TempDir("virgin"))).status();
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
}

TEST(CrashRecovery, GeometryMismatchIsRejected) {
  const std::string dir = TempDir("geometry");
  const Workload wl = MakeWorkload(/*seed=*/151, /*num_batches=*/1);
  {
    ShardedEngine victim(wl.users, wl.facilities, DurableOptions(dir));
    victim.ApplyUpdates(wl.batches[0]);
  }
  // A different ψ means a different index geometry: the checkpointed trees
  // would answer the wrong question, so recovery must refuse loudly.
  ShardedEngineOptions wrong = DurableOptions(dir);
  wrong.tree.model = ServiceModel::PointCount(500.0);
  const auto st = ShardedEngine::Recover(wrong).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// ----------------------------------------------- rebuilt shard indexes

// Per shard and facility, the shard's own SO (EvaluateServiceCells): the
// bits a shard contributes to every engine answer.
std::vector<double> ShardAnswers(const runtime::ShardedSnapshot& snap) {
  std::vector<double> out;
  for (const runtime::ShardStatePtr& shard : snap.shards) {
    for (uint32_t f = 0; f < snap.catalog->size(); ++f) {
      out.push_back(EvaluateServiceCells(*shard->cells, *shard->eval,
                                         snap.catalog->grid(f), nullptr));
    }
  }
  return out;
}

std::vector<std::vector<uint32_t>> IndexedIds(
    const runtime::ShardedSnapshot& snap) {
  std::vector<std::vector<uint32_t>> out;
  for (const runtime::ShardStatePtr& shard : snap.shards) {
    out.push_back(shard->cells->IndexedTrajectories());
  }
  return out;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A checkpoint stores users and removed ids, never an index; recovery
// rebuilds every owned shard over exactly the ids the killed engine indexed.
TEST(CrashRecovery, CheckpointStoresNoTreeAndRecoveryRebuildsTheLiveIds) {
  const std::string dir = TempDir("rebuild_ids");
  const Workload wl = MakeWorkload(/*seed=*/181, /*num_batches=*/6);
  const uint32_t nf = static_cast<uint32_t>(wl.facilities.size());
  std::vector<std::vector<uint32_t>> live_ids;
  AnswerSurface live_answers;
  {
    ShardedEngine victim(wl.users, wl.facilities, DurableOptions(dir));
    for (size_t b = 0; b < wl.batches.size(); ++b) {
      victim.ApplyUpdates(wl.batches[b]);
      if (b == 3) {
        ASSERT_TRUE(victim.Checkpoint().ok());
      }
    }
    live_ids = IndexedIds(*victim.snapshot());
    live_answers = Answers(&victim, nf);
  }
  auto checkpoint = storage::CurrentCheckpointDir(dir);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  size_t removed_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(*checkpoint)) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(entry.path().extension(), ".tree") << name;
    if (entry.path().extension() == ".removed") ++removed_files;
  }
  EXPECT_EQ(removed_files, live_ids.size());

  auto recovered = ShardedEngine::Recover(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(IndexedIds(*(*recovered)->snapshot()), live_ids);
  size_t removed = 0;
  for (size_t s = 0; s < live_ids.size(); ++s) {
    removed += (*recovered)->snapshot()->shards[s]->users->size() -
               live_ids[s].size();
  }
  EXPECT_EQ(removed, 2 * wl.batches.size());
  ExpectBitIdentical(Answers(recovered->get(), nf), live_answers);
}

// Every damaged or foreign checkpoint file is a typed error, never a crash:
// each truncation and single-bit flip of a shard's removed ids, ids a
// correct CRC cannot vouch for, and a MANIFEST of the version that stored
// TQT2 trees.
TEST(CrashRecovery, DamagedRemovedIdsAndOldManifestAreTypedErrors) {
  const std::string dir = TempDir("damaged_removed");
  const Workload wl = MakeWorkload(/*seed=*/191, /*num_batches=*/4);
  {
    ShardedEngine victim(wl.users, wl.facilities, DurableOptions(dir));
    for (const UpdateBatch& batch : wl.batches) victim.ApplyUpdates(batch);
    ASSERT_TRUE(victim.Checkpoint().ok());
  }
  auto checkpoint = storage::CurrentCheckpointDir(dir);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  // The shard with the most removed ids.
  std::string path;
  std::string pristine;
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string p =
        *checkpoint + "/shard-" + std::to_string(s) + ".removed";
    const std::string bytes = ReadBytes(p);
    if (bytes.size() > pristine.size()) {
      path = p;
      pristine = bytes;
    }
  }
  ASSERT_GT(pristine.size(), 20u) << "no shard has two removed ids";
  ASSERT_TRUE(ShardedEngine::Recover(DurableOptions(dir)).ok());

  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    WriteBytes(path, bytes);
    const Status st = ShardedEngine::Recover(DurableOptions(dir)).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << what << ": " << st.ToString();
  };
  for (size_t len = 0; len < pristine.size(); ++len) {
    expect_rejected(pristine.substr(0, len),
                    "truncated to " + std::to_string(len));
  }
  for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
    std::string flipped = pristine;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    expect_rejected(flipped, "bit " + std::to_string(bit) + " flipped");
  }
  // Well-framed files whose ids no shard can have: re-framed with a valid
  // CRC, so only the id checks stand between them and an index.
  const auto reframed = [&](const std::vector<uint32_t>& ids) {
    std::string bytes = pristine.substr(0, 4);
    const uint64_t count = ids.size();
    bytes.append(reinterpret_cast<const char*>(&count), 8);
    for (const uint32_t id : ids) {
      bytes.append(reinterpret_cast<const char*>(&id), 4);
    }
    const uint32_t crc = Crc32c(bytes.data() + 4, bytes.size() - 4);
    bytes.append(reinterpret_cast<const char*>(&crc), 4);
    return bytes;
  };
  expect_rejected(reframed({0, 0}), "repeated id");
  expect_rejected(reframed({3, 1}), "descending ids");
  expect_rejected(reframed({1u << 30}), "id past the shard's users");
  {
    std::string bytes = reframed({1, 2});
    bytes[4] = 3;  // count 3 over two ids
    const uint32_t crc = Crc32c(bytes.data() + 4, bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
    expect_rejected(bytes, "count past the ids");
  }
  WriteBytes(path, pristine);
  ASSERT_TRUE(ShardedEngine::Recover(DurableOptions(dir)).ok());

  // A version-1 MANIFEST (its shards stored TQT2 trees), CRC intact.
  const std::string manifest_path = *checkpoint + "/MANIFEST";
  std::string manifest = ReadBytes(manifest_path);
  const uint32_t old_version = 1;
  std::memcpy(manifest.data() + 4, &old_version, 4);
  const uint32_t crc = Crc32c(manifest.data() + 4, manifest.size() - 8);
  std::memcpy(manifest.data() + manifest.size() - 4, &crc, 4);
  WriteBytes(manifest_path, manifest);
  const Status st = ShardedEngine::Recover(DurableOptions(dir)).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// ------------------------------------------------------------ checkpoint

// A checkpoint only reads the engine: it leaves the live snapshot, every
// shard's index and the indexes' bounds memos as they were, so a top-k
// after it sweeps no bound and every answer keeps its bits. A snapshot a
// reader pinned before the checkpoint keeps its indexes as they were.
TEST(Checkpoint, LeavesLiveIndexesAndTheirBoundsMemosAlone) {
  const std::string dir = TempDir("checkpoint_reads_only");
  const Workload wl = MakeWorkload(/*seed=*/171, /*num_batches=*/8);
  const uint32_t nf = static_cast<uint32_t>(wl.facilities.size());
  ShardedEngineOptions options = DurableOptions(dir);
  ShardedEngine engine(wl.users, wl.facilities, options);
  for (const UpdateBatch& batch : wl.batches) {
    engine.ApplyUpdates(batch);
  }

  // Pin the snapshot the way a long-running checkpoint or slow reader
  // would.
  const runtime::ShardedSnapshotPtr retained = engine.snapshot();
  std::vector<size_t> pending_before;
  for (const runtime::ShardStatePtr& shard : retained->shards) {
    pending_before.push_back(shard->cells->num_pending());
  }
  const std::vector<std::vector<uint32_t>> ids_before = IndexedIds(*retained);
  const std::vector<double> shard_answers_before = ShardAnswers(*retained);
  // Answers() ends with a top-k, which fills every shard's bounds memo.
  const AnswerSurface before = Answers(&engine, nf);
  const uint64_t computed = engine.metrics().Read().bounds_computed;
  ASSERT_GT(computed, 0u);

  ASSERT_TRUE(engine.Checkpoint().ok());

  // The live snapshot and every shard's index are the ones published...
  const runtime::ShardedSnapshotPtr live = engine.snapshot();
  EXPECT_EQ(live.get(), retained.get());
  for (size_t s = 0; s < live->shards.size(); ++s) {
    EXPECT_EQ(live->shards[s]->cells.get(), retained->shards[s]->cells.get())
        << "shard " << s;
  }
  // ...so a top-k after the checkpoint reads the memos: no bound is swept,
  // and the answers keep their bits.
  ExpectBitIdentical(Answers(&engine, nf), before);
  EXPECT_EQ(engine.metrics().Read().bounds_computed, computed);
  EXPECT_EQ(ShardAnswers(*live), shard_answers_before);
  // The retained snapshot's indexes are untouched.
  for (size_t s = 0; s < retained->shards.size(); ++s) {
    EXPECT_EQ(retained->shards[s]->cells->num_pending(), pending_before[s])
        << "shard " << s;
  }
  EXPECT_EQ(IndexedIds(*retained), ids_before);
  EXPECT_EQ(ShardAnswers(*retained), shard_answers_before);

  // A second checkpoint with no publish between changes nothing either.
  ASSERT_TRUE(engine.Checkpoint().ok());
  EXPECT_EQ(engine.snapshot().get(), retained.get());
}

}  // namespace
}  // namespace tq
