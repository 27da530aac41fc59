// On-disk checkpoints: the base-image side of the durability pair
// (storage/wal.h is the redo side).
//
// A checkpoint is one directory holding everything a process needs to
// reconstruct the engine state as of one LSN — no raw dataset files, no
// full user set (that is what lets shard workers recover without loading
// the global user set just to agree on geometry):
//
//   <data_dir>/
//     CURRENT                     # text: name of the live checkpoint dir
//     checkpoint-<lsn %016x>/
//       MANIFEST                  # "TQCK": lsn, partition geometry, shard rows
//       facilities.bin            # facility TrajectorySet ("TQJ1")
//       registry.bin              # "TQRG": global id -> (shard, local id)
//       shard-<s>.users           # shard s's user TrajectorySet ("TQJ1")
//       shard-<s>.removed         # "TQRM": shard s's de-indexed local ids
//     wal/                        # storage/wal.h segments
//
// No index is stored: recovery rebuilds each shard's cell index over its
// users minus its removed ids, the rebuild a live shard's Freeze runs once
// its pending inserts plus removals pass 1/8 of its tables.
//
// Atomicity: everything is streamed into checkpoint-<lsn>.tmp, each file
// fsync'd, then the directory is renamed into place and CURRENT is swapped
// (write-temp + rename + parent fsync). A SIGKILL anywhere leaves either
// the old checkpoint current or the new one — never a half state; stale
// .tmp directories and superseded checkpoints are garbage-collected on the
// next successful Commit.
//
// Shard files exist only for the shards the writing process OWNED (manifest
// rows record which). A recovering process may own any subrange of those;
// owning a shard the checkpoint has no files for is a typed error.
#ifndef TQCOVER_STORAGE_CHECKPOINT_H_
#define TQCOVER_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "traj/dataset.h"
#include "tqtree/tq_tree.h"

namespace tq::storage {

/// Hash of the engine's tree options (service model included) and world
/// rectangle. The manifest stores it so a process configured differently
/// refuses to recover rather than rebuild other indexes.
uint64_t TQTreeGeometryHash(const TQTreeOptions& options, const Rect& world);

/// One shard's manifest row.
struct CheckpointShardInfo {
  /// Engine version at the shard's last republish (restored verbatim so the
  /// recovered generation vector matches the uninterrupted run bit for bit).
  uint64_t generation = 0;
  /// LOGICAL routed user count — what the shard's set size would be if the
  /// shard were owned. Restores local-id assignment for non-owned shards.
  uint64_t user_count = 0;
  /// Whether shard-<s>.users / shard-<s>.removed exist in this checkpoint.
  bool has_shard = false;
};

struct CheckpointManifest {
  /// Engine snapshot version the checkpoint captures. Replay resumes at
  /// lsn + 1.
  uint64_t lsn = 0;
  /// Global-id registry size at capture (== registry.bin entry count).
  uint64_t users_total = 0;
  /// TQTreeGeometryHash(tree options, world): a recovering process must be
  /// configured with matching tree options or it would rebuild other
  /// indexes.
  uint64_t geometry_hash = 0;
  Rect world;
  /// Router split keys (num_shards - 1 of them) — the partition geometry,
  /// adopted wholesale on recovery instead of re-derived from raw data.
  std::vector<uint64_t> splits;
  std::vector<CheckpointShardInfo> shards;
};

/// Streams one checkpoint into <data_dir>/checkpoint-<lsn>.tmp and commits
/// it atomically. Destroying an uncommitted writer removes the tmp dir.
class CheckpointWriter {
 public:
  static Result<std::unique_ptr<CheckpointWriter>> Begin(
      const std::string& data_dir, uint64_t lsn);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  Status WriteFacilities(const TrajectorySet& facilities);
  /// Registry entries are (shard, local id), global-id order.
  Status WriteRegistry(
      const std::vector<std::pair<uint32_t, uint32_t>>& entries);
  /// Writes shard `shard`'s users and the ascending local ids its index no
  /// longer holds.
  Status WriteShard(uint32_t shard, const TrajectorySet& users,
                    std::span<const uint32_t> removed);
  /// Writes MANIFEST, fsyncs, renames the directory into place, swaps
  /// CURRENT, and garbage-collects superseded checkpoints.
  Status Commit(const CheckpointManifest& manifest);

 private:
  CheckpointWriter(std::string data_dir, std::string final_name)
      : data_dir_(std::move(data_dir)), final_name_(std::move(final_name)),
        tmp_dir_(data_dir_ + "/" + final_name_ + ".tmp") {}

  std::string data_dir_;
  std::string final_name_;  // "checkpoint-<lsn>"
  std::string tmp_dir_;
  bool committed_ = false;
};

/// Absolute path of the live checkpoint directory (from CURRENT), or
/// kNotFound when the data dir has no committed checkpoint yet.
Result<std::string> CurrentCheckpointDir(const std::string& data_dir);

Result<CheckpointManifest> ReadCheckpointManifest(
    const std::string& checkpoint_dir);
Result<TrajectorySet> LoadCheckpointFacilities(
    const std::string& checkpoint_dir);
Status LoadCheckpointRegistry(
    const std::string& checkpoint_dir,
    std::vector<std::pair<uint32_t, uint32_t>>* out);
Result<std::shared_ptr<TrajectorySet>> LoadCheckpointShardUsers(
    const std::string& checkpoint_dir, uint32_t shard);
/// Shard `shard`'s removed local ids, ascending, each below `num_users`
/// (the size of the set LoadCheckpointShardUsers returned); anything else
/// is a typed error.
Result<std::vector<uint32_t>> LoadCheckpointShardRemoved(
    const std::string& checkpoint_dir, uint32_t shard, size_t num_users);

/// The conventional WAL subdirectory of a data dir.
inline std::string WalDir(const std::string& data_dir) {
  return data_dir + "/wal";
}

}  // namespace tq::storage

#endif  // TQCOVER_STORAGE_CHECKPOINT_H_
