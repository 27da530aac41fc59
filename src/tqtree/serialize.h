// Streaming binary persistence for the TQ-tree.
//
// The paper sizes β as "a memory block (or a disk block for a disk-resident
// list)" — this module provides the disk side: a packed binary image of the
// quadtree skeleton plus per-node unit-id lists. Unit geometry, upper bounds
// and what a freeze builds are rebuilt from the user TrajectorySet on load,
// which keeps files small and makes stale files (wrong user set) detectable.
//
// The codec is STREAMING, not path-bound: WriteTQTreeSnapshot emits the tree
// one node PAGE at a time into any SnapshotSink, and ReadTQTreeSnapshot
// consumes any SnapshotSource — so the background checkpointer (streaming a
// retained fork to disk off the publish path), the fork-chain compactor
// (round-tripping a shard tree through a memory buffer into fresh dense
// pages), WAL recovery and the CLI all share exactly one format. The old
// path-string SaveTQTree/LoadTQTree survive as thin file wrappers.
//
// Format "TQT2" (little-endian, host-width doubles):
//   header   magic "TQT2", u32 version,
//            options (u64 beta, i32 max_depth, u8 variant, u8 mode,
//                     u8 scenario, u8 normalization, f64 psi,
//                     u8 reserved (0), u64 reserved (raster resolution)),
//            f64×4 world rect, u64 geometry hash (of the fields above),
//            u64 user-set size (validation), u64 node count,
//            u32 CRC32C of everything since the magic
//   pages    one record per node page, in page order:
//            u32 page index, u32 nodes in page,
//            per node: f64×4 rect, i32 first_child, i16 depth,
//                      u32 split_failed_at, u32 entry count,
//                      entries as (u32 traj_id, u32 seg_index),
//            u32 CRC32C of the record body
//   trailer  u32 0xFFFFFFFF sentinel (no page has this index),
//            u64 total units, u32 CRC32C of the trailer body
//
// split_failed_at is persisted so a restored tree defers split retries
// exactly like the live tree it was captured from — the crash-recovery
// bit-identity guarantee extends through FUTURE inserts, not just reads.
// Every structural mismatch (bad magic, unsupported version, geometry or
// user-set disagreement, CRC failure) is a typed Status, never an abort.
#ifndef TQCOVER_TQTREE_SERIALIZE_H_
#define TQCOVER_TQTREE_SERIALIZE_H_

#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"
#include "tqtree/tq_tree.h"

namespace tq {

/// Byte-stream sink the snapshot writer appends to. Implementations must
/// either accept all `n` bytes or fail; short writes are not modeled.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  virtual Status Append(const void* data, size_t n) = 0;
};

/// Byte-stream source the snapshot reader consumes. Read() must fill the
/// buffer completely or fail (kIOError for I/O trouble, kInvalidArgument
/// for end-of-stream — the codec maps both to "truncated").
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  virtual Status Read(void* data, size_t n) = 0;
};

/// Sink writing a stdio file (buffered); Close() flushes and reports errors.
class FileSnapshotSink : public SnapshotSink {
 public:
  ~FileSnapshotSink() override;
  static Result<std::unique_ptr<FileSnapshotSink>> Open(
      const std::string& path);
  Status Append(const void* data, size_t n) override;
  /// Flushes, optionally fsyncs, and closes. Idempotent.
  Status Close(bool sync = false);

 private:
  explicit FileSnapshotSink(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  std::FILE* file_;
  std::string path_;
};

/// Source reading a stdio file.
class FileSnapshotSource : public SnapshotSource {
 public:
  ~FileSnapshotSource() override;
  static Result<std::unique_ptr<FileSnapshotSource>> Open(
      const std::string& path);
  Status Read(void* data, size_t n) override;

 private:
  explicit FileSnapshotSource(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  std::FILE* file_;
  std::string path_;
};

/// Sink appending to a caller-owned string (compaction, tests).
class StringSnapshotSink : public SnapshotSink {
 public:
  explicit StringSnapshotSink(std::string* out) : out_(out) {}
  Status Append(const void* data, size_t n) override {
    out_->append(static_cast<const char*>(data), n);
    return Status::OK();
  }

 private:
  std::string* out_;
};

/// Source over an in-memory byte range (compaction, WAL recovery, tests).
class StringSnapshotSource : public SnapshotSource {
 public:
  explicit StringSnapshotSource(std::string_view data) : data_(data) {}
  Status Read(void* data, size_t n) override;

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Hash of the geometry a tree's answers depend on: construction options,
/// service model and world rectangle. Two trees with equal hashes index the
/// same space the same way; the checkpoint manifest stores it so every
/// per-shard snapshot stream can be verified against the partition geometry
/// without parsing, and workers can adopt a checkpoint's geometry wholesale.
uint64_t TQTreeGeometryHash(const TQTreeOptions& options, const Rect& world);

/// Streams `tree` into `sink`, one node page per record.
Status WriteTQTreeSnapshot(const TQTree& tree, SnapshotSink* sink);

/// Reads a snapshot stream written by WriteTQTreeSnapshot. `users` must be
/// the trajectory set the tree was built over (checked by size; per-entry
/// ids are bounds-checked) and must outlive the tree. The tree comes back
/// frozen (TQTree::Freeze), mirroring the building constructor. All
/// failures are typed Status values (kInvalidArgument for format/geometry
/// trouble, kIOError passed through from the source).
Result<std::unique_ptr<TQTree>> ReadTQTreeSnapshot(SnapshotSource* source,
                                                   const TrajectorySet* users);

/// Thin file wrapper over WriteTQTreeSnapshot.
Status SaveTQTree(const std::string& path, const TQTree& tree);

/// Thin file wrapper over ReadTQTreeSnapshot.
Result<std::unique_ptr<TQTree>> LoadTQTree(const std::string& path,
                                           const TrajectorySet* users);

}  // namespace tq

#endif  // TQCOVER_TQTREE_SERIALIZE_H_
