// The durability subsystem's front door: one object owning the WAL writer,
// the background checkpointer thread, and the WAL-trim / compaction
// plumbing that runs after each checkpoint commits.
//
// Division of labour with the engine (runtime/sharded_engine.cc):
//
//   * The ENGINE knows its own state — so it provides two closures: one that
//     writes a consistent snapshot into a CheckpointWriter and returns the
//     captured LSN, and one that compacts after a committed checkpoint:
//     it rebuilds the live shard indexes over their indexed ids, the same
//     rebuild recovery runs.
//   * The MANAGER owns everything else: WAL append with the sync policy,
//     the background thread that ticks the kBatch fsync and fires interval
//     checkpoints, trimming WAL segments the checkpoint covers, and the
//     wal_* / checkpoint* metrics + trace spans.
//
// Checkpoints never run on the publish path: the engine's capture closure
// retains the published snapshot (shared_ptr pin) and writes it while
// writers keep publishing.
#ifndef TQCOVER_STORAGE_DURABILITY_H_
#define TQCOVER_STORAGE_DURABILITY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"
#include "storage/wal.h"

namespace tq::storage {

/// Engine-facing durability configuration (the CLI's --data-dir /
/// --wal-sync / --checkpoint-interval-ms flags).
struct DurabilityOptions {
  /// Root of the persistent state (checkpoints + wal/). Empty = durability
  /// off: no WAL, no checkpoints, restarts lose everything (the default).
  std::string data_dir;
  WalSync wal_sync = WalSync::kAlways;
  /// Background checkpoint cadence; 0 = manual Checkpoint() calls only.
  uint64_t checkpoint_interval_ms = 0;

  bool enabled() const { return !data_dir.empty(); }
};

/// What recovery (or a fresh durable start) did — surfaced through
/// ServingEngine::recovery_info(), the kStatus wire frame, and the CLI.
struct RecoveryInfo {
  bool durable = false;    // engine runs with a data dir
  bool recovered = false;  // state was rebuilt from checkpoint + WAL
  uint64_t checkpoint_lsn = 0;     // latest committed checkpoint (0 = none)
  uint64_t last_lsn = 0;           // snapshot version after recovery
  uint64_t replayed_batches = 0;   // WAL records applied during recovery
  uint64_t replayed_bytes = 0;
  bool wal_torn_tail = false;      // recovery truncated a torn WAL tail
  uint64_t recovery_ns = 0;        // load + replay wall time
};

/// One committed checkpoint's accounting.
struct CheckpointStats {
  uint64_t lsn = 0;
  uint64_t wal_bytes_trimmed = 0;
  uint64_t checkpoint_ns = 0;
};

class DurabilityManager {
 public:
  /// Writes a consistent engine snapshot to disk (CheckpointWriter) and
  /// returns its LSN. Runs on the checkpointer thread; must synchronize
  /// with publishes internally.
  using WriteCheckpointFn = std::function<Result<uint64_t>()>;
  /// Compacts after checkpoint `lsn` commits (the engine rebuilds its live
  /// shard indexes).
  using CompactFn = std::function<void(uint64_t lsn)>;

  /// `metrics` and `tracer` must outlive the manager (the engine owns all
  /// three). Call Start() before anything else.
  DurabilityManager(DurabilityOptions options,
                    WriteCheckpointFn write_checkpoint, CompactFn compact,
                    runtime::MetricsRegistry* metrics,
                    runtime::Tracer* tracer);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// Opens the WAL for appends starting at `next_lsn` (truncating any torn
  /// tail a crash left) and launches the background thread when a
  /// checkpoint interval or the kBatch sync policy needs one.
  Status Start(uint64_t next_lsn);

  /// Appends one update batch record (engine writer path, pre-publish).
  Status Append(uint64_t lsn, std::string_view payload);

  /// Runs one synchronous checkpoint → trim → compact cycle. Serialized
  /// against the background thread's own cycles.
  Result<CheckpointStats> CheckpointNow();

  /// Stops the background thread and syncs the WAL. Idempotent; called by
  /// the destructor, and by the engine before tearing down the state the
  /// closures touch.
  void Stop();

  uint64_t last_checkpoint_lsn() const {
    return last_checkpoint_lsn_.load(std::memory_order_relaxed);
  }

 private:
  void BackgroundLoop();

  DurabilityOptions options_;
  WriteCheckpointFn write_checkpoint_;
  CompactFn compact_;
  runtime::MetricsRegistry* metrics_;
  runtime::Tracer* tracer_;

  std::unique_ptr<WalWriter> wal_;
  std::mutex checkpoint_mu_;  // serializes manual + background checkpoints
  std::atomic<uint64_t> last_checkpoint_lsn_{0};

  std::mutex thread_mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace tq::storage

#endif  // TQCOVER_STORAGE_DURABILITY_H_
