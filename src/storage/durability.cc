#include "storage/durability.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.h"
#include "storage/checkpoint.h"

namespace tq::storage {

DurabilityManager::DurabilityManager(DurabilityOptions options,
                                     WriteCheckpointFn write_checkpoint,
                                     runtime::MetricsRegistry* metrics,
                                     runtime::Tracer* tracer)
    : options_(std::move(options)),
      write_checkpoint_(std::move(write_checkpoint)),
      metrics_(metrics),
      tracer_(tracer) {
  TQ_CHECK(options_.enabled());
  TQ_CHECK(metrics_ != nullptr && tracer_ != nullptr);
}

DurabilityManager::~DurabilityManager() { Stop(); }

Status DurabilityManager::Start(uint64_t next_lsn) {
  // First durable boot: the data dir itself may not exist yet (the WAL
  // opens before the initial checkpoint, which would otherwise create it).
  if (::mkdir(options_.data_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IOError("cannot create data dir " + options_.data_dir +
                           ": " + std::strerror(errno));
  }
  WalOptions wal_options;
  wal_options.sync = options_.wal_sync;
  auto wal = WalWriter::Open(WalDir(options_.data_dir), next_lsn, wal_options);
  TQ_RETURN_NOT_OK(wal.status());
  wal_ = std::move(*wal);
  if (options_.checkpoint_interval_ms > 0 ||
      options_.wal_sync == WalSync::kBatch) {
    thread_ = std::thread([this] { BackgroundLoop(); });
  }
  return Status::OK();
}

Status DurabilityManager::Append(uint64_t lsn, std::string_view payload) {
  TQ_CHECK_MSG(wal_ != nullptr, "DurabilityManager::Start was not called");
  Status st = wal_->Append(lsn, payload);
  if (st.ok()) metrics_->AddWalAppend(payload.size());
  return st;
}

Result<CheckpointStats> DurabilityManager::CheckpointNow() {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  CheckpointStats stats;
  const uint64_t start_ns = runtime::NowNs();
  runtime::TraceContextPtr trace =
      tracer_->Start("checkpoint", /*detail=*/0, start_ns);

  const uint64_t stream_start = runtime::NowNs();
  auto lsn = write_checkpoint_();
  TQ_RETURN_NOT_OK(lsn.status());
  stats.lsn = *lsn;
  trace->AddSpan("stream", -1, stream_start, runtime::NowNs());
  last_checkpoint_lsn_.store(stats.lsn, std::memory_order_relaxed);

  // The checkpoint covers every record at or below its LSN; the segments
  // holding only those are dead weight now.
  const uint64_t trim_start = runtime::NowNs();
  auto trimmed = TrimWalSegments(WalDir(options_.data_dir), stats.lsn);
  TQ_RETURN_NOT_OK(trimmed.status());
  stats.wal_bytes_trimmed = *trimmed;
  trace->AddSpan("trim_wal", -1, trim_start, runtime::NowNs());

  stats.checkpoint_ns = runtime::NowNs() - start_ns;
  metrics_->AddCheckpoint(stats.checkpoint_ns);
  tracer_->Finish(*trace, stats.lsn);
  return stats;
}

void DurabilityManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (wal_ != nullptr) wal_->Sync();
}

void DurabilityManager::BackgroundLoop() {
  using Clock = std::chrono::steady_clock;
  // Tick well under the checkpoint interval so kBatch's loss window stays
  // small and Stop() never waits long.
  const auto tick = std::chrono::milliseconds(
      options_.checkpoint_interval_ms > 0
          ? std::min<uint64_t>(options_.checkpoint_interval_ms, 100)
          : 100);
  auto last_checkpoint = Clock::now();
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    wake_.wait_for(lock, tick, [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    if (options_.wal_sync == WalSync::kBatch) wal_->Sync();
    if (options_.checkpoint_interval_ms > 0 &&
        Clock::now() - last_checkpoint >=
            std::chrono::milliseconds(options_.checkpoint_interval_ms)) {
      // A failed background checkpoint (disk full, say) is retried next
      // interval; the WAL keeps growing meanwhile, so no updates are lost.
      CheckpointNow();
      last_checkpoint = Clock::now();
    }
    lock.lock();
  }
}

}  // namespace tq::storage
