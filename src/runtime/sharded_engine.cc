#include "runtime/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "net/protocol.h"
#include "query/eval_service.h"

namespace {

/// The ids below `num_users` that the ascending `ids` lacks: a shard's
/// removed ids from its indexed ones, and back.
std::vector<uint32_t> MissingIds(size_t num_users,
                                 const std::vector<uint32_t>& ids) {
  std::vector<uint32_t> missing;
  size_t next = 0;
  for (uint32_t id = 0; id < num_users; ++id) {
    if (next < ids.size() && ids[next] == id) {
      ++next;
    } else {
      missing.push_back(id);
    }
  }
  return missing;
}

/// A shard's cell index over trajectories `ids` of `users`: with tables,
/// whatever the configured tree mode.
std::shared_ptr<const tq::CellIndex> ShardCells(
    const tq::TrajectorySet* users, const tq::ServiceModel& model,
    std::span<const uint32_t> ids) {
  return std::make_shared<const tq::CellIndex>(users, model, /*tables=*/true,
                                               ids);
}

}  // namespace

namespace tq::runtime {

ShardedEngine::ShardedEngine(TrajectorySet users, TrajectorySet facilities,
                             ShardedEngineOptions options)
    : options_(options),
      cache_(options.cache_capacity, kCacheShards),
      router_(users,
              users.empty() ? Rect::Of(0, 0, 1, 1) : users.BoundingBox(),
              std::max<size_t>(1, options.num_shards)),
      pool_(options.num_threads, &metrics_) {
  // Partition the initial users; global id = position in `users`, preserved
  // by the registry so later removes can find (shard, local id).
  InitPartition();
  const size_t n = router_.num_shards();
  std::vector<TrajectorySet> shard_sets(n);
  users_.reserve(users.size());
  for (uint32_t u = 0; u < users.size(); ++u) {
    const auto shard = static_cast<uint32_t>(router_.Route(users.points(u)));
    // Non-owned shards advance only the logical counter: the (shard, local)
    // assignment stays identical to a worker that DOES own the shard, but
    // no set (and later no index) is materialized for it.
    const uint32_t local = Owns(shard)
                               ? shard_sets[shard].Add(users.points(u))
                               : shard_user_counts_[shard];
    shard_user_counts_[shard]++;
    users_.push_back(UserLocation{shard, local});
  }

  auto facilities_ptr =
      std::make_shared<TrajectorySet>(std::move(facilities));
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->version = 1;
  snap->facilities = facilities_ptr;
  snap->catalog = std::make_shared<FacilityCatalog>(facilities_ptr.get(),
                                                    options_.tree.model.psi);
  snap->shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto shard_users =
        std::make_shared<TrajectorySet>(std::move(shard_sets[s]));
    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    state->generation = 1;
    state->cells = ShardCells(shard_users.get(), options_.tree.model,
                              AllIds(*shard_users));
    state->eval = std::make_shared<ServiceEvaluator>(shard_users.get(),
                                                     options_.tree.model);
    state->users = std::move(shard_users);
    snap->shards.push_back(std::move(state));
  }
  Publish(std::move(snap), n);

  if (options_.durability.enabled()) {
    // A fresh durable engine demands a virgin data dir: silently shadowing
    // an existing checkpoint would fork its history. Recover() is the path
    // for existing state; callers decide via storage::CurrentCheckpointDir.
    TQ_CHECK_MSG(
        storage::CurrentCheckpointDir(options_.durability.data_dir)
                .status()
                .code() == StatusCode::kNotFound,
        "data dir already holds a checkpoint; use ShardedEngine::Recover");
    recovery_info_.durable = true;
    recovery_info_.last_lsn = snapshot()->version;
    // The initial checkpoint captures version 1 (this constructor's state);
    // WAL records then start at LSN 2, the first ApplyUpdates publish.
    StartDurability(/*next_lsn=*/2, /*initial_checkpoint=*/true);
  }
}

ShardedEngine::~ShardedEngine() {
  // Stop the checkpointer before any member is torn down: its closures walk
  // the snapshot, registry, and metrics. pool_ (last member) then joins
  // in-flight scatter tasks as before.
  if (durability_) durability_->Stop();
}

ShardedEngine::ShardedEngine(RecoverTag, ShardedEngineOptions options,
                             const storage::CheckpointManifest& manifest)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, kCacheShards),
      router_(manifest.world, manifest.splits),
      pool_(options_.num_threads, &metrics_) {
  InitPartition();
}

void ShardedEngine::InitPartition() {
  const size_t n = router_.num_shards();
  owned_begin_ = options_.owned_begin;
  owned_end_ = options_.owned_end;
  if (owned_begin_ == 0 && owned_end_ == 0) {
    owned_end_ = static_cast<uint32_t>(n);  // single-process: own everything
  }
  TQ_CHECK(owned_begin_ < owned_end_ && owned_end_ <= n);
  shard_user_counts_.assign(n, 0);
}

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Recover(
    ShardedEngineOptions options) {
  TQ_CHECK(options.durability.enabled());
  const uint64_t start_ns = NowNs();
  auto dir = storage::CurrentCheckpointDir(options.durability.data_dir);
  TQ_RETURN_NOT_OK(dir.status());
  auto manifest = storage::ReadCheckpointManifest(*dir);
  TQ_RETURN_NOT_OK(manifest.status());
  // The recovering process must be CONFIGURED with the geometry the
  // checkpoint was written under — a different ψ, service model, or world
  // would rebuild different indexes and silently change answers.
  const uint64_t hash =
      storage::TQTreeGeometryHash(options.tree, manifest->world);
  if (hash != manifest->geometry_hash) {
    return Status::InvalidArgument(
        "tree options do not match the checkpoint's geometry hash");
  }
  // The partition geometry is adopted wholesale; a configured shard count
  // is ignored in favour of the manifest's.
  options.num_shards = manifest->shards.size();
  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(RecoverTag{}, std::move(options), *manifest));
  TQ_RETURN_NOT_OK(engine->RecoverFrom(*dir, *manifest));
  engine->recovery_info_.recovery_ns = NowNs() - start_ns;
  return engine;
}

Status ShardedEngine::RecoverFrom(
    const std::string& checkpoint_dir,
    const storage::CheckpointManifest& manifest) {
  const size_t n = router_.num_shards();

  // Registry: global id -> (shard, local id), exactly as the crashed
  // process assigned them. It cannot be re-derived from the per-shard sets
  // (cross-shard insertion interleaving is lost), hence registry.bin.
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  TQ_RETURN_NOT_OK(storage::LoadCheckpointRegistry(checkpoint_dir, &entries));
  if (entries.size() != manifest.users_total) {
    return Status::InvalidArgument("checkpoint registry size mismatch");
  }
  users_.clear();
  users_.reserve(entries.size());
  for (const auto& [shard, local] : entries) {
    if (shard >= n) {
      return Status::InvalidArgument("checkpoint registry shard out of range");
    }
    users_.push_back(UserLocation{shard, local});
  }
  for (size_t s = 0; s < n; ++s) {
    shard_user_counts_[s] =
        static_cast<uint32_t>(manifest.shards[s].user_count);
  }

  auto facilities = storage::LoadCheckpointFacilities(checkpoint_dir);
  TQ_RETURN_NOT_OK(facilities.status());
  auto facilities_ptr =
      std::make_shared<TrajectorySet>(std::move(*facilities));
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->version = manifest.lsn;
  snap->facilities = facilities_ptr;
  snap->catalog = std::make_shared<FacilityCatalog>(facilities_ptr.get(),
                                                    options_.tree.model.psi);
  snap->shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    // Generations restore verbatim so the recovered generation vector
    // (cache keys, kUpdate responses) matches the uninterrupted run.
    state->generation = manifest.shards[s].generation;
    // Non-owned shards mirror a live worker: empty set, empty index, an
    // exact 0.0 contribution to every sum.
    std::shared_ptr<TrajectorySet> shard_users =
        std::make_shared<TrajectorySet>();
    std::vector<uint32_t> ids;
    if (Owns(s)) {
      if (!manifest.shards[s].has_shard) {
        return Status::InvalidArgument(
            "checkpoint has no files for owned shard " + std::to_string(s));
      }
      auto users = storage::LoadCheckpointShardUsers(
          checkpoint_dir, static_cast<uint32_t>(s));
      TQ_RETURN_NOT_OK(users.status());
      shard_users = std::move(*users);
      if (shard_users->size() != manifest.shards[s].user_count) {
        return Status::InvalidArgument("checkpoint shard user count mismatch");
      }
      auto removed = storage::LoadCheckpointShardRemoved(
          checkpoint_dir, static_cast<uint32_t>(s), shard_users->size());
      TQ_RETURN_NOT_OK(removed.status());
      ids = MissingIds(shard_users->size(), *removed);
    }
    state->cells = ShardCells(shard_users.get(), options_.tree.model, ids);
    state->eval = std::make_shared<ServiceEvaluator>(shard_users.get(),
                                                     options_.tree.model);
    state->users = std::move(shard_users);
    snap->shards.push_back(std::move(state));
  }
  Publish(std::move(snap), n);
  recovery_info_.durable = true;
  recovery_info_.recovered = true;
  recovery_info_.checkpoint_lsn = manifest.lsn;

  // Redo: replay every WAL record past the checkpoint through the normal
  // update path. LSNs are dense (one record per publish), so replay asserts
  // exact version continuity — a gap means lost records, a hard error.
  storage::WalReplayStats stats;
  Status replayed = storage::ReplayWal(
      storage::WalDir(options_.durability.data_dir), manifest.lsn,
      [this](uint64_t lsn, std::string_view payload) -> Status {
        UpdateBatch batch;
        TQ_RETURN_NOT_OK(
            net::DecodeUpdateBody(payload, &batch.inserts, &batch.removes));
        const uint64_t version = snapshot()->version;
        if (lsn != version + 1) {
          return Status::IOError("WAL gap: record " + std::to_string(lsn) +
                                 " after version " + std::to_string(version));
        }
        ApplyUpdatesImpl(batch, /*log_to_wal=*/false);
        return Status::OK();
      },
      &stats);
  TQ_RETURN_NOT_OK(replayed);
  metrics_.AddWalReplayed(stats.records);
  recovery_info_.last_lsn = snapshot()->version;
  recovery_info_.replayed_batches = stats.records;
  recovery_info_.replayed_bytes = stats.bytes;
  recovery_info_.wal_torn_tail = stats.torn_tail;

  StartDurability(snapshot()->version + 1, /*initial_checkpoint=*/false);
  return Status::OK();
}

void ShardedEngine::StartDurability(uint64_t next_lsn,
                                    bool initial_checkpoint) {
  durability_ = std::make_unique<storage::DurabilityManager>(
      options_.durability, [this] { return WriteCheckpointImpl(); },
      [this](uint64_t lsn) { return CompactShards(lsn); }, &metrics_,
      &tracer_);
  const Status started = durability_->Start(next_lsn);
  TQ_CHECK_MSG(started.ok(), started.message().c_str());
  if (initial_checkpoint) {
    const auto stats = durability_->CheckpointNow();
    TQ_CHECK_MSG(stats.ok(), stats.status().message().c_str());
  }
}

Status ShardedEngine::Checkpoint() {
  if (!durability_) {
    return Status::Unimplemented("engine has no durability subsystem");
  }
  return durability_->CheckpointNow().status();
}

storage::RecoveryInfo ShardedEngine::recovery_info() const {
  storage::RecoveryInfo info = recovery_info_;
  if (durability_) {
    const uint64_t lsn = durability_->last_checkpoint_lsn();
    if (lsn != 0) info.checkpoint_lsn = lsn;
    info.last_lsn = snapshot_version();
  }
  return info;
}

Result<uint64_t> ShardedEngine::WriteCheckpointImpl() {
  // Capture (snapshot, registry, logical counts) as one consistent cut:
  // publishes happen under writer_mu_, so holding it pins all three at the
  // same LSN. The capture is O(users) copies; the expensive writing below
  // runs OFF the lock, with the snapshot shared_ptr keeping every shard's
  // users and cells alive while writers move on.
  ShardedSnapshotPtr snap;
  std::vector<UserLocation> registry;
  std::vector<uint32_t> counts;
  {
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    snap = snapshot();
    {
      std::lock_guard<std::mutex> reg_lock(registry_mu_);
      registry = users_;
    }
    counts = shard_user_counts_;
  }

  auto writer = storage::CheckpointWriter::Begin(
      options_.durability.data_dir, snap->version);
  TQ_RETURN_NOT_OK(writer.status());
  TQ_RETURN_NOT_OK((*writer)->WriteFacilities(*snap->facilities));
  std::vector<std::pair<uint32_t, uint32_t>> entries;
  entries.reserve(registry.size());
  for (const UserLocation& loc : registry) {
    entries.emplace_back(loc.shard, loc.local_id);
  }
  TQ_RETURN_NOT_OK((*writer)->WriteRegistry(entries));

  const size_t n = snap->shards.size();
  storage::CheckpointManifest manifest;
  manifest.lsn = snap->version;
  manifest.users_total = registry.size();
  manifest.geometry_hash =
      storage::TQTreeGeometryHash(options_.tree, router_.world());
  manifest.world = router_.world();
  manifest.splits = router_.splits();
  manifest.shards.resize(n);
  for (size_t s = 0; s < n; ++s) {
    manifest.shards[s].generation = snap->shards[s]->generation;
    manifest.shards[s].user_count = counts[s];
    manifest.shards[s].has_shard = Owns(s);
    if (Owns(s)) {
      const ShardState& shard = *snap->shards[s];
      TQ_RETURN_NOT_OK((*writer)->WriteShard(
          static_cast<uint32_t>(s), *shard.users,
          MissingIds(shard.users->size(), shard.cells->IndexedTrajectories())));
    }
  }
  TQ_RETURN_NOT_OK((*writer)->Commit(manifest));
  return snap->version;
}

void ShardedEngine::CompactShards(uint64_t /*lsn*/) {
  // Rebuild each owned shard's index over its indexed ids: the same rebuild
  // recovery runs, so a shard the checkpoint captured becomes exactly what
  // recovery would build from it. A rebuild folds the inserts pending since
  // the cell tables were built into fresh tables, off the publish path, and
  // answers keep their bits: SO sums the scoring ids in ascending order,
  // whichever candidates the tables mark.
  const ShardedSnapshotPtr captured = snapshot();
  for (size_t s = owned_begin_; s < owned_end_; ++s) {
    const ShardStatePtr old_state = captured->shards[s];
    if (old_state->cells->fresh()) continue;  // already what a rebuild gives
    auto rebuilt = ShardCells(old_state->users.get(), options_.tree.model,
                              old_state->cells->IndexedTrajectories());

    // Swap only if the shard has not republished meanwhile: same version,
    // same generation, same users/eval — readers and the result cache
    // cannot tell, and the recovery LSN sequence is untouched. A racing
    // publish wins by pointer inequality.
    std::lock_guard<std::mutex> writer_lock(writer_mu_);
    const ShardedSnapshotPtr live = snapshot();
    if (live->shards[s] != old_state) continue;
    auto state = std::make_shared<ShardState>(*old_state);
    state->cells = std::move(rebuilt);
    auto next = std::make_shared<ShardedSnapshot>(*live);
    next->shards[s] = std::move(state);
    std::lock_guard<std::mutex> snap_lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
}

void ShardedEngine::Publish(ShardedSnapshotPtr snap,
                            uint64_t shards_republished) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snap);
  }
  metrics_.AddSnapshotPublished();
  metrics_.AddShardPublishes(shards_republished);
}

ShardedSnapshotPtr ShardedEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

ShardedEngine::UserLocation ShardedEngine::LocateUser(
    uint32_t global_id) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  TQ_CHECK(global_id < users_.size());
  return users_[global_id];
}

size_t ShardedEngine::NumUsersTotal() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return users_.size();
}

std::vector<uint64_t> ShardedEngine::shard_generations() const {
  const ShardedSnapshotPtr snap = snapshot();
  std::vector<uint64_t> gens;
  gens.reserve(snap->shards.size());
  for (const auto& shard : snap->shards) gens.push_back(shard->generation);
  return gens;
}

EngineInfo ShardedEngine::info() const {
  const ShardedSnapshotPtr snap = snapshot();
  EngineInfo info;
  info.num_shards = static_cast<uint32_t>(router_.num_shards());
  info.owned_begin = owned_begin_;
  info.owned_end = owned_end_;
  info.psi = options_.tree.model.psi;
  info.num_facilities = static_cast<uint32_t>(snap->catalog->size());
  info.users_total = NumUsersTotal();
  info.snapshot_version = snap->version;
  return info;
}

std::future<QueryResponse> ShardedEngine::Submit(QueryRequest request) {
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  SubmitAsync(request, [promise](QueryResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void ShardedEngine::SubmitAsync(QueryRequest request, ResponseCallback done) {
  SubmitAsync(std::move(request), nullptr, std::move(done));
}

void ShardedEngine::SubmitAsync(QueryRequest request, TraceContextPtr trace,
                                ResponseCallback done, uint64_t start_ns) {
  const uint64_t t0 = start_ns != 0 ? start_ns : NowNs();
  ShardedSnapshotPtr snap = snapshot();
  // The query pins its snapshot (braced initializers run in order).
  coordinator_.Submit(request,
                      {snap->catalog->size(), snap->version, std::move(snap)},
                      std::move(trace), std::move(done), t0);
}

void ShardedEngine::TopKBoundSweepAsync(BoundSweepCallback done) {
  ShardedSnapshotPtr snap = snapshot();
  coordinator_.Sweep({snap->catalog->size(), snap->version, std::move(snap)},
                     std::move(done));
}

std::vector<size_t> ShardedEngine::Participants() const {
  std::vector<size_t> parts(num_participants());
  std::iota(parts.begin(), parts.end(), size_t{0});
  return parts;
}

void ShardedEngine::Bound(const CoordinatedQueryPtr& query) {
  Scatter(query, /*bound=*/true);
}

void ShardedEngine::Evaluate(const CoordinatedQueryPtr& query) {
  Scatter(query, /*bound=*/false);
}

void ShardedEngine::Scatter(const CoordinatedQueryPtr& query, bool bound) {
  // The last task may continue — and replan the wave — as soon as it is
  // posted, so the loop reads nothing of the query after the last Post.
  const size_t n = query->wave.size();
  query->remaining.store(n, std::memory_order_relaxed);
  // One clock read covers the whole fan-out's queue-wait spans.
  const uint64_t post_ns = query->trace ? NowNs() : 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t p = query->wave[i];
    pool_.Post([this, query, p, bound, post_ns]() {
      RunShardTask(query, p, bound, post_ns);
    });
  }
}

void ShardedEngine::RunShardTask(const CoordinatedQueryPtr& query, size_t p,
                                 bool bound, uint64_t post_ns) {
  const uint64_t t0 =
      (MetricsRegistry::SampleTask() || query->trace) ? NowNs() : 0;
  const auto shard_idx = static_cast<int32_t>(owned_begin_ + p);
  if (post_ns != 0) query->trace->AddSpan("queue_wait", shard_idx, post_ns, t0);
  const auto& snap =
      *static_cast<const ShardedSnapshot*>(query->basis.pin.get());
  const ShardState& shard = *snap.shards[owned_begin_ + p];
  const FacilityCatalog& catalog = *snap.catalog;
  ParticipantAnswer& answer = query->answers[p];
  if (bound) {
    // One cell bound per facility, swept once and then patched from each
    // publish's writes: a published shard is never written, so its memo
    // stays valid.
    query->bounds[p] = shard.cells
                           ->Bounds(catalog, &answer.stats.bounds_computed,
                                    &answer.stats.bounds_patched)
                           ->bound;
  } else {
    bool all_hit = true;
    for (const FacilityId f : query->window) {
      if (!query->Owes(p, f)) continue;  // an earlier wave or the planner
      bool hit = false;
      query->Settle(p, f,
                    ShardServiceValue(shard, catalog, f, &answer.stats, &hit));
      all_hit = all_hit && hit;
    }
    answer.cache_hit = all_hit;
  }
  answer.snapshot_version = snap.version;
  metrics_.AddShardTask();
  if (t0 != 0) {
    const uint64_t t1 = NowNs();
    metrics_.RecordLatency(OpFamily::kShardTask, t1 - t0);
    if (query->trace) {
      const bool sum = query->kind == CoordinatedQuery::Kind::kSum;
      query->trace->AddSpan(
          bound ? "shard_sweep" : (sum ? "shard_eval" : "shard_refine"),
          shard_idx, t0, t1);
    }
  }
  // acq_rel: the last finisher acquires every other task's answer writes.
  if (query->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    coordinator_.Continue(query);
  }
}

std::vector<QueryResponse> ShardedEngine::RunBatch(
    const std::vector<QueryRequest>& batch) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(batch.size());
  for (const QueryRequest& request : batch) futures.push_back(Submit(request));
  std::vector<QueryResponse> responses;
  responses.reserve(batch.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

double ShardedEngine::ShardServiceValue(const ShardState& shard,
                                        const FacilityCatalog& catalog,
                                        FacilityId f, QueryStats* stats,
                                        bool* cache_hit) {
  const ResultCache::Key key{f, shard.generation, shard.shard};
  double value = 0.0;
  if (cache_.Get(key, &value)) {
    *cache_hit = true;
    metrics_.AddCacheHit();
    return value;
  }
  *cache_hit = false;
  // Pool threads land here concurrently on the same frozen shard index; the
  // kernel layer underneath (StopGrid neighborhood lists, the cell tables
  // and indexed-ids bitmap, the evaluator) is immutable after freeze, and
  // each thread's candidate mask lives in a thread_local inside
  // EvaluateServiceCells — so a cache miss costs zero allocation on the
  // steady state and no locks.
  value = EvaluateServiceCells(*shard.cells, *shard.eval, catalog.grid(f),
                               stats);
  if (cache_.enabled()) {
    metrics_.AddCacheMiss();
    metrics_.AddCacheEvictions(cache_.Put(key, value));
  }
  return value;
}

std::vector<uint32_t> ShardedEngine::ApplyUpdates(const UpdateBatch& batch) {
  return ApplyUpdatesImpl(batch, /*log_to_wal=*/true);
}

std::vector<uint32_t> ShardedEngine::ApplyUpdatesImpl(const UpdateBatch& batch,
                                                      bool log_to_wal) {
  std::lock_guard<std::mutex> writer_lock(writer_mu_);
  const auto publish_start = std::chrono::steady_clock::now();
  const ShardedSnapshotPtr cur = snapshot();
  const size_t n = cur->shards.size();

  // Route inserts and pre-assign shard-local ids (append positions in each
  // shard's copy-on-write user set), then register global ids — in batch
  // order, so a remove in this same batch can already reference them. The
  // LOGICAL per-shard counts drive the assignment, not the materialized set
  // sizes: a worker's non-owned shards have empty sets but must hand out
  // the same local ids as the worker that owns them, or global ids diverge
  // across the cluster.
  std::vector<std::vector<uint32_t>> shard_inserts(n);  // batch indices
  std::vector<uint32_t> next_local = shard_user_counts_;
  std::vector<UserLocation> new_locations;
  new_locations.reserve(batch.inserts.size());
  for (size_t i = 0; i < batch.inserts.size(); ++i) {
    const auto shard = static_cast<uint32_t>(router_.Route(batch.inserts[i]));
    shard_inserts[shard].push_back(static_cast<uint32_t>(i));
    new_locations.push_back(UserLocation{shard, next_local[shard]++});
  }
  shard_user_counts_ = next_local;
  std::vector<uint32_t> new_ids;
  new_ids.reserve(batch.inserts.size());
  std::vector<std::vector<uint32_t>> shard_removes(n);  // local ids
  {
    std::lock_guard<std::mutex> reg_lock(registry_mu_);
    for (const UserLocation& loc : new_locations) {
      new_ids.push_back(static_cast<uint32_t>(users_.size()));
      users_.push_back(loc);
    }
    for (const uint32_t gid : batch.removes) {
      if (gid >= users_.size()) continue;  // unknown id: ignore, like Remove
      shard_removes[users_[gid].shard].push_back(users_[gid].local_id);
    }
  }

  // Copy-on-write per shard: clone and republish ONLY shards this batch
  // touches; the rest share their state (and cache entries) with `cur`.
  auto next = std::make_shared<ShardedSnapshot>();
  next->version = cur->version + 1;
  next->facilities = cur->facilities;
  next->catalog = cur->catalog;
  next->shards = cur->shards;
  uint64_t removed = 0;
  uint64_t republished = 0;
  for (size_t s = 0; s < n; ++s) {
    // Writes routed to a non-owned shard are someone else's work: the
    // owning worker applies them from the same fanned-out batch, and the
    // registry bookkeeping above already advanced this worker's view.
    if (!Owns(s)) continue;
    if (shard_inserts[s].empty() && shard_removes[s].empty()) continue;
    const ShardState& old = *cur->shards[s];
    auto users = std::make_shared<TrajectorySet>(*old.users);
    std::vector<uint32_t> locals;
    locals.reserve(shard_inserts[s].size());
    for (const uint32_t i : shard_inserts[s]) {
      locals.push_back(users->Add(batch.inserts[i]));
    }
    // The fork shares the cell tables with the published shard state and
    // copies its raster and bitmap on the first write; the freeze folds
    // pending inserts into the tables past 1/8 of them.
    std::unique_ptr<CellIndex> cells = old.cells->Fork(users.get());
    for (const uint32_t local : locals) cells->Insert(local);
    for (const uint32_t local : shard_removes[s]) {
      if (cells->Remove(local)) ++removed;
    }
    cells->Freeze();

    auto state = std::make_shared<ShardState>();
    state->shard = static_cast<uint32_t>(s);
    // Generation advances ONLY for republished shards (this loop skips
    // untouched ones entirely) — the shard_generations() contract that
    // the result cache relies on: the old generation's entries are never
    // looked up again, and LRU eviction reclaims them.
    state->generation = next->version;
    state->cells = std::move(cells);
    state->eval =
        std::make_shared<ServiceEvaluator>(users.get(), options_.tree.model);
    state->users = std::move(users);
    next->shards[s] = std::move(state);
    ++republished;
  }
  // Write-ahead: the batch is logged (and, under --wal-sync=always, on the
  // platter) BEFORE its snapshot becomes visible, so every observable state
  // is "checkpoint + replayed WAL prefix". Replay passes log_to_wal=false —
  // its records are already the log. A failed append is fail-stop:
  // ApplyUpdates has no error channel, and publishing an unlogged batch
  // would silently void the recovery contract.
  if (durability_ != nullptr && log_to_wal) {
    std::string payload;
    net::EncodeUpdateBody(batch.inserts, batch.removes, &payload);
    const Status logged = durability_->Append(next->version, payload);
    TQ_CHECK_MSG(logged.ok(), logged.message().c_str());
  }

  Publish(std::move(next), republished);

  metrics_.AddInserted(new_ids.size());
  metrics_.AddRemoved(removed);
  const auto publish_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - publish_start);
  metrics_.AddPublishCost(static_cast<uint64_t>(publish_ns.count()));
  metrics_.RecordLatency(OpFamily::kPublish,
                         static_cast<uint64_t>(publish_ns.count()));
  return new_ids;
}

}  // namespace tq::runtime
