// Sharded LRU cache memoising EvaluateServiceTQ results for the serving
// engine.
//
// Key = (facility id, shard generation, data shard): a service value is a
// pure function of the shard's user set and the facility's stops (ψ is fixed
// for an engine's lifetime), and the shard's user set is identified by its
// own publish generation (sharded_engine.h) — so a hit is exact, never
// approximate.
// Republishing a single shard makes only that shard's entries unreachable;
// InvalidateShardsBefore() reclaims their memory eagerly on publish, LRU
// eviction reclaims the rest lazily, and the other shards keep hitting.
//
// A second, smaller section memoises gathered TOP-K answers keyed by
// (k, per-shard generation vector): a ranked list is a pure function of
// every shard's user set, so the key carries the whole generation vector
// and a single-shard republish invalidates exactly the lists that shard
// contributed to. Top-k is bound-and-prune, which evaluates only a few
// per-(facility, shard) entries per query, so a top-k QueryResponse
// reports cache_hit solely for memoised whole-answer hits; the per-entry
// lookups its refinement waves perform still count in the hit/miss
// metrics.
//
// Sharding: key-hash partitioning into independently locked shards keeps the
// cache off the critical path — worker threads contend only when they hash
// to the same shard.
#ifndef TQCOVER_RUNTIME_RESULT_CACHE_H_
#define TQCOVER_RUNTIME_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "query/topk.h"
#include "traj/trajectory.h"

namespace tq::runtime {

/// Thread-safe sharded LRU map from (facility, shard generation, shard)
/// to a cached service value. A zero capacity disables the cache (every Get
/// misses, Put is a no-op) — used by benches measuring raw compute scaling.
class ResultCache {
 public:
  struct Key {
    FacilityId facility = 0;
    /// The owning shard's publish generation.
    uint64_t snapshot_version = 0;
    /// Data shard the value was computed on.
    uint32_t shard = 0;

    bool operator==(const Key& o) const {
      return facility == o.facility &&
             snapshot_version == o.snapshot_version && shard == o.shard;
    }
  };

  /// Key of one memoised gathered top-k answer. `gens` holds every data
  /// shard's publish generation at computation time; equality is exact, so
  /// a hit can never mix shard states.
  struct TopKKey {
    size_t k = 0;
    std::vector<uint64_t> gens;

    bool operator==(const TopKKey& o) const {
      return k == o.k && gens == o.gens;
    }
  };

  /// `capacity` is the total per-facility entry budget across all shards.
  /// The top-k section adds max(8, capacity / 64) entries on top of it
  /// (0 disables both sections).
  explicit ResultCache(size_t capacity, size_t num_shards = 8);

  bool enabled() const { return per_shard_capacity_ > 0; }
  size_t num_shards() const { return shards_.size(); }

  /// True and fills `*value` on a hit; refreshes the entry's LRU position.
  bool Get(const Key& key, double* value);

  /// Inserts or refreshes `key`. Returns the number of entries evicted to
  /// make room (0 or 1).
  size_t Put(const Key& key, double value);

  /// Drops every entry of data shard `shard` whose generation is older than
  /// `generation`, leaving other shards' entries untouched (single-shard
  /// publish invalidation). Returns the number dropped.
  size_t InvalidateShardBefore(uint32_t shard, uint64_t generation);

  /// Same, for all of `shards` in one pass over the cache — a write batch
  /// republishing several data shards at one generation invalidates them
  /// with a single scan instead of one per shard. Both passes also drop
  /// top-k entries whose generation vector is stale for an affected shard.
  size_t InvalidateShardsBefore(const std::vector<uint32_t>& shards,
                                uint64_t generation);

  /// True and fills `*ranked` on a memoised top-k answer for exactly this
  /// (k, generation vector); refreshes the entry's LRU position.
  bool GetTopK(const TopKKey& key, std::vector<RankedFacility>* ranked);

  /// Memoises one gathered top-k answer. Returns entries evicted (0 or 1).
  size_t PutTopK(const TopKKey& key, std::vector<RankedFacility> ranked);

  /// Current number of cached entries (sums shard sizes plus top-k entries;
  /// approximate under concurrent mutation).
  size_t size() const;

 private:
  struct Entry {
    Key key;
    double value = 0.0;
  };
  /// splitmix64 finalizer, shared by both key hashers.
  static uint64_t Mix64(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
  }
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // 64-bit mix of the three components.
      const uint64_t h =
          (k.snapshot_version * 0x9e3779b97f4a7c15ull) ^
          (static_cast<uint64_t>(k.facility) << 32) ^
          (static_cast<uint64_t>(k.shard) * 0xd1342543de82ef95ull);
      return static_cast<size_t>(Mix64(h));
    }
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash{}(key) % shards_.size()];
  }

  struct TopKEntry {
    TopKKey key;
    std::vector<RankedFacility> ranked;
  };
  struct TopKKeyHash {
    size_t operator()(const TopKKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.k) << 48;
      for (const uint64_t g : k.gens) {
        h ^= g + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(Mix64(h));
    }
  };

  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Top-k section: answers are few (one per k in steady state) and
  // each is worth a full catalog scan per data shard, so a small single-
  // mutex LRU off the per-facility fast path is enough.
  size_t topk_capacity_ = 0;
  mutable std::mutex topk_mu_;
  std::list<TopKEntry> topk_lru_;  // front = most recently used
  std::unordered_map<TopKKey, std::list<TopKEntry>::iterator, TopKKeyHash>
      topk_index_;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_RESULT_CACHE_H_
