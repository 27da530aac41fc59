// Sharded LRU cache memoising per-shard service values (EvaluateServiceCells
// on one shard's cell index) for the serving engine.
//
// Key = (facility id, shard generation, data shard): a service value is a
// pure function of the shard's user set and the facility's stops (ψ is fixed
// for an engine's lifetime), and the shard's user set is identified by its
// own publish generation (sharded_engine.h) — so a hit is exact, never
// approximate. A publish gives a republished shard a new generation, so its
// old entries are never looked up again; LRU eviction reclaims them like any
// other cold entry, capacity bounds the memory, and the other shards keep
// hitting.
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
    uint64_t generation = 0;
    /// Data shard the value was computed on.
    uint32_t shard = 0;

    bool operator==(const Key& o) const {
      return facility == o.facility && generation == o.generation &&
             shard == o.shard;
    }
  };

  /// `capacity` is the total entry budget across all lock shards (at most
  /// `num_shards` of them, each holding its share; 0 disables the cache).
  explicit ResultCache(size_t capacity, size_t num_shards = 8);

  bool enabled() const { return !shards_.empty(); }
  size_t num_shards() const { return shards_.size(); }

  /// True and fills `*value` on a hit; refreshes the entry's LRU position.
  bool Get(const Key& key, double* value);

  /// Inserts or refreshes `key`. Returns the number of entries evicted to
  /// make room (0 or 1).
  size_t Put(const Key& key, double value);

  /// Current number of cached entries (sums shard sizes; approximate under
  /// concurrent mutation). Never above the capacity.
  size_t size() const;

 private:
  struct Entry {
    Key key;
    double value = 0.0;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // 64-bit mix of the three components, then the splitmix64 finalizer.
      uint64_t h = (k.generation * 0x9e3779b97f4a7c15ull) ^
                   (static_cast<uint64_t>(k.facility) << 32) ^
                   (static_cast<uint64_t>(k.shard) * 0xd1342543de82ef95ull);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 31;
      return static_cast<size_t>(h);
    }
  };
  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash{}(key) % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_RESULT_CACHE_H_
