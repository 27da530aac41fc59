#include "runtime/result_cache.h"

#include <algorithm>

namespace tq::runtime {

ResultCache::ResultCache(size_t capacity, size_t num_shards) {
  // No more lock shards than entries, and the budget split so the shards'
  // capacities add up to exactly `capacity`.
  const size_t n = std::min(std::max<size_t>(1, num_shards), capacity);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->capacity = capacity / n + (i < capacity % n ? 1 : 0);
  }
}

bool ResultCache::Get(const Key& key, double* value) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *value = it->second->value;
  return true;
}

size_t ResultCache::Put(const Key& key, double value) {
  if (!enabled()) return 0;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = value;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return 0;
  }
  shard.lru.push_front(Entry{key, value});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() <= shard.capacity) return 0;
  shard.index.erase(shard.lru.back().key);
  shard.lru.pop_back();
  return 1;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace tq::runtime
