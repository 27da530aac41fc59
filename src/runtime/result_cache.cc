#include "runtime/result_cache.h"

#include <algorithm>

namespace tq::runtime {

ResultCache::ResultCache(size_t capacity, size_t num_shards) {
  const size_t n = std::max<size_t>(1, num_shards);
  // Round the per-shard budget up so the total is never below `capacity`.
  per_shard_capacity_ = capacity == 0 ? 0 : (capacity + n - 1) / n;
  // A small top-k section ON TOP of `capacity` (see header) memoises
  // gathered answers; they are few but each one saves a full per-shard
  // catalog sweep.
  topk_capacity_ = capacity == 0 ? 0 : std::max<size_t>(8, capacity / 64);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
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
  if (shard.lru.size() <= per_shard_capacity_) return 0;
  shard.index.erase(shard.lru.back().key);
  shard.lru.pop_back();
  return 1;
}

bool ResultCache::GetTopK(const TopKKey& key,
                          std::vector<RankedFacility>* ranked) {
  if (topk_capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(topk_mu_);
  const auto it = topk_index_.find(key);
  if (it == topk_index_.end()) return false;
  topk_lru_.splice(topk_lru_.begin(), topk_lru_, it->second);
  *ranked = it->second->ranked;
  return true;
}

size_t ResultCache::PutTopK(const TopKKey& key,
                            std::vector<RankedFacility> ranked) {
  if (topk_capacity_ == 0) return 0;
  std::lock_guard<std::mutex> lock(topk_mu_);
  const auto it = topk_index_.find(key);
  if (it != topk_index_.end()) {
    it->second->ranked = std::move(ranked);
    topk_lru_.splice(topk_lru_.begin(), topk_lru_, it->second);
    return 0;
  }
  topk_lru_.push_front(TopKEntry{key, std::move(ranked)});
  topk_index_.emplace(key, topk_lru_.begin());
  if (topk_lru_.size() <= topk_capacity_) return 0;
  topk_index_.erase(topk_lru_.back().key);
  topk_lru_.pop_back();
  return 1;
}

size_t ResultCache::InvalidateShardBefore(uint32_t shard,
                                          uint64_t generation) {
  return InvalidateShardsBefore({shard}, generation);
}

size_t ResultCache::InvalidateShardsBefore(
    const std::vector<uint32_t>& shards, uint64_t generation) {
  if (shards.empty()) return 0;
  size_t dropped = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    for (auto it = s->lru.begin(); it != s->lru.end();) {
      if (it->key.snapshot_version < generation &&
          std::find(shards.begin(), shards.end(), it->key.shard) !=
              shards.end()) {
        s->index.erase(it->key);
        it = s->lru.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  // Per-shard top-k invalidation: a gathered answer dies exactly when one
  // of the republished shards contributed an older generation to its key.
  const auto stale = [&shards, generation](const TopKKey& key) {
    for (const uint32_t shard : shards) {
      if (shard < key.gens.size() && key.gens[shard] < generation) {
        return true;
      }
    }
    return false;
  };
  std::lock_guard<std::mutex> lock(topk_mu_);
  for (auto it = topk_lru_.begin(); it != topk_lru_.end();) {
    if (stale(it->key)) {
      topk_index_.erase(it->key);
      it = topk_lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  std::lock_guard<std::mutex> lock(topk_mu_);
  total += topk_lru_.size();
  return total;
}

}  // namespace tq::runtime
