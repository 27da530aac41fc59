// Z-order range partitioning of the user set across shards.
//
// The sharded engine (sharded_engine.h) splits the user trajectories into N
// disjoint shards, each owning its own cell index. The router decides, once and
// deterministically, which shard a trajectory belongs to:
//
//   * Every trajectory is keyed by the full-depth Morton code of its FIRST
//     point inside a fixed world rectangle (zorder/zid.h). Co-located users
//     therefore land in the same shard, which keeps a facility query's
//     per-shard work spatially coherent instead of touching every shard's
//     whole index.
//   * The 48-bit Morton key space is cut into N contiguous ranges by N-1
//     split keys chosen at construction so the INITIAL users spread evenly
//     (equal-count quantiles of the sorted key multiset). The ranges cover
//     the entire key space, so every trajectory — including ones inserted
//     later, even outside the original extent (MortonKey clamps to the
//     world) — lands in exactly one shard.
//   * Split keys never change after construction: routing is stable across
//     snapshot republishes by design, so a shard's user population only
//     changes when a write batch explicitly touches it.
#ifndef TQCOVER_RUNTIME_SHARD_ROUTER_H_
#define TQCOVER_RUNTIME_SHARD_ROUTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "traj/dataset.h"

namespace tq::runtime {

/// Immutable Z-order range partitioner. Cheap to copy; thread-safe after
/// construction (all queries are const reads of frozen state).
class ShardRouter {
 public:
  /// Single-shard router (everything routes to shard 0).
  ShardRouter() = default;

  /// Builds an equal-count partition of `users` into `num_shards` Morton key
  /// ranges over `world`. `num_shards` is clamped to >= 1; with fewer users
  /// than shards (or heavy key duplication) some shards may start empty.
  ShardRouter(const TrajectorySet& users, const Rect& world,
              size_t num_shards);

  /// Adopts a previously frozen partition verbatim (checkpoint recovery):
  /// the manifest records world + split keys, and routing must reproduce the
  /// writing process's decisions exactly. `splits` must be ascending.
  ShardRouter(const Rect& world, std::vector<uint64_t> splits);

  size_t num_shards() const { return splits_.size() + 1; }
  const Rect& world() const { return world_; }

  /// N-1 ascending split keys; shard i owns keys in [splits[i-1], splits[i]).
  const std::vector<uint64_t>& splits() const { return splits_; }

  /// Morton key of the trajectory's routing point (its first point).
  uint64_t KeyOf(std::span<const Point> traj) const;

  /// Shard owning `key`: the number of split keys <= key.
  size_t RouteKey(uint64_t key) const;

  /// Shard owning the trajectory. Total: every trajectory maps to exactly
  /// one shard in [0, num_shards()).
  size_t Route(std::span<const Point> traj) const {
    return RouteKey(KeyOf(traj));
  }

 private:
  Rect world_ = Rect::Of(0, 0, 1, 1);
  std::vector<uint64_t> splits_;  // ascending; may contain duplicates
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_SHARD_ROUTER_H_
