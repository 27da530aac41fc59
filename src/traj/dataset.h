// Columnar container for a set of trajectories (users or facilities).
#ifndef TQCOVER_TRAJ_DATASET_H_
#define TQCOVER_TRAJ_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "traj/trajectory.h"

namespace tq {

/// Owning, append-only trajectory store. Points live in one flat array;
/// per-trajectory offsets and lengths are materialised at Add() time so
/// service evaluation never re-derives them.
class TrajectorySet {
 public:
  TrajectorySet() = default;

  /// Appends a trajectory (>= 1 point; a 2-point trajectory is a
  /// source-destination pair). Returns its id.
  uint32_t Add(std::span<const Point> points);

  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  std::span<const Point> points(uint32_t id) const {
    return std::span<const Point>(points_.data() + offsets_[id],
                                  offsets_[id + 1] - offsets_[id]);
  }
  TrajectoryView view(uint32_t id) const {
    return TrajectoryView{id, points(id)};
  }
  size_t NumPoints(uint32_t id) const {
    return offsets_[id + 1] - offsets_[id];
  }
  /// Computed from the points on each call: only index construction asks.
  Rect mbr(uint32_t id) const { return Rect::BoundingBox(points(id)); }
  double length(uint32_t id) const { return lengths_[id]; }

  /// Total number of points across all trajectories.
  size_t TotalPoints() const { return points_.size(); }

  /// Bounding box of the whole set.
  Rect BoundingBox() const;

  /// Reserves storage for `num_trajectories` with `avg_points` each.
  void Reserve(size_t num_trajectories, size_t avg_points);

 private:
  std::vector<Point> points_;
  std::vector<size_t> offsets_ = {0};
  std::vector<double> lengths_;
};

}  // namespace tq

#endif  // TQCOVER_TRAJ_DATASET_H_
