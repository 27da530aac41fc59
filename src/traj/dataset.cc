#include "traj/dataset.h"

#include "common/check.h"
#include "geom/distance.h"

namespace tq {

uint32_t TrajectorySet::Add(std::span<const Point> points) {
  TQ_CHECK_MSG(!points.empty(), "trajectory must have at least one point");
  const auto id = static_cast<uint32_t>(size());
  points_.insert(points_.end(), points.begin(), points.end());
  offsets_.push_back(points_.size());
  lengths_.push_back(PolylineLength(points));
  return id;
}

Rect TrajectorySet::BoundingBox() const {
  return Rect::BoundingBox(points_);
}

void TrajectorySet::Reserve(size_t num_trajectories, size_t avg_points) {
  points_.reserve(num_trajectories * avg_points);
  offsets_.reserve(num_trajectories + 1);
  lengths_.reserve(num_trajectories);
}

}  // namespace tq
