#include "tqtree/aggregates.h"

#include "common/check.h"
#include "geom/distance.h"

namespace tq {

double UnitUpperBound(const TrajectorySet& users, uint32_t traj, uint32_t seg,
                      const ServiceModel& model) {
  if (seg == kWholeUnit) {
    switch (model.scenario) {
      case Scenario::kEndpoints:
        return 1.0;
      case Scenario::kPointCount:
        return model.normalization == Normalization::kPerUser
                   ? 1.0
                   : static_cast<double>(users.NumPoints(traj));
      case Scenario::kLength:
        return model.normalization == Normalization::kPerUser
                   ? 1.0
                   : users.length(traj);
    }
    return 1.0;
  }
  const size_t n = users.NumPoints(traj);
  TQ_DCHECK(seg + 1 < n);
  const uint32_t last_seg = static_cast<uint32_t>(n) - 2;
  switch (model.scenario) {
    case Scenario::kEndpoints:
      // Non-additive: each endpoint-touching segment must bound the full
      // value on its own (see header).
      return (seg == 0 || seg == last_seg) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      const double owned = (seg == 0) ? 2.0 : 1.0;  // seg i owns point i+1
      return model.normalization == Normalization::kPerUser
                 ? owned / static_cast<double>(n)
                 : owned;
    }
    case Scenario::kLength: {
      const auto pts = users.points(traj);
      const double seg_len = Distance(pts[seg], pts[seg + 1]);
      if (model.normalization == Normalization::kPerUser) {
        const double total = users.length(traj);
        return total > 0.0 ? seg_len / total : 0.0;
      }
      return seg_len;
    }
  }
  return 0.0;
}

TrajEntry MakeWholeEntry(const TrajectorySet& users, uint32_t traj,
                         const ServiceModel& model) {
  const auto pts = users.points(traj);
  TrajEntry e;
  e.traj_id = traj;
  e.seg_index = kWholeUnit;
  e.start = pts.front();
  e.end = pts.back();
  e.mbr = users.mbr(traj);
  e.ub = UnitUpperBound(users, traj, kWholeUnit, model);
  return e;
}

TrajEntry MakeSegmentEntry(const TrajectorySet& users, uint32_t traj,
                           uint32_t seg, const ServiceModel& model) {
  const auto pts = users.points(traj);
  TQ_DCHECK(seg + 1 < pts.size());
  TrajEntry e;
  e.traj_id = traj;
  e.seg_index = seg;
  e.start = pts[seg];
  e.end = pts[seg + 1];
  e.mbr = Rect::Empty();
  e.mbr.Include(e.start);
  e.mbr.Include(e.end);
  e.ub = UnitUpperBound(users, traj, seg, model);
  return e;
}

}  // namespace tq
