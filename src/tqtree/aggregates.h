// Construction of TrajEntry units and their service upper bounds.
#ifndef TQCOVER_TQTREE_AGGREGATES_H_
#define TQCOVER_TQTREE_AGGREGATES_H_

#include "service/models.h"
#include "tqtree/entry.h"
#include "traj/dataset.h"

namespace tq {

/// Builds the unit for whole trajectory `traj` of `users`.
TrajEntry MakeWholeEntry(const TrajectorySet& users, uint32_t traj,
                         const ServiceModel& model);

/// Builds the unit for segment `seg` (points seg, seg+1) of `traj`.
TrajEntry MakeSegmentEntry(const TrajectorySet& users, uint32_t traj,
                           uint32_t seg, const ServiceModel& model);

/// Per-unit upper bound on the service value the unit can contribute.
///
/// Whole units: 1 for any per-user-normalised model (S(u,f) ≤ 1); the raw
/// point count / length otherwise.
///
/// Segment units: the paper stores per-node totals; to keep the best-first
/// bound sound when one trajectory spans many nodes we attribute
///   * Scenario 1: 1.0 to each segment touching an endpoint of u (serving is
///     non-additive, so each endpoint segment must cover the whole value);
///   * Scenario 2: each point to exactly one owner segment (segment i owns
///     point i+1; segment 0 also owns point 0), so subtree bounds stay exact
///     under the served-mask dedup;
///   * Scenario 3: the segment's own (normalised) length.
double UnitUpperBound(const TrajectorySet& users, uint32_t traj, uint32_t seg,
                      const ServiceModel& model);

}  // namespace tq

#endif  // TQCOVER_TQTREE_AGGREGATES_H_
