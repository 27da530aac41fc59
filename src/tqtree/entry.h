// The unit stored by a TQ-tree: either a whole trajectory (two-point or
// full-trajectory mode, §III) or one segment of a trajectory (segmented
// mode, §III-A).
#ifndef TQCOVER_TQTREE_ENTRY_H_
#define TQCOVER_TQTREE_ENTRY_H_

#include <cstdint>

#include "geom/point.h"
#include "geom/rect.h"

namespace tq {

/// seg_index value marking a whole-trajectory unit.
inline constexpr uint32_t kWholeUnit = 0xFFFFFFFFu;

/// One storable unit in a q-node's trajectory list UL(E).
struct TrajEntry {
  uint32_t traj_id = 0;
  uint32_t seg_index = kWholeUnit;  // segment i joins points i and i+1
  Point start;                      // first point of the unit
  Point end;                        // last point of the unit
  Rect mbr;                         // bounding box of all unit points
  /// Maximum service value this unit can still contribute under the tree's
  /// service model — the per-unit share of the node upper bound "sub" (§III).
  double ub = 0.0;

  bool IsWhole() const { return seg_index == kWholeUnit; }
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_ENTRY_H_
