// The q-node of a segmented TQ-tree (§III).
#ifndef TQCOVER_TQTREE_NODE_H_
#define TQCOVER_TQTREE_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/rect.h"
#include "tqtree/entry.h"
#include "tqtree/zindex.h"

namespace tq {

/// One quadtree node. Leaf nodes hold intra-node units (both/all unit points
/// inside the node); internal nodes hold inter-node units (units spanning at
/// least two immediate children). `sub` is the paper's per-node upper bound
/// on the total service value of everything stored in the subtree rooted
/// here (including this node's own list).
struct TQNode {
  Rect rect;
  int32_t first_child = -1;  // children contiguous in the node id space
  int16_t depth = 0;

  /// UL(E): the node's trajectory (unit) list.
  std::vector<TrajEntry> entries;

  /// Upper bound over the whole subtree (the paper's "sub").
  double sub = 0.0;

  /// Z-order bucket index over `entries`, built only on segmented TQ(Z)
  /// trees (TQTree::zindex). Every write to `entries` drops it; null on a
  /// non-empty list means stale.
  std::unique_ptr<const ZIndex> zindex;

  /// Entry count at which the last split attempt found nothing movable;
  /// retried only once the list doubles (keeps inserts amortised-cheap).
  uint32_t split_failed_at = 0;

  bool IsLeaf() const { return first_child < 0; }
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_NODE_H_
