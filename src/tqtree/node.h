// The q-node of a TQ-tree (§III).
#ifndef TQCOVER_TQTREE_NODE_H_
#define TQCOVER_TQTREE_NODE_H_

#include <array>
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
///
/// Copyable: the persistent page store (tq_tree.h) duplicates whole nodes
/// when a shared page is first written. The z-index is an immutable shared
/// object so a copied-but-unmodified node keeps the already-built index
/// instead of rebuilding it.
struct TQNode {
  Rect rect;
  int32_t first_child = -1;  // children contiguous in the node id space
  int16_t depth = 0;

  /// UL(E): the node's trajectory (unit) list.
  std::vector<TrajEntry> entries;

  /// Upper bound over this node's own list only.
  double local_ub = 0.0;
  /// Upper bound over the whole subtree (the paper's "sub").
  double sub = 0.0;

  /// Z-order bucket index over `entries`, built only on segmented TQ(Z)
  /// trees (TQTree::zindex); immutable once built, shared across page
  /// copies and forked trees. Every write to `entries` drops it; null on
  /// a non-empty list means stale.
  std::shared_ptr<const ZIndex> zindex;

  /// Entry count at which the last split attempt found nothing movable;
  /// retried only once the list doubles (keeps inserts amortised-cheap).
  uint32_t split_failed_at = 0;

  bool IsLeaf() const { return first_child < 0; }
};

/// Nodes per page of the persistent node store: 1 << kPageShift. Small pages
/// keep the copy amplification of a root-to-leaf path copy low (a write
/// batch duplicates only the pages its paths touch; every node sharing a
/// page with a touched node rides along), while the page table stays a
/// dense vector of num_nodes / kPageSize shared_ptrs.
inline constexpr int kNodePageShift = 3;
inline constexpr size_t kNodePageSize = size_t{1} << kNodePageShift;
inline constexpr size_t kNodePageMask = kNodePageSize - 1;

/// One reference-counted page of TQNodes. `epoch` tags the tree instance
/// that may write the page in place: a fork re-tags both trees, so each
/// side copies a shared page on first write (see TQTree::MutableNode).
struct NodePage {
  uint64_t epoch = 0;
  std::array<TQNode, kNodePageSize> nodes;

  NodePage() = default;
  NodePage(const NodePage& other, uint64_t new_epoch)
      : epoch(new_epoch), nodes(other.nodes) {}
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_NODE_H_
