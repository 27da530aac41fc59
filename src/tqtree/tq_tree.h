// The Trajectory Quadtree (TQ-tree) — the paper's core contribution (§III).
//
// Two-level index over user trajectories:
//   level 1: a quadtree whose node E stores, in UL(E), the trajectories (or
//            segments) that span E's children (internal nodes) or fit inside
//            E (leaves), so longer units live higher in the tree;
//   level 2: per node, a z-order bucket list (ZIndex) grouping co-located,
//            similarly-oriented units — the structure zReduce prunes (on
//            segmented TQ(Z) trees; whole trees answer from cell tables).
//
// Variants (all from the paper's evaluation):
//   * IndexVariant::kBasic  — TQ(B): flat per-node lists, no z-ordering.
//   * IndexVariant::kZOrder — TQ(Z): z-ordered buckets (segmented trees).
//   * TrajMode::kWhole      — trajectories stored whole: the two-point index
//                             of §III and the full-trajectory index of §III-A.
//   * TrajMode::kSegmented  — every consecutive point pair stored as its own
//                             unit (the segmented index of §III-A).
//
// The tree's grid-cell structures (the point-mass raster, the indexed-ids
// bitmap and, on whole trees, the point-cell tables) live in its CellIndex
// (cell_index.h), which whole-trajectory SO, served-set collection and
// kMaxRRST's bounds read instead of walking. The serving engine's shards
// hold a CellIndex alone; the quadtree is the library's index.
#ifndef TQCOVER_TQTREE_TQ_TREE_H_
#define TQCOVER_TQTREE_TQ_TREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "service/models.h"
#include "tqtree/cell_index.h"
#include "tqtree/node.h"
#include "traj/dataset.h"

namespace tq {

/// Which second-level organisation a tree uses.
enum class IndexVariant { kBasic, kZOrder };

/// Construction parameters.
struct TQTreeOptions {
  /// Node capacity and z-bucket size — the paper's β ("size of a memory
  /// block").
  size_t beta = 64;
  /// Maximum quadtree depth.
  int max_depth = 20;
  IndexVariant variant = IndexVariant::kZOrder;
  TrajMode mode = TrajMode::kWhole;
  /// Service model the per-node upper bounds are computed for.
  ServiceModel model;
};

/// Structural statistics (index size accounting of §III-B).
struct TQTreeStats {
  size_t num_nodes = 0;
  size_t num_leaves = 0;
  size_t num_entries = 0;
  size_t max_depth = 0;
  size_t max_list_len = 0;
  double avg_list_len = 0.0;

  std::string ToString() const;
};

/// The TQ-tree. Bulk-built over a TrajectorySet (not owned; must outlive the
/// tree); supports dynamic Insert/Remove (§III-C). Not thread-safe until
/// frozen: segmented TQ(Z) trees rebuild dropped z-indexes on first query.
class TQTree {
 public:
  /// Bulk-builds the tree over every trajectory of `users`.
  TQTree(const TrajectorySet* users, TQTreeOptions options);
  /// Bulk-builds the tree over the trajectories `ids` of `users` alone (each
  /// id < users->size(), no repeats), inserted in the given order. The world
  /// and the prune mode still follow the whole set.
  TQTree(const TrajectorySet* users, TQTreeOptions options,
         std::span<const uint32_t> ids);

  TQTree(const TQTree&) = delete;
  TQTree& operator=(const TQTree&) = delete;

  const TQTreeOptions& options() const { return options_; }
  const TrajectorySet& users() const { return *users_; }
  const Rect& world() const { return cells_.world(); }
  ZPruneMode prune_mode() const { return prune_mode_; }

  int32_t root() const { return 0; }
  const TQNode& node(int32_t idx) const {
    return nodes_[static_cast<size_t>(idx)];
  }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_units() const { return num_units_; }

  /// The tree's cell structures. Whole trees always have tables (their
  /// kind is the tree's prune mode); segmented trees have none, so their
  /// MarkCandidates returns false and their CellUpperBound is the raster's
  /// mass alone.
  const CellIndex& cells() const { return cells_; }

  /// Z-index over `idx`'s list, building it if an update dropped it.
  /// Returns nullptr for empty lists and on trees without z-indexes (see
  /// HasZIndexes), whose walks scan the linear list instead.
  const ZIndex* zindex(int32_t idx);

  /// Makes queries read-only until the next Insert/Remove: folds pending
  /// inserts into the cell tables past 1/8 of them (CellIndex::Freeze) and,
  /// on segmented TQ(Z) trees, rebuilds every z-index an update dropped.
  /// Every tree is frozen at construction.
  void Freeze();
  /// Freeze()'s former name, still called by bench_layers/.
  void BuildAllZIndexes() { Freeze(); }

  /// Inserts trajectory `traj_id` of the user set (as a whole unit or as all
  /// of its segments, per the tree mode). O(h) descent per unit (§III-C).
  void Insert(uint32_t traj_id);

  /// De-indexes trajectory `traj_id`. Returns false if it was not indexed.
  /// (The TrajectorySet itself is append-only; removal affects the index
  /// only.)
  bool Remove(uint32_t traj_id);

  TQTreeStats ComputeStats() const;

  /// Total of all per-node `sub` consistency: root sub must equal the sum of
  /// every stored unit's upper bound. Used by tests / TQ_DCHECK audits.
  double RootUpperBound() const { return node(0).sub; }

 private:
  /// The z-index rule: only segmented TQ(Z) trees, served by walks, build
  /// them. Whole trees answer from their cell tables and build none.
  bool HasZIndexes() const {
    return options_.variant == IndexVariant::kZOrder &&
           options_.mode == TrajMode::kSegmented;
  }

  /// Stores trajectory `traj_id`'s units in the quadtree.
  void InsertUnits(uint32_t traj_id);
  void InsertEntry(const TrajEntry& e);
  void StoreAt(int32_t idx, const TrajEntry& e);
  void MaybeSplit(int32_t idx);
  bool RemoveUnit(uint32_t traj_id, uint32_t seg_index, const Rect& unit_mbr,
                  double ub);
  /// Child of `idx` whose rect contains `mbr`, or -1.
  int32_t ChildContaining(int32_t idx, const Rect& mbr) const;

  const TrajectorySet* users_;
  TQTreeOptions options_;
  CellIndex cells_;
  ZPruneMode prune_mode_;
  std::vector<TQNode> nodes_;
  size_t num_units_ = 0;
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_TQ_TREE_H_
