// The Trajectory Quadtree (TQ-tree) — the paper's core contribution (§III).
//
// A whole-trajectory tree (TrajMode::kWhole: the two-point index of §III and
// the full-trajectory index of §III-A) is its CellIndex (cell_index.h): the
// point-mass raster, the indexed-ids bitmap and the point-cell tables, from
// which SO, served-set collection and kMaxRRST's bounds are answered. It
// builds no quadtree and stores no unit.
//
// A segmented tree (TrajMode::kSegmented: every consecutive point pair
// stored as its own unit, §III-A) is the paper's two-level index, walked by
// Algorithms 1-2:
//   level 1: a quadtree whose node E stores, in UL(E), the units that span
//            E's children (internal nodes) or fit inside E (leaves), so
//            longer units live higher in the tree;
//   level 2: per node, a z-order bucket list (ZIndex) grouping co-located,
//            similarly-oriented units — the structure zReduce prunes.
// Its variant is IndexVariant::kBasic — TQ(B): flat per-node lists, no
// z-ordering — or IndexVariant::kZOrder — TQ(Z): z-ordered buckets. Its
// CellIndex keeps the raster and the bitmap, without tables.
//
// The serving engine's shards hold a CellIndex alone.
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

/// Construction parameters. `beta`, `max_depth` and `variant` shape the
/// quadtree, so they matter on segmented trees only.
struct TQTreeOptions {
  /// Node capacity and z-bucket size — the paper's β ("size of a memory
  /// block").
  size_t beta = 64;
  /// Maximum quadtree depth.
  int max_depth = 20;
  IndexVariant variant = IndexVariant::kZOrder;
  TrajMode mode = TrajMode::kWhole;
  /// Service model of the unit upper bounds and the cell structures.
  ServiceModel model;
};

/// Structural statistics of the quadtree (index size accounting of §III-B);
/// all zero on a whole tree, which has none.
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
/// The quadtree accessors (root, node, num_nodes, zindex) serve segmented
/// trees; a whole tree has no node.
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
  /// Indexed trajectories on a whole tree; stored units (segments, and
  /// single-point trajectories as whole units) on a segmented one.
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

  /// Indexes trajectory `traj_id` of the user set: in the cell index, and
  /// on a segmented tree as all of its segments, with an O(h) descent per
  /// segment (§III-C).
  void Insert(uint32_t traj_id);

  /// De-indexes trajectory `traj_id`. Returns false if it was not indexed.
  /// (The TrajectorySet itself is append-only; removal affects the index
  /// only.)
  bool Remove(uint32_t traj_id);

  TQTreeStats ComputeStats() const;

 private:
  /// The z-index rule: TQ(Z) trees build them on their nodes, which only
  /// segmented trees have.
  bool HasZIndexes() const {
    return options_.variant == IndexVariant::kZOrder;
  }

  /// Stores segmented trajectory `traj_id`'s units in the quadtree.
  void InsertUnits(uint32_t traj_id);
  void InsertEntry(const TrajEntry& e);
  void StoreAt(int32_t idx, const TrajEntry& e);
  void MaybeSplit(int32_t idx);
  /// Appends to `path` the root-to-store descent of a unit with `mbr`: the
  /// nodes whose `sub` it adds to, ending at the node that stores it.
  void Descend(const Rect& mbr, std::vector<int32_t>* path) const;
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
