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
// Persistent storage (the serving runtime's snapshot substrate): nodes live
// in immutable, reference-counted pages (NodePage, node.h) addressed through
// a per-tree page table, id -> pages_[id >> kNodePageShift]. Fork() produces
// a new tree sharing EVERY page with its parent in O(num_pages) pointer
// copies; a subsequent Insert/Remove on either tree path-copies only the
// pages its root-to-leaf paths (and split allocations) touch, re-tagging
// them with the writing tree's epoch. Untouched pages (with the z-indexes a
// segmented TQ(Z) tree built) stay shared, so publishing a small write batch
// costs O(batch × depth) node copies instead of a full-tree clone.
#ifndef TQCOVER_TQTREE_TQ_TREE_H_
#define TQCOVER_TQTREE_TQ_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/rect.h"
#include "service/models.h"
#include "tqtree/node.h"
#include "traj/dataset.h"

namespace tq {

class PointCellTable;  // tqtree/point_raster.h
class PointRaster;     // tqtree/point_raster.h
class StopGrid;        // service/stop_grid.h

/// Which second-level organisation a tree uses.
enum class IndexVariant { kBasic, kZOrder };

/// Whether trajectories are stored whole or as independent segments.
enum class TrajMode { kWhole, kSegmented };

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

/// Copy-on-write accounting since this tree was forked (all zero for built
/// trees). `nodes_copied` counts the nodes living in pages this tree had to
/// duplicate before writing — the physical publish cost a write batch pays;
/// `pages_shared` is how many of the fork-time pages are still shared with
/// the parent snapshot.
struct CowStats {
  uint64_t pages_copied = 0;
  uint64_t nodes_copied = 0;
  uint64_t pages_at_fork = 0;

  uint64_t pages_shared() const {
    return pages_at_fork > pages_copied ? pages_at_fork - pages_copied : 0;
  }
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
  /// and the prune mode still follow the whole set, like a fork's. This is
  /// the one rebuild of a shard from its users and indexed ids: recovery
  /// runs it on a checkpoint, compaction on the live tree.
  TQTree(const TrajectorySet* users, TQTreeOptions options,
         std::span<const uint32_t> ids);

  // A plain copy would share pages AND the ownership epoch — both sides
  // would then write shared pages in place. Fork() is the only sanctioned
  // way to duplicate a tree.
  TQTree(const TQTree&) = delete;
  TQTree& operator=(const TQTree&) = delete;

  const TQTreeOptions& options() const { return options_; }
  const TrajectorySet& users() const { return *users_; }
  const Rect& world() const { return world_; }
  ZPruneMode prune_mode() const { return prune_mode_; }

  int32_t root() const { return 0; }
  const TQNode& node(int32_t idx) const {
    return pages_[static_cast<size_t>(idx) >> kNodePageShift]
        ->nodes[static_cast<size_t>(idx) & kNodePageMask];
  }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_pages() const { return pages_.size(); }
  size_t num_units() const { return num_units_; }

  /// Structurally-shared copy: the fork shares every node page (and any
  /// z-index on it) with this tree; both sides then copy pages on first
  /// write, so neither can disturb the other. `users` must be the same
  /// trajectory set or an append-only extension of it (ids are stable), and
  /// must outlive the fork. Cost: O(num_pages) shared_ptr copies — this is
  /// the snapshot-publish primitive of the concurrent runtime.
  ///
  /// After the fork, the PARENT also copies on write (it no longer owns any
  /// page), so retained older snapshots stay bit-identical no matter which
  /// side is written next.
  ///
  /// Rare slow path: if the extended user set flips the tree's
  /// soundness-preserving prune mode (a longer trajectory appears in a
  /// two-point whole tree), the fork drops the shared cell tables, whose
  /// kind follows the mode, until its next Freeze() rebuilds them. Only a
  /// whole tree's mode can flip, and whole trees carry no z-index, so the
  /// fork still shares every page.
  std::unique_ptr<TQTree> Fork(const TrajectorySet* users);

  /// Copy-on-write accounting since the last Fork() that created this tree.
  const CowStats& cow_stats() const { return cow_stats_; }

  /// Exact-check candidate filter of whole-trajectory trees. Replaces
  /// `mask` with one bit per id of users() and sets the bit of every
  /// trajectory that may score for a facility with stops `stops` and
  /// radius `psi`, from the point-cell tables' cells near the stops:
  ///   * kStartEnd trees (Scenario 1, and Scenario 3 on two-point units),
  ///     where a unit scores only with both endpoints within ψ: the
  ///     trajectories whose source cell AND destination cell are near. With
  ///     `any_endpoint`, source OR destination — the partially served users
  ///     served-set collection keeps (Lemma 1);
  ///   * kStartOrEnd and kMbr trees: the trajectories with any point in a
  ///     near cell (`any_endpoint` changes nothing);
  /// plus, in every form, each trajectory inserted since the tables were
  /// built; then ANDed with the indexed-ids bitmap, so no bit of a
  /// trajectory Remove() de-indexed is ever set. A unit whose bit is clear
  /// scores exactly 0 (with `any_endpoint`, serves no point at all), so
  /// summing the exact values of the set bits alone gives SO.
  ///
  /// Returns false, leaving `mask` alone, when the tree has no tables
  /// (segmented trees, and a fork whose prune mode changed until its next
  /// freeze): every unit is then a candidate. Thread-safe on a frozen tree.
  bool MarkCandidates(std::span<const Point> stops, double psi,
                      std::vector<uint64_t>* mask,
                      bool any_endpoint = false) const;

  /// True when MarkCandidates filters (the tree has point-cell tables).
  bool has_cell_tables() const { return cells_ != nullptr; }

  /// Ids of the indexed trajectories (inserted and not fully removed),
  /// ascending.
  std::vector<uint32_t> IndexedTrajectories() const;

  /// Cheap, sound upper bound on SO(U, f) for the facility behind `grid`
  /// from the cell structures alone — no node or bucket is visited: the
  /// smaller of the raster's mass near the stops and Σ UnitUpperBound over
  /// the MarkCandidates set, the sum inflated by kRasterDriftInflation. A
  /// tree without tables (see MarkCandidates) is bounded by the raster's
  /// mass alone. The only facility bound: the key of the library's
  /// best-first kMaxRRST and of the sharded engine's bound sweep.
  ///
  /// With tables and a non-null `candidates`, also appends the ascending
  /// ids of that MarkCandidates set, so a caller can later sum SO over
  /// them without marking the mask again. Thread-safe on a frozen tree.
  double CellUpperBound(const StopGrid& grid,
                        std::vector<uint32_t>* candidates = nullptr) const;

  /// Z-index over `idx`'s list, building it if an update dropped it.
  /// Returns nullptr for empty lists and on trees without z-indexes (see
  /// HasZIndexes), whose walks scan the linear list instead.
  const ZIndex* zindex(int32_t idx);

  /// Makes queries read-only until the next Insert/Remove — the step the
  /// concurrent runtime performs before publishing a tree snapshot. Builds
  /// the point-mass raster if missing; on whole-trajectory trees, the
  /// point-cell tables (rebuilt only once the inserts pending since their
  /// build exceed 1/8 of the trajectories they hold); on segmented TQ(Z)
  /// trees, every z-index an update dropped (on a fork, O(batch × depth) of
  /// them). Every tree is frozen at construction.
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
  friend class TQTreeBuilderAccess;  // test hook

  /// Fork()'s constructor: sets up members without building.
  struct ForkTag {};
  TQTree(const TrajectorySet* users, TQTreeOptions options, ForkTag);

  /// Writable reference to node `idx`: copies its page first if the page is
  /// shared with (or still owned by) another tree instance. References stay
  /// valid until another CopyPage of the SAME page — appends never move
  /// existing nodes, unlike the old contiguous node array.
  TQNode& MutableNode(int32_t idx) {
    const auto p = static_cast<size_t>(idx) >> kNodePageShift;
    if (pages_[p]->epoch != epoch_) CopyPage(p);
    return pages_[p]->nodes[static_cast<size_t>(idx) & kNodePageMask];
  }
  void CopyPage(size_t page_index);
  /// Sets (`on`) or clears `traj_id`'s bit of the indexed-ids bitmap,
  /// copying a bitmap shared with forks first.
  void SetIndexed(uint32_t traj_id, bool on);
  /// Builds the point-mass raster from the currently indexed trajectories
  /// (first freeze).
  void BuildRaster();
  /// Rebuilds the point-cell tables from the currently indexed trajectories
  /// and empties the pending list.
  void BuildCellTables();
  /// MarkCandidates over precomputed near-stop `cells`.
  void MarkCandidateCells(std::span<const uint32_t> cells, bool any_endpoint,
                          std::vector<uint64_t>* mask) const;
  /// Deposits (+1) / withdraws (-1) `traj_id`'s point weights, copying a
  /// raster shared with forks first (raster copy-on-write).
  void RasterApply(uint32_t traj_id, double sign);
  /// Appends a default node, growing (and if needed copy-owning) the last
  /// page; returns its id.
  int32_t AppendNode();
  /// The z-index rule: only segmented TQ(Z) trees, served by walks, build
  /// them. A whole tree walks only as a flipped fork before its next freeze
  /// and then scans the linear list, so it builds none at all.
  bool HasZIndexes() const {
    return options_.variant == IndexVariant::kZOrder &&
           options_.mode == TrajMode::kSegmented;
  }

  void InsertEntry(const TrajEntry& e);
  void StoreAt(int32_t idx, const TrajEntry& e);
  void MaybeSplit(int32_t idx);
  bool RemoveUnit(uint32_t traj_id, uint32_t seg_index, const Rect& unit_mbr,
                  double ub);
  /// Child of `idx` whose rect contains `mbr`, or -1.
  int32_t ChildContaining(int32_t idx, const Rect& mbr) const;

  const TrajectorySet* users_;
  TQTreeOptions options_;
  Rect world_;
  ZPruneMode prune_mode_;
  /// Page-table storage: node id -> pages_[id >> shift]->nodes[id & mask].
  /// Pages are shared across forked trees; epoch_ tags the pages this
  /// instance may write in place.
  std::vector<std::shared_ptr<NodePage>> pages_;
  size_t num_nodes_ = 0;
  uint64_t epoch_ = 0;
  CowStats cow_stats_;
  size_t num_units_ = 0;
  size_t max_points_ = 0;
  /// Point-mass raster for CellUpperBound(); built on first freeze, shared
  /// with forks until either side writes (raster_owned_ gates in-place
  /// mutation, mirroring the page epochs). Null until frozen.
  std::shared_ptr<PointRaster> raster_;
  bool raster_owned_ = false;
  /// One bit per indexed trajectory id: Insert sets it, a full Remove
  /// clears it. Never null; shared with forks until either side writes
  /// (indexed_owned_, like raster_owned_). Grows on demand; missing words
  /// read as zero.
  std::shared_ptr<std::vector<uint64_t>> indexed_ =
      std::make_shared<std::vector<uint64_t>>();
  bool indexed_owned_ = true;
  /// Point-cell tables for MarkCandidates(); built at freeze on
  /// whole-trajectory trees, immutable and shared with forks. kStartEnd
  /// trees list sources in `cells_` and destinations in `end_cells_`; other
  /// trees list every point in `cells_` and have no `end_cells_`.
  /// Trajectories inserted after the build are candidates via
  /// `cell_pending_` (per tree, copied by Fork). Removed ids stay listed in
  /// both; MarkCandidateCells clears them with `indexed_`.
  std::shared_ptr<const PointCellTable> cells_;
  std::shared_ptr<const PointCellTable> end_cells_;
  std::vector<uint32_t> cell_pending_;
};

/// Derives the soundness-preserving prune mode for a tree configuration (see
/// ZPruneMode). `max_points` is the maximum trajectory point count.
ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points);

}  // namespace tq

#endif  // TQCOVER_TQTREE_TQ_TREE_H_
