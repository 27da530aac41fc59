// The cell index: every grid-cell structure a whole-trajectory SO or a
// facility bound reads (point_raster.h), without the quadtree — the
// point-mass raster, the indexed-ids bitmap and, optionally, the point-cell
// tables with the pending list of trajectories inserted since their build.
// A TQTree owns one (with tables on whole trees, without on segmented
// ones); a serving shard is one alone, since the engine answers every SO
// and every bound from the cells.
//
// Fork() is the engine's snapshot-publish primitive: the fork shares the
// raster, the bitmap and the tables with its parent, and whichever side
// writes first copies the raster and the bitmap, so a retained snapshot
// keeps the exact cells its answers were computed from. The tables are
// immutable and stay shared; each side keeps its own pending list.
#ifndef TQCOVER_TQTREE_CELL_INDEX_H_
#define TQCOVER_TQTREE_CELL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/rect.h"
#include "service/models.h"
#include "traj/dataset.h"
#include "tqtree/zindex.h"

namespace tq {

class PointCellTable;  // tqtree/point_raster.h
class PointRaster;     // tqtree/point_raster.h
class StopGrid;        // service/stop_grid.h

/// Whether trajectories are stored whole or as independent segments.
enum class TrajMode { kWhole, kSegmented };

/// Derives the soundness-preserving prune mode for a tree configuration (see
/// ZPruneMode). `max_points` is the maximum trajectory point count.
ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points);

/// The ids 0, 1, ..., users.size() - 1.
std::vector<uint32_t> AllIds(const TrajectorySet& users);

/// Cell structures over the indexed trajectories of a user set (not owned;
/// must outlive the index). Writes (Insert, Remove, Freeze, Fork) come from
/// one thread; queries are thread-safe once frozen.
class CellIndex {
 public:
  /// Indexes trajectories `ids` of `users` (each < users->size(), no
  /// repeats) and freezes. The world is the users' bounding box, padded so
  /// boundary points sit strictly inside. With `tables`, every freeze keeps
  /// point-cell tables, whose kind follows DerivePruneMode(kWhole, model,
  /// the longest trajectory of the user set).
  CellIndex(const TrajectorySet* users, const ServiceModel& model,
            bool tables, std::span<const uint32_t> ids);

  // A plain copy would share the raster and the bitmap while both sides
  // write them in place. Fork() is the only way to duplicate an index.
  CellIndex(const CellIndex&) = delete;
  CellIndex& operator=(const CellIndex&) = delete;

  const TrajectorySet& users() const { return *users_; }
  const ServiceModel& model() const { return model_; }
  const Rect& world() const { return world_; }
  /// The point-cell tables' kind (whatever `tables`).
  ZPruneMode kind() const { return kind_; }

  /// An index sharing this one's cells and world over `users`, the same
  /// trajectory set or an append-only extension of it (ids are stable) that
  /// must outlive the fork. If the extension flips the tables' kind (a
  /// longer trajectory appears in a two-point set), the fork drops the
  /// tables until its next Freeze() rebuilds them.
  std::unique_ptr<CellIndex> Fork(const TrajectorySet* users) const;

  /// Indexes trajectory `traj_id` of the user set: deposits its raster
  /// mass, sets its bit and, while tables exist, lists it as pending.
  void Insert(uint32_t traj_id);

  /// De-indexes trajectory `traj_id`: withdraws its raster mass and clears
  /// its bit. Returns false, changing nothing, if it was not indexed.
  bool Remove(uint32_t traj_id);

  /// Makes queries read-only until the next write. With `tables`, rebuilds
  /// the point-cell tables from the indexed trajectories when they are
  /// missing or the pending inserts exceed 1/8 of the trajectories they
  /// hold, so a steady stream of small publishes pays O(1) amortised
  /// rebuild work per insert.
  void Freeze();

  /// Exact-check candidate filter of whole trajectories. Replaces `mask`
  /// with one bit per id of users() and sets the bit of every trajectory
  /// that may score for a facility with stops `stops` and radius `psi`,
  /// from the tables' cells near the stops:
  ///   * kStartEnd tables (Scenario 1, and Scenario 3 on two-point units),
  ///     where a unit scores only with both endpoints within ψ: the
  ///     trajectories whose source cell AND destination cell are near. With
  ///     `any_endpoint`, source OR destination — the partially served users
  ///     served-set collection keeps (Lemma 1);
  ///   * kStartOrEnd and kMbr tables: the trajectories with any point in a
  ///     near cell (`any_endpoint` changes nothing);
  /// plus, in every form, each pending trajectory; then ANDed with the
  /// indexed-ids bitmap, so no bit of a de-indexed trajectory is ever set. A
  /// unit whose bit is clear scores exactly 0 (with `any_endpoint`, serves
  /// no point at all), so summing the exact values of the set bits alone
  /// gives SO.
  ///
  /// Returns false, leaving `mask` alone, without tables (segmented trees,
  /// and a fork whose kind flipped until its next freeze).
  bool MarkCandidates(std::span<const Point> stops, double psi,
                      std::vector<uint64_t>* mask,
                      bool any_endpoint = false) const;

  /// True when MarkCandidates filters.
  bool has_tables() const { return cells_ != nullptr; }

  /// Trajectories inserted since the tables were built.
  size_t num_pending() const { return pending_.size(); }

  /// True when no write has run since construction, so a rebuild over
  /// IndexedTrajectories() would build this very index.
  bool fresh() const { return fresh_; }

  /// Ids of the indexed trajectories, ascending.
  std::vector<uint32_t> IndexedTrajectories() const;

  /// Cheap, sound upper bound on SO(U, f) for the facility behind `grid`:
  /// the smaller of the raster's mass near the stops and Σ UnitUpperBound
  /// of a whole unit over the MarkCandidates set, the sum inflated by
  /// kRasterDriftInflation. Without tables, the raster's mass alone. The
  /// only facility bound: the key of the library's best-first kMaxRRST and
  /// of the sharded engine's bound sweep.
  ///
  /// With tables and a non-null `candidates`, also appends the ascending
  /// ids of that MarkCandidates set, so a caller can later sum SO over
  /// them without marking the mask again.
  double CellUpperBound(const StopGrid& grid,
                        std::vector<uint32_t>* candidates = nullptr) const;

 private:
  /// Fork()'s constructor.
  CellIndex(const CellIndex& parent, const TrajectorySet* users);

  /// Copies the raster and the bitmap if they are shared with a fork.
  void Own();
  void SetIndexed(uint32_t traj_id, bool on);
  /// Rebuilds the tables from the indexed trajectories and empties the
  /// pending list.
  void BuildCellTables();
  /// MarkCandidates over precomputed near-stop `cells`.
  void MarkCandidateCells(std::span<const uint32_t> cells, bool any_endpoint,
                          std::vector<uint64_t>* mask) const;

  const TrajectorySet* users_;
  ServiceModel model_;
  bool tables_;
  Rect world_;
  size_t max_points_ = 0;
  ZPruneMode kind_;
  bool fresh_ = true;
  /// True while the raster and the bitmap may be shared with a fork. Fork()
  /// sets it on both sides — the one write a const method makes, on the
  /// writer thread only; no reader looks at it.
  mutable bool shared_ = false;
  std::shared_ptr<PointRaster> raster_;
  /// Grows on demand; missing words read as zero.
  std::shared_ptr<std::vector<uint64_t>> indexed_;
  /// kStartEnd tables list sources in `cells_` and destinations in
  /// `end_cells_`; the others list every point in `cells_` and have no
  /// `end_cells_`. De-indexed ids stay listed in both and in `pending_`;
  /// MarkCandidateCells clears them with the bitmap.
  std::shared_ptr<const PointCellTable> cells_;
  std::shared_ptr<const PointCellTable> end_cells_;
  std::vector<uint32_t> pending_;
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_CELL_INDEX_H_
