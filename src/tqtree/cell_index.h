// The cell index: every grid-cell structure a whole-trajectory SO or a
// facility bound reads (point_raster.h), without the quadtree — the
// point-mass raster, the indexed-ids bitmap and, optionally, the point-cell
// tables with the pending list of trajectories inserted since their build.
// Under the point-count model the all-points table is also the evaluator:
// it lists each point with its coordinates, so a Scenario 2 SO probes only
// the points in cells near the route (CountServedPoints) and evaluates
// only the pending trajectories in full.
// A whole TQTree is one (with tables), a segmented TQTree keeps one beside
// its quadtree (without); a serving shard is one alone, since the engine
// answers every SO and every bound from the cells.
//
// A frozen index's facility bounds depend only on its indexed trajectories
// and the facility, so Bounds() computes them once per catalog and keeps
// them (the memo). A write does not drop the memo: it logs the written id,
// and the next Bounds() call replays the log into a copy of the memo — per
// facility whose footprint (near-cell runs, stored at the first patch)
// holds the id's cells, the id's deposits and cap — instead of sweeping the
// catalog again. Fork() carries the memo and the log over, so a publish costs the
// next top-k a patch, not a sweep.
//
// Fork() is the engine's snapshot-publish primitive: the fork shares the
// raster, the bitmap and the tables with its parent, and whichever side
// writes first copies the raster and the bitmap, so a retained snapshot
// keeps the exact cells its answers were computed from. The tables are
// immutable and stay shared; each side keeps its own pending list.
#ifndef TQCOVER_TQTREE_CELL_INDEX_H_
#define TQCOVER_TQTREE_CELL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "geom/rect.h"
#include "service/models.h"
#include "tqtree/point_raster.h"
#include "traj/dataset.h"
#include "tqtree/zindex.h"

namespace tq {

class FacilityCatalog;  // service/facility_index.h
class StopGrid;         // service/stop_grid.h

/// Whether trajectories are stored whole or as independent segments.
enum class TrajMode { kWhole, kSegmented };

/// Derives the soundness-preserving prune mode for a tree configuration (see
/// ZPruneMode). `max_points` is the maximum trajectory point count.
ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points);

/// The ids 0, 1, ..., users.size() - 1.
std::vector<uint32_t> AllIds(const TrajectorySet& users);

/// The near-cell runs (RasterGrid::CellsNearStops) of every facility of one
/// catalog, over one world: facility f's are runs[begin[f], begin[f + 1]).
/// Built by the first patch of a bound memo, immutable, and shared by every
/// later patched copy and fork (forks keep the world).
struct Footprints {
  std::vector<CellRun> runs;
  std::vector<size_t> begin;

  std::span<const CellRun> of(uint32_t f) const {
    return std::span(runs).subspan(begin[f], begin[f + 1] - begin[f]);
  }
};

/// One index's CellUpperBound of every facility of one catalog
/// (CellIndex::Bounds), with the two parts each bound is the smaller of, so
/// a write can patch them.
struct FacilityBounds {
  /// bound[f] = CellUpperBound(catalog.grid(f)), up to the order in which
  /// patched sums were added (the same bits under integer-valued models).
  std::vector<double> bound;
  /// cap[f]: Σ UnitUpperBound of the indexed trajectories that are
  /// candidates of facility f; empty when the index has no tables.
  std::vector<double> cap;
  /// mass[f]: the raster's mass in facility f's near cells.
  std::vector<double> mass;
  /// When the index lists candidates, facility f's ascending candidate ids
  /// are ids[begin[f], begin[f + 1]); otherwise both are empty.
  std::vector<uint32_t> ids;
  std::vector<size_t> begin;
  /// Null until the memo is first patched.
  std::shared_ptr<const Footprints> footprints;

  bool listed() const { return !begin.empty(); }
  std::span<const uint32_t> candidates(uint32_t f) const {
    return std::span(ids).subspan(begin[f], begin[f + 1] - begin[f]);
  }
};

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

  /// An index sharing this one's cells, world and bounds memo (with its
  /// write log) over `users`, the same trajectory set or an append-only
  /// extension of it (ids are stable) that must outlive the fork. If the
  /// extension flips the tables' kind (a longer trajectory appears in a
  /// two-point set), the fork drops the tables until its next Freeze()
  /// rebuilds them, and starts without a memo.
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
  ///     trajectories whose source cell AND destination cell are near;
  ///   * kStartOrEnd and kMbr tables: the trajectories with any point in a
  ///     near cell;
  /// plus each pending trajectory; then ANDed with the indexed-ids bitmap,
  /// so no bit of a de-indexed trajectory is ever set. A unit whose bit is
  /// clear scores exactly 0, so summing the exact values of the set bits
  /// alone gives SO.
  ///
  /// Returns false, leaving `mask` alone, without tables (segmented trees,
  /// and a fork whose kind flipped until its next freeze).
  bool MarkCandidates(std::span<const Point> stops, double psi,
                      std::vector<uint64_t>* mask) const;

  /// kStartEnd tables only: the per-endpoint form of MarkCandidates that
  /// Scenario 1 served-set collection reads, since a user whose source
  /// alone is served still matters for combined coverage (Lemma 1).
  /// Replaces `sources` and `destinations` with one bit per id of users()
  /// and sets, in `sources`, every trajectory whose source cell is near the
  /// stops and, in `destinations`, every one whose destination cell is;
  /// each pending trajectory is set in both; both are then ANDed with the
  /// indexed-ids bitmap. An endpoint within ψ of a stop lies in a near
  /// cell, so an indexed trajectory whose source (destination) bit is clear
  /// has no served source (destination).
  ///
  /// Returns false, leaving both masks alone, unless the tables exist and
  /// are kStartEnd.
  bool MarkEndpointCandidates(std::span<const Point> stops, double psi,
                              std::vector<uint64_t>* sources,
                              std::vector<uint64_t>* destinations) const;

  /// True when MarkCandidates filters.
  bool has_tables() const { return cells_ != nullptr; }

  /// CountServedPoints's mark of a pending id.
  static constexpr uint32_t kPendingCount = ~uint32_t{0};

  /// The point-count (Scenario 2) evaluation's walk of the all-points
  /// table. Replaces `mask` as MarkCandidates(grid.stops(), grid.psi(),
  /// mask) does and, over the same near cells, adds to `counts[id]` one per
  /// point of trajectory id listed there that `grid` serves — each served
  /// point of a listed trajectory, since a point in no near cell is farther
  /// than ψ from every stop (PointCellTable::CountServed). A pending id's
  /// listed points are not its own count (a removed-then-reinserted id is
  /// still listed), so its entry is set to kPendingCount instead and the
  /// caller evaluates it in full. `counts` holds users().size() zeros on
  /// entry; every entry left non-zero is in `touched` (which is appended
  /// to). Returns the number of listed points probed. Needs an all-points
  /// table, which every point-count index has once frozen.
  size_t CountServedPoints(const StopGrid& grid, std::vector<uint64_t>* mask,
                           uint32_t* counts,
                           std::vector<uint32_t>* touched) const;

  /// Trajectories inserted since the tables were built.
  size_t num_pending() const { return pending_.size(); }

  /// True when no write has run since construction, so a rebuild over
  /// IndexedTrajectories() would build this very index.
  bool fresh() const { return fresh_; }

  /// Ids of the indexed trajectories, ascending.
  std::vector<uint32_t> IndexedTrajectories() const;

  /// Cheap, sound upper bound on SO(U, f) for the facility behind `grid`:
  /// the smaller of the raster's mass near the stops and Σ UnitUpperBound
  /// of a whole unit over the facility's candidates, both inflated by
  /// kRasterDriftInflation. Without tables, the raster's mass alone. The
  /// candidates are the indexed trajectories a fresh index over them would
  /// mark (MarkCandidates without the pending list): those whose source
  /// and destination cells are both near under kStartEnd tables, those with
  /// any point in a near cell otherwise. A pending trajectory counts only
  /// where it qualifies, so the bound does not depend on when the tables
  /// were last built. The only facility bound: the key of the library's
  /// best-first kMaxRRST and of the sharded engine's bound sweep.
  ///
  /// With tables and a non-null `candidates`, also appends the ascending
  /// candidate ids, so a caller can later sum SO over them without marking
  /// the mask again.
  double CellUpperBound(const StopGrid& grid,
                        std::vector<uint32_t>* candidates = nullptr) const;

  /// True when CellUpperBound lists candidates a caller can refine over:
  /// the tables exist and the model is not point-count, whose SO probes the
  /// cell table's served points instead (EvaluateServiceCells), fewer than
  /// the candidates hold.
  bool lists_candidates() const {
    return cells_ != nullptr && model_.scenario != Scenario::kPointCount;
  }

  /// CellUpperBound of every facility of `catalog`, with the candidate ids
  /// when lists_candidates(), kept for the catalog (keyed on
  /// catalog.serial()) until a call for another catalog. The first call
  /// sweeps the catalog, adding catalog.size() to `*computed`. Each later
  /// Insert or Remove appends its id to a write log, and the next call
  /// replays the log into a copy of the memo, adding its length to
  /// `*patched`: a written id changes the parts of exactly the facilities
  /// whose footprint holds its cells. A log longer than 1/8 of the indexed
  /// trajectories drops the memo, so the next call sweeps again. A fork
  /// starts with its parent's memo and log (none if the fork's table kind
  /// flipped), and a Freeze that rebuilds the tables keeps them. A caller
  /// that only reads the memo adds 0 to both. Thread-safe once frozen: the
  /// caller that sweeps or patches does it under a lock it holds for
  /// nothing else (Fork() takes it too, so a fork made during a sweep gets
  /// the swept memo).
  std::shared_ptr<const FacilityBounds> Bounds(const FacilityCatalog& catalog,
                                               size_t* computed = nullptr,
                                               size_t* patched = nullptr) const;

 private:
  /// Fork()'s constructor.
  CellIndex(const CellIndex& parent, const TrajectorySet* users);

  /// Copies the raster and the bitmap if they are shared with a fork.
  void Own();
  void SetIndexed(uint32_t traj_id, bool on);
  /// Rebuilds the tables from the indexed trajectories and empties the
  /// pending list.
  void BuildCellTables();
  /// MarkCandidates over precomputed near-stop `runs`. With
  /// `qualifying_pending`, a pending id is set only when its cells qualify
  /// (Qualifies), as in CellUpperBound's candidate set.
  void MarkCandidateCells(std::span<const CellRun> runs,
                          std::vector<uint64_t>* mask,
                          bool qualifying_pending = false) const;
  /// Sets every pending id in the first `words` words of `mask` (with
  /// `qualifying`, only those that Qualify in those runs), then ANDs them
  /// with the indexed-ids bitmap.
  void AddPendingKeepIndexed(
      size_t words, uint64_t* mask,
      const std::span<const CellRun>* qualifying = nullptr) const;
  /// True when trajectory `id` would be marked by the tables' cells in
  /// `runs`: both endpoint cells near under kStartEnd, any point's otherwise.
  bool Qualifies(uint32_t id, std::span<const CellRun> runs) const;
  /// CellUpperBound over precomputed `runs`, keeping its two parts.
  double BoundInCells(std::span<const CellRun> runs, double* cap, double* mass,
                      std::vector<uint32_t>* candidates) const;
  /// Bounds()'s catalog sweep.
  std::shared_ptr<FacilityBounds> Sweep(const FacilityCatalog& catalog) const;
  /// The near-cell runs of every facility of `catalog`.
  std::shared_ptr<const Footprints> FootprintsOf(
      const FacilityCatalog& catalog) const;
  /// Bounds()'s replay of `log_` into a copy of `base`, the bounds of
  /// `catalog`.
  std::shared_ptr<FacilityBounds> Patch(const FacilityBounds& base,
                                        const FacilityCatalog& catalog) const;
  /// Appends a write to the log while a memo exists; past 1/8 of the
  /// indexed trajectories, drops the memo and the log instead.
  void LogWrite(uint32_t traj_id, bool insert);

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
  /// `end_cells_`; the others list every point, with its coordinates, in
  /// `cells_` and have no `end_cells_`. De-indexed ids stay listed in both
  /// and in `pending_`; AddPendingKeepIndexed clears them with the bitmap.
  std::shared_ptr<const PointCellTable> cells_;
  std::shared_ptr<const PointCellTable> end_cells_;
  std::vector<uint32_t> pending_;
  size_t num_indexed_ = 0;
  struct Write {
    uint32_t id;
    bool insert;
  };
  /// Bounds()'s memo: the bounds of the catalog with serial `memo_serial_`
  /// (serials start at 1) as they stood before the writes in `log_`, or
  /// null (and `log_` empty).
  mutable std::mutex memo_mu_;
  mutable uint64_t memo_serial_ = 0;
  mutable std::shared_ptr<const FacilityBounds> memo_;
  mutable std::vector<Write> log_;
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_CELL_INDEX_H_
