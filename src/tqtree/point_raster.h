// Rasters over a fixed R×R grid of a cell index's world: the point-mass
// raster behind the cheap per-facility service upper bound
// (CellIndex::CellUpperBound) and the point-cell tables behind both that
// bound and the exact-check candidate filter of whole trajectories
// (CellIndex::MarkCandidates).
//
// A node-granularity aggregate (a segmented tree's per-node `sub`) cannot
// discriminate facilities on workloads where units roam: a long unit parks
// in an upper node whose subtree bound charges EVERY facility the unit's
// full value. The raster bounds SO from the other side — it forgets units
// entirely and aggregates the per-POINT value caps on the grid:
//
//   * every indexed trajectory deposits, into the cell of each of its
//     points, the largest service value that point alone can unlock under
//     the tree's model (Scenario 1: 1 on the source point — a served user
//     needs its source within ψ; Scenario 2: the point's own count weight,
//     1 or 1/|u|; Scenario 3: the outgoing segment's length share — a
//     served segment needs its start within ψ);
//   * a facility can only be served by points within ψ of its stops, so
//     SO(U, f) ≤ the summed mass of all cells intersecting the stops'
//     ψ-squares (each covered cell counted once, however many stop squares
//     overlap it).
//
// A point-cell table walks the same cells for the same reason, but keeps
// the points instead of their mass: per cell, a run of the listed points in
// it — any point, only the source, or only the destination (see
// CellPoints) — each with its owner's id, and in the all-points table its
// coordinates. A whole unit none of whose points lies in a cell near the
// stops has no point within ψ of any stop, so it scores exactly 0 under
// every scenario and its exact check can be skipped without changing any
// sum; under both-endpoint service (Scenario 1, and Scenario 3 on two-point
// units) a unit whose source OR destination cell is far scores 0 as well.
// The same argument makes the all-points table a point-count (Scenario 2)
// evaluator of its own: running the serve predicate over the near cells'
// runs alone counts every served point of every listed trajectory, so the
// points of a candidate that lie in far cells are never probed.
//
// Cell coordinates clamp monotonically at the world border, so points and
// stops beyond it still land in consistent border cells and both stay
// sound. The near cells come as runs of consecutive row-major ids
// (RasterGrid::CellsNearStops): a route's ψ-squares cover a few long
// stretches of each row, and since the tables are indexed by cell id, a run
// is one contiguous range of listed points and of masses. Cost per facility
// is O(stops × rows-per-ψ-square) to cover the cells, one pass over the
// touched bitmap words to read the runs back, and one range per run for
// each reader — independent of both the number of users and the tree shape.
//
// The raster is shared across CellIndex::Fork(): forks alias it read-only
// and the first Insert/Remove on either side copies it (one R×R memcpy per
// writing publish), so retained snapshots keep the exact mass their answers
// were bounded with. The tables are immutable and shared outright; see
// CellIndex for how inserts reach them.
#ifndef TQCOVER_TQTREE_POINT_RASTER_H_
#define TQCOVER_TQTREE_POINT_RASTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/distance.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "service/models.h"
#include "traj/dataset.h"

namespace tq {

class StopGrid;  // service/stop_grid.h

/// Cells per axis of every tree's raster grid.
inline constexpr size_t kRasterResolution = 256;

/// Covers floating-point drift in the raster's bounds: cell masses
/// accumulated over long add/remove histories (each cycle can leave ~ulp
/// residue), and sums taken in an order other than the exact evaluation's.
/// A bound inflated by this factor stays a bound; one deflated by rounding
/// would prune real answers. Zero stays exactly zero.
inline constexpr double kRasterDriftInflation = 1.0 + 1e-6;

/// Cells [begin, end) of a grid: consecutive row-major ids, so a run may
/// wrap from the end of one row to the start of the next.
struct CellRun {
  uint32_t begin;
  uint32_t end;
};

/// True when `cell` lies in one of `runs`, which are ascending and disjoint
/// (as RasterGrid::CellsNearStops lists them): a facility footprint's
/// membership test, by binary search.
bool RunsContain(std::span<const CellRun> runs, uint32_t cell);

/// The R×R cell geometry over a tree's world, shared by the point-mass
/// raster and the point-cell table.
class RasterGrid {
 public:
  static constexpr size_t kNumCells = kRasterResolution * kRasterResolution;

  /// `world` must be non-empty.
  explicit RasterGrid(const Rect& world);

  /// Row-major id of the (clamped) cell holding `p`.
  uint32_t CellOf(const Point& p) const {
    return static_cast<uint32_t>(RowOf(p.y) * kRasterResolution +
                                 ColOf(p.x));
  }

  /// Replaces `runs` with the cells intersecting some stop's ψ-square, as
  /// ascending, disjoint, maximal runs (each non-empty, and each `end`
  /// below the next `begin`), so every such cell is listed exactly once.
  /// Every point within ψ of a stop lies in one of them, including under
  /// floating-point rounding of the distance predicate.
  void CellsNearStops(std::span<const Point> stops, double psi,
                      std::vector<CellRun>* runs) const;

 private:
  size_t ColOf(double x) const;
  size_t RowOf(double y) const;

  Rect world_;
  double inv_cell_w_ = 0.0;
  double inv_cell_h_ = 0.0;
};

/// Grid of per-cell service-value caps. Copyable (that is the fork
/// copy-on-write path); not thread-safe for writes.
class PointRaster {
 public:
  explicit PointRaster(const Rect& world);

  const RasterGrid& grid() const { return grid_; }

  /// Deposits (`sign` = +1) or withdraws (`sign` = -1) one trajectory's
  /// per-point value caps under `model`. Add/remove must use the same
  /// point sequence and model to cancel.
  void AddTrajectory(std::span<const Point> points, const ServiceModel& model,
                     double sign);

  /// Calls `fn(cell, value)` for each deposit AddTrajectory(points, model,
  /// +1) makes, in the same order and with the same values, so a sum kept
  /// beside the raster (a memoised bound) can follow its writes exactly.
  template <typename Fn>
  void ForEachDeposit(std::span<const Point> points, const ServiceModel& model,
                      Fn&& fn) const;

  /// Summed mass of the cells of `runs` (RasterGrid::CellsNearStops of the
  /// same world), cell by cell in ascending id, without inflation: the
  /// caller inflates by kRasterDriftInflation to get an upper bound on the
  /// service value reachable from those cells.
  double MassInCells(std::span<const CellRun> runs) const;

  /// Total deposited mass (tests / diagnostics).
  double TotalMass() const;

 private:
  RasterGrid grid_;
  std::vector<double> mass_;  // row-major, RasterGrid::kNumCells
};

template <typename Fn>
void PointRaster::ForEachDeposit(std::span<const Point> points,
                                 const ServiceModel& model, Fn&& fn) const {
  if (points.empty()) return;
  switch (model.scenario) {
    case Scenario::kEndpoints:
      // S(u,f) = 1 requires the source within ψ of a stop; cap the whole
      // user's value on its source point alone (destination would double
      // the deposited mass for no extra soundness).
      fn(grid_.CellOf(points.front()), 1.0);
      break;
    case Scenario::kPointCount: {
      const double w = model.normalization == Normalization::kPerUser
                           ? 1.0 / static_cast<double>(points.size())
                           : 1.0;
      for (const Point& p : points) fn(grid_.CellOf(p), w);
      break;
    }
    case Scenario::kLength: {
      // A served segment needs BOTH endpoints within ψ, so charging each
      // segment's length to its start point is a cap.
      const double total = PolylineLength(points);
      const double norm = model.normalization == Normalization::kPerUser
                              ? (total > 0.0 ? 1.0 / total : 0.0)
                              : 1.0;
      for (size_t i = 0; i + 1 < points.size(); ++i) {
        fn(grid_.CellOf(points[i]), Distance(points[i], points[i + 1]) * norm);
      }
      break;
    }
  }
}

/// Which points of each trajectory a PointCellTable lists.
enum class CellPoints { kAll, kSource, kDestination };

/// Immutable per-cell point runs (CSR over the grid's cells): cell c lists,
/// in build order, every listed point (per CellPoints) of the build set that
/// lies in c, as its owner's id and — in kAll tables — its coordinates. A
/// trajectory with several points in one cell is listed once per point.
class PointCellTable {
 public:
  /// Indexes trajectories `ids` (distinct) of `users` over the grid of
  /// `world`.
  PointCellTable(const Rect& world, const TrajectorySet& users,
                 std::span<const uint32_t> ids, CellPoints points);

  const RasterGrid& grid() const { return grid_; }

  /// Number of trajectories the table was built over.
  size_t num_trajectories() const { return num_trajectories_; }

  /// ORs into `mask` (one bit per trajectory id) the id of every trajectory
  /// listed in the cells of `runs` (of this table's grid), reading each run
  /// as one range of listed points. With the runs of
  /// RasterGrid::CellsNearStops, every trajectory of the build set with a
  /// listed point within ψ of a stop is set.
  void MarkCells(std::span<const CellRun> runs, uint64_t* mask) const;

  /// kAll tables only. Runs `grid`'s serve predicate over the points listed
  /// in the cells of `runs` — one contiguous range and one
  /// StopGrid::ServesBatch call per run — and adds one to `counts[owner]`
  /// per served point, appending each owner whose count leaves 0 to
  /// `touched`. With the runs of RasterGrid::CellsNearStops (for
  /// grid.stops() and grid.psi()), every point of the build set that `grid`
  /// serves is counted: a point in no near cell is farther than ψ from every
  /// stop. Returns the number of points probed.
  size_t CountServed(std::span<const CellRun> runs, const StopGrid& grid,
                     uint32_t* counts, std::vector<uint32_t>* touched) const;

 private:
  RasterGrid grid_;
  size_t num_trajectories_ = 0;
  std::vector<uint32_t> offsets_;  // kNumCells + 1: cell c is [c, c + 1)
  std::vector<uint32_t> owners_;   // the trajectory of each listed point
  std::vector<Point> points_;      // kAll: parallel to owners_; else empty
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_POINT_RASTER_H_
