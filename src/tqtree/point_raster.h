// Rasters over a fixed R×R grid of a cell index's world: the point-mass
// raster behind the cheap per-facility service upper bound
// (CellIndex::CellUpperBound) and the point-cell tables behind both that
// bound and the exact-check candidate filter of whole trajectories
// (CellIndex::MarkCandidates).
//
// Node-granularity aggregates (sub / local_ub) cannot discriminate
// facilities on workloads where units roam: a check-in trajectory spanning
// half the city parks in an upper node whose list bound charges EVERY
// facility the unit's full value. The raster bounds SO from the other
// side — it forgets units entirely and aggregates the per-POINT value caps
// on the grid:
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
// identities instead of mass: per cell, the trajectories with a listed
// point in it — any point, only the source, or only the destination (see
// CellPoints). A whole unit none of whose points lies in a cell near the
// stops has no point within ψ of any stop, so it scores exactly 0 under
// every scenario and its exact check can be skipped without changing any
// sum; under both-endpoint service (Scenario 1, and Scenario 3 on two-point
// units) a unit whose source OR destination cell is far scores 0 as well.
//
// Cell coordinates clamp monotonically at the world border, so points and
// stops beyond it still land in consistent border cells and both stay
// sound. Cost per facility is O(stops × cells-per-ψ-square) for the walk —
// independent of both the number of users and the tree shape.
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

#include "geom/point.h"
#include "geom/rect.h"
#include "service/models.h"
#include "traj/dataset.h"

namespace tq {

/// Cells per axis of every tree's raster grid.
inline constexpr size_t kRasterResolution = 256;

/// Covers floating-point drift in the raster's bounds: cell masses
/// accumulated over long add/remove histories (each cycle can leave ~ulp
/// residue), and sums taken in an order other than the exact evaluation's.
/// A bound inflated by this factor stays a bound; one deflated by rounding
/// would prune real answers. Zero stays exactly zero.
inline constexpr double kRasterDriftInflation = 1.0 + 1e-6;

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

  /// Replaces `cells` with the ascending, de-duplicated ids of every cell
  /// intersecting some stop's ψ-square. Every point within ψ of a stop lies
  /// in one of them, including under floating-point rounding of the
  /// distance predicate.
  void CellsNearStops(std::span<const Point> stops, double psi,
                      std::vector<uint32_t>* cells) const;

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

  /// Deposits (`sign` = +1) or withdraws (`sign` = -1) one trajectory's
  /// per-point value caps under `model`. Add/remove must use the same
  /// point sequence and model to cancel.
  void AddTrajectory(std::span<const Point> points, const ServiceModel& model,
                     double sign);

  /// Upper bound on the service value reachable from `stops` with radius
  /// `psi`: summed mass of every cell intersecting a stop's ψ-square, each
  /// cell counted once, inflated by kRasterDriftInflation.
  double MassNearStops(std::span<const Point> stops, double psi) const;

  /// MassNearStops over precomputed `cells` (RasterGrid::CellsNearStops of
  /// the same world).
  double MassInCells(std::span<const uint32_t> cells) const;

  /// Total deposited mass (tests / diagnostics).
  double TotalMass() const;

 private:
  RasterGrid grid_;
  std::vector<double> mass_;  // row-major, RasterGrid::kNumCells
};

/// Which points of each trajectory a PointCellTable lists.
enum class CellPoints { kAll, kSource, kDestination };

/// Immutable per-cell trajectory lists (CSR over the grid's cells): cell c
/// lists, in build order, every trajectory of the build set with a listed
/// point (per CellPoints) in c.
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
  /// listed in `cells` (ids of this table's grid). With the cells of
  /// RasterGrid::CellsNearStops, every trajectory of the build set with a
  /// listed point within ψ of a stop is set.
  void MarkCells(std::span<const uint32_t> cells, uint64_t* mask) const;

 private:
  RasterGrid grid_;
  size_t num_trajectories_ = 0;
  std::vector<uint32_t> offsets_;  // kNumCells + 1: cell c is [c, c + 1)
  std::vector<uint32_t> ids_;
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_POINT_RASTER_H_
