#include "tqtree/point_raster.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "geom/distance.h"

namespace tq {

namespace {

/// Relative widening of each stop's ψ-square in the cell walk. The serve
/// predicate compares a rounded squared distance with fl(ψ²), so a served
/// point can sit a few ulps beyond the exact square; this margin, orders of
/// magnitude above those ulps and far below any cell width, keeps such a
/// point's cell in the walk.
constexpr double kWalkSlack = 1e-12;

}  // namespace

RasterGrid::RasterGrid(const Rect& world) : world_(world) {
  TQ_CHECK(!world.IsEmpty());
  const auto r = static_cast<double>(kRasterResolution);
  inv_cell_w_ = world_.Width() > 0 ? r / world_.Width() : 0.0;
  inv_cell_h_ = world_.Height() > 0 ? r / world_.Height() : 0.0;
}

size_t RasterGrid::ColOf(double x) const {
  // Monotone clamped mapping: out-of-world coordinates share the border
  // column, so a point and a stop beyond the world still meet in it.
  const double c = (x - world_.min_x) * inv_cell_w_;
  if (c <= 0.0) return 0;
  const auto col = static_cast<size_t>(c);
  return std::min(col, kRasterResolution - 1);
}

size_t RasterGrid::RowOf(double y) const {
  const double r = (y - world_.min_y) * inv_cell_h_;
  if (r <= 0.0) return 0;
  const auto row = static_cast<size_t>(r);
  return std::min(row, kRasterResolution - 1);
}

void RasterGrid::CellsNearStops(std::span<const Point> stops, double psi,
                                std::vector<uint32_t>* cells) const {
  // Dedupe covered cells: consecutive stops of one route overlap heavily at
  // ψ scale, and a cell listed twice would be summed (or scanned) twice.
  // Each covered cell sets its bit in a thread-local bitmap over the grid;
  // reading the touched words back lists every cell once, ascending, and
  // leaves the bitmap clear for the next call.
  static thread_local std::vector<uint64_t> covered(kNumCells / 64, 0);
  size_t lo = covered.size();
  size_t hi = 0;
  for (const Point& s : stops) {
    const double rx = psi + kWalkSlack * (std::abs(s.x) + psi);
    const double ry = psi + kWalkSlack * (std::abs(s.y) + psi);
    const size_t c0 = ColOf(s.x - rx);
    const size_t c1 = ColOf(s.x + rx);
    const size_t r0 = RowOf(s.y - ry);
    const size_t r1 = RowOf(s.y + ry);
    for (size_t r = r0; r <= r1; ++r) {
      for (size_t c = c0; c <= c1; ++c) {
        const size_t cell = r * kRasterResolution + c;
        covered[cell >> 6] |= uint64_t{1} << (cell & 63);
      }
    }
    lo = std::min(lo, (r0 * kRasterResolution + c0) >> 6);
    hi = std::max(hi, ((r1 * kRasterResolution + c1) >> 6) + 1);
  }
  cells->clear();
  for (size_t w = lo; w < hi; ++w) {
    for (uint64_t bits = covered[w]; bits != 0; bits &= bits - 1) {
      cells->push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
    covered[w] = 0;
  }
}

// ------------------------------------------------------------ PointRaster

PointRaster::PointRaster(const Rect& world)
    : grid_(world), mass_(RasterGrid::kNumCells, 0.0) {}

void PointRaster::AddTrajectory(std::span<const Point> points,
                                const ServiceModel& model, double sign) {
  if (points.empty()) return;
  switch (model.scenario) {
    case Scenario::kEndpoints:
      // S(u,f) = 1 requires the source within ψ of a stop; cap the whole
      // user's value on its source point alone (destination would double
      // the deposited mass for no extra soundness).
      mass_[grid_.CellOf(points.front())] += sign;
      break;
    case Scenario::kPointCount: {
      const double w = model.normalization == Normalization::kPerUser
                           ? 1.0 / static_cast<double>(points.size())
                           : 1.0;
      for (const Point& p : points) mass_[grid_.CellOf(p)] += sign * w;
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
        mass_[grid_.CellOf(points[i])] +=
            sign * Distance(points[i], points[i + 1]) * norm;
      }
      break;
    }
  }
}

double PointRaster::MassNearStops(std::span<const Point> stops,
                                  double psi) const {
  // thread_local scratch: this runs once per (facility, shard) inside the
  // bound sweep, so per-call allocation would churn (same pattern as the
  // ZKeyRanges scratch in zindex.cc).
  static thread_local std::vector<uint32_t> cells;
  grid_.CellsNearStops(stops, psi, &cells);
  return MassInCells(cells);
}

double PointRaster::MassInCells(std::span<const uint32_t> cells) const {
  double sum = 0.0;
  // max(0): a cell whose deposits all cancelled may hold a tiny negative
  // residue; it must not subtract from other cells' real mass.
  for (const uint32_t cell : cells) sum += std::max(0.0, mass_[cell]);
  return sum * kRasterDriftInflation;
}

double PointRaster::TotalMass() const {
  double sum = 0.0;
  for (const double m : mass_) sum += std::max(0.0, m);
  return sum;
}

// --------------------------------------------------------- PointCellTable

PointCellTable::PointCellTable(const Rect& world, const TrajectorySet& users,
                               std::span<const uint32_t> ids,
                               CellPoints points)
    : grid_(world),
      num_trajectories_(ids.size()),
      offsets_(RasterGrid::kNumCells + 1, 0) {
  const auto listed = [&users, points](uint32_t id) {
    const std::span<const Point> all = users.points(id);
    if (all.empty() || points == CellPoints::kAll) return all;
    return points == CellPoints::kSource ? all.first(1) : all.last(1);
  };
  // Two passes (count, then fill) over the points, so no (cell, id) pair
  // list is ever materialised. `last[c]` is the id that last claimed cell
  // c, which lists a trajectory once per cell however many of its points
  // the cell holds. Counts land in offsets_[c + 1], so the prefix sum leaves
  // each cell's start in offsets_[c]; the fill then advances offsets_[c]
  // to its end, which is where the final shift by one slot puts it back.
  constexpr uint32_t kNone = ~uint32_t{0};
  std::vector<uint32_t> last(RasterGrid::kNumCells, kNone);
  for (const uint32_t id : ids) {
    for (const Point& p : listed(id)) {
      const uint32_t c = grid_.CellOf(p);
      if (last[c] == id) continue;
      last[c] = id;
      ++offsets_[c + 1];
    }
  }
  for (size_t c = 0; c < RasterGrid::kNumCells; ++c) {
    offsets_[c + 1] += offsets_[c];
  }
  ids_.resize(offsets_.back());
  std::fill(last.begin(), last.end(), kNone);
  for (const uint32_t id : ids) {
    for (const Point& p : listed(id)) {
      const uint32_t c = grid_.CellOf(p);
      if (last[c] == id) continue;
      last[c] = id;
      ids_[offsets_[c]++] = id;
    }
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

void PointCellTable::MarkCells(std::span<const uint32_t> cells,
                               uint64_t* mask) const {
  for (const uint32_t c : cells) {
    for (uint32_t i = offsets_[c]; i < offsets_[c + 1]; ++i) {
      const uint32_t id = ids_[i];
      mask[id >> 6] |= uint64_t{1} << (id & 63);
    }
  }
}

}  // namespace tq
