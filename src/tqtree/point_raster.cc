#include "tqtree/point_raster.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "service/stop_grid.h"

namespace tq {

namespace {

/// Relative widening of each stop's ψ-square in the cell walk. The serve
/// predicate compares a rounded squared distance with fl(ψ²), so a served
/// point can sit a few ulps beyond the exact square; this margin, orders of
/// magnitude above those ulps and far below any cell width, keeps such a
/// point's cell in the walk.
constexpr double kWalkSlack = 1e-12;

// Sets bits [begin, end) of `words`.
void SetBits(uint64_t* words, size_t begin, size_t end) {
  while (begin < end) {
    const size_t at = begin & 63;
    const size_t n = std::min<size_t>(64 - at, end - begin);
    const uint64_t ones = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    words[begin >> 6] |= ones << at;
    begin += n;
  }
}

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
                                std::vector<CellRun>* runs) const {
  // Dedupe covered cells: consecutive stops of one route overlap heavily at
  // ψ scale, and a cell listed twice would be summed (or scanned) twice.
  // Each stop's square sets one bit range per row in a thread-local bitmap
  // over the grid; reading the touched words back as runs of set bits lists
  // every cell once, ascending, and leaves the bitmap clear for the next
  // call.
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
      SetBits(covered.data(), r * kRasterResolution + c0,
              r * kRasterResolution + c1 + 1);
    }
    lo = std::min(lo, (r0 * kRasterResolution + c0) >> 6);
    hi = std::max(hi, ((r1 * kRasterResolution + c1) >> 6) + 1);
  }
  runs->clear();
  for (size_t w = lo; w < hi; ++w) {
    uint64_t bits = covered[w];
    covered[w] = 0;
    while (bits != 0) {
      const int first = std::countr_zero(bits);
      const int past = first + std::countr_one(bits >> first);
      const auto begin = static_cast<uint32_t>(w * 64 + first);
      const auto end = static_cast<uint32_t>(w * 64 + past);
      // A run ending at a word's last bit continues into the next word.
      if (!runs->empty() && runs->back().end == begin) {
        runs->back().end = end;
      } else {
        runs->push_back({begin, end});
      }
      bits = past == 64 ? 0 : bits & (~uint64_t{0} << past);
    }
  }
}

bool RunsContain(std::span<const CellRun> runs, uint32_t cell) {
  // The first run ending past `cell` holds it, if any does.
  const auto it = std::upper_bound(
      runs.begin(), runs.end(), cell,
      [](uint32_t c, const CellRun& run) { return c < run.end; });
  return it != runs.end() && it->begin <= cell;
}

// ------------------------------------------------------------ PointRaster

PointRaster::PointRaster(const Rect& world)
    : grid_(world), mass_(RasterGrid::kNumCells, 0.0) {}

void PointRaster::AddTrajectory(std::span<const Point> points,
                                const ServiceModel& model, double sign) {
  ForEachDeposit(points, model, [&](uint32_t cell, double value) {
    mass_[cell] += sign * value;
  });
}

double PointRaster::MassInCells(std::span<const CellRun> runs) const {
  double sum = 0.0;
  // max(0): a cell whose deposits all cancelled may hold a tiny negative
  // residue; it must not subtract from other cells' real mass.
  for (const CellRun& run : runs) {
    for (uint32_t cell = run.begin; cell < run.end; ++cell) {
      sum += std::max(0.0, mass_[cell]);
    }
  }
  return sum;
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
  // Two passes (count, then fill) over the points, so no (cell, point) pair
  // list is ever materialised. Counts land in offsets_[c + 1], so the prefix
  // sum leaves each cell's start in offsets_[c]; the fill then advances
  // offsets_[c] to its end, which is where the final shift by one slot puts
  // it back.
  for (const uint32_t id : ids) {
    for (const Point& p : listed(id)) ++offsets_[grid_.CellOf(p) + 1];
  }
  for (size_t c = 0; c < RasterGrid::kNumCells; ++c) {
    offsets_[c + 1] += offsets_[c];
  }
  owners_.resize(offsets_.back());
  if (points == CellPoints::kAll) points_.resize(offsets_.back());
  for (const uint32_t id : ids) {
    for (const Point& p : listed(id)) {
      const uint32_t at = offsets_[grid_.CellOf(p)]++;
      owners_[at] = id;
      if (points == CellPoints::kAll) points_[at] = p;
    }
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

void PointCellTable::MarkCells(std::span<const CellRun> runs,
                               uint64_t* mask) const {
  for (const CellRun& run : runs) {
    for (uint32_t i = offsets_[run.begin]; i < offsets_[run.end]; ++i) {
      const uint32_t id = owners_[i];
      mask[id >> 6] |= uint64_t{1} << (id & 63);
    }
  }
}

size_t PointCellTable::CountServed(std::span<const CellRun> runs,
                                   const StopGrid& grid, uint32_t* counts,
                                   std::vector<uint32_t>* touched) const {
  TQ_CHECK(points_.size() == owners_.size());
  static thread_local std::vector<uint64_t> served;
  size_t probed = 0;
  for (const CellRun& run : runs) {
    const uint32_t begin = offsets_[run.begin];
    const uint32_t n = offsets_[run.end] - begin;
    if (n == 0) continue;
    probed += n;
    served.resize(std::max<size_t>(served.size(), (n + 63) / 64));
    grid.ServesBatch(std::span(points_).subspan(begin, n), served.data());
    for (uint32_t w = 0; w * 64 < n; ++w) {
      for (uint64_t bits = served[w]; bits != 0; bits &= bits - 1) {
        const uint32_t id = owners_[begin + w * 64 + std::countr_zero(bits)];
        if (counts[id]++ == 0) touched->push_back(id);
      }
    }
  }
  return probed;
}

}  // namespace tq
