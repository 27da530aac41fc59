// Uniform hash grid over one facility's stop points.
//
// Answers "is this user point within ψ of any stop of the facility?" in O(1)
// expected time. Every query method — BL, TQ(B) and TQ(Z) — funnels its
// final exact check through this structure, so the methods can only differ
// in *which* candidates they inspect, never in the service value they
// assign. This also realises the paper's MakeUnion merge step: clipped
// facility components re-unify here because the grid always holds the full
// facility.
//
// Layout: cells are ψ×ψ (widened by 2^-20 of ψ against rounding), and the
// table stores the DILATED occupancy — every cell whose 3×3 neighborhood
// contains a stop gets an entry listing all the stops of that neighborhood.
// A stop within ψ of a probe point is always in the probe cell's 3×3 window
// (cell size ≥ ψ), so one open-addressed find returns every candidate stop,
// not the nine per-neighbor lookups of the classic 3×3 probe (the seed's
// unordered_map version spent 21% of SO evaluation in hashtable find alone).
//
// A probe reads one table line plus the stop it names, because everything
// is stored compactly: a slot is 16 bytes {key, n, ref}, the table has twice
// as many slots as distinct cells, and each stop is stored once as a Point
// (a 64-stop NY route's grid is ~18 KB). A cell listing one stop — the
// common case: NYT endpoints probed against NY bus routes at ψ = 200 m find
// ~1.2 stops per listed cell on average — names it in `ref` directly; a
// longer list is a run of the shared stop-id array `ids_`, in stop order.
// The within-ψ check is `simd::scalar::WithinPsi2` per listed stop, with an
// early exit. Construction is one sort of the (key, stop) pairs.
// `ServesScalar` keeps the general id-list lookup (no one-stop shortcut) as
// the in-binary reference; the agreement suite holds `Serves`/`ServesBatch`
// equal to it and to brute force.
#ifndef TQCOVER_SERVICE_STOP_GRID_H_
#define TQCOVER_SERVICE_STOP_GRID_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace tq {

/// Immutable ψ-cell hash grid over a facility's stops.
class StopGrid {
 public:
  StopGrid(std::span<const Point> stops, double psi);

  double psi() const { return psi_; }
  std::span<const Point> stops() const { return stops_; }

  /// MBR of the stops.
  const Rect& mbr() const { return mbr_; }

  /// ψ-extended MBR — the paper's EMBR enclosing the serving area (§IV-A).
  const Rect& embr() const { return embr_; }

  /// True iff `p` is within ψ of at least one stop.
  bool Serves(const Point& p) const;

  /// Scalar reference for `Serves`: same cells, per-stop scalar predicate.
  /// Retained in every build so the agreement suite can compare in-binary.
  bool ServesScalar(const Point& p) const;

  /// Writes bit i of `out_mask` (64 points per word, little-endian bit
  /// order) = Serves(pts[i]) for the whole span. `out_mask` must hold
  /// ceil(pts.size() / 64) words; bits at and beyond pts.size() are zeroed.
  void ServesBatch(std::span<const Point> pts, uint64_t* out_mask) const;

  /// Distance from `p` to the nearest stop within the 3×3 probe window;
  /// +inf when no stop is that close. Used by diagnostics and tests.
  double NearbyStopDistance(const Point& p) const;

  /// Heap bytes held by the grid, counted from its containers' capacities.
  size_t heap_bytes() const;

 private:
  // Open-addressed table slot for one dilated cell. `n == 0` marks an empty
  // slot; every real entry lists at least one neighborhood stop.
  struct Slot {
    int64_t key = 0;
    uint32_t n = 0;    // stops listed
    uint32_t ref = 0;  // n == 1: the stop's index; n > 1: offset into ids_
  };
  static_assert(sizeof(Slot) == 16, "a slot is a quarter cache line");

  int64_t CellKey(double x, double y) const;
  size_t HomeSlot(int64_t key) const;
  size_t NextSlot(size_t slot) const;
  const Slot* FindSlot(int64_t key) const;
  // The stop ids a slot lists, through the general id-list path.
  std::span<const uint32_t> Listed(const Slot& s) const;
  // Neighborhood scan of p's cell; true iff any stop is within ψ².
  bool ProbeCell(const Point& p) const;

  std::vector<Point> stops_;
  double psi_;
  double psi2_;  // fl(psi * psi), hoisted out of every probe
  double inv_cell_;
  Rect mbr_;
  Rect embr_;
  Rect box_;  // embr_ grown by a rounding margin: the probe prefilter
  std::vector<Slot> table_;  // open-addressed cell table, 2 × cells slots
  std::vector<uint32_t> ids_;  // stop ids of the cells listing more than one
};

}  // namespace tq

#endif  // TQCOVER_SERVICE_STOP_GRID_H_
