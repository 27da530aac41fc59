// Catalog of per-facility acceleration structures (StopGrid + EMBR), built
// once per (facility set, ψ) and shared by all query algorithms.
#ifndef TQCOVER_SERVICE_FACILITY_INDEX_H_
#define TQCOVER_SERVICE_FACILITY_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "service/stop_grid.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace tq {

/// Owns one StopGrid per facility. Facilities are stop-point sequences in a
/// TrajectorySet (not owned; must outlive the catalog).
class FacilityCatalog {
 public:
  FacilityCatalog(const TrajectorySet* facilities, double psi);

  // The serial names this catalog's grids: a moved-from catalog would keep
  // it without them.
  FacilityCatalog(const FacilityCatalog&) = delete;
  FacilityCatalog& operator=(const FacilityCatalog&) = delete;

  /// Unique among the catalogs this process ever constructs, so a cache
  /// keyed on it (CellIndex::Bounds) never mistakes a new catalog for a
  /// destroyed one at the same address.
  uint64_t serial() const { return serial_; }

  const TrajectorySet& facilities() const { return *facilities_; }
  size_t size() const { return grids_.size(); }
  double psi() const { return psi_; }

  const StopGrid& grid(FacilityId f) const { return *grids_[f]; }
  const Rect& embr(FacilityId f) const { return grids_[f]->embr(); }

 private:
  const TrajectorySet* facilities_;
  double psi_;
  uint64_t serial_;
  std::vector<std::unique_ptr<StopGrid>> grids_;
};

}  // namespace tq

#endif  // TQCOVER_SERVICE_FACILITY_INDEX_H_
