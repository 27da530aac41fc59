#include "tqtree/cell_index.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "service/facility_index.h"
#include "service/stop_grid.h"
#include "tqtree/aggregates.h"
#include "tqtree/point_raster.h"

namespace tq {

namespace {

/// The longest trajectory among ids [from, users.size()), at least `floor`.
size_t MaxPoints(const TrajectorySet& users, uint32_t from, size_t floor) {
  for (uint32_t u = from; u < users.size(); ++u) {
    floor = std::max(floor, users.NumPoints(u));
  }
  return floor;
}

}  // namespace

ZPruneMode DerivePruneMode(TrajMode mode, const ServiceModel& model,
                           size_t max_points) {
  if (mode == TrajMode::kSegmented) {
    // A segment unit exposes exactly its two endpoints. Scenario 3 serves a
    // segment only when both ends are within ψ (AND filter exact); Scenarios
    // 1/2 credit single points, so either covered end makes it a candidate.
    return model.scenario == Scenario::kLength ? ZPruneMode::kStartEnd
                                               : ZPruneMode::kStartOrEnd;
  }
  if (model.EndpointsOnly()) return ZPruneMode::kStartEnd;
  if (max_points <= 2) {
    return model.scenario == Scenario::kLength ? ZPruneMode::kStartEnd
                                               : ZPruneMode::kStartOrEnd;
  }
  return ZPruneMode::kMbr;
}

std::vector<uint32_t> AllIds(const TrajectorySet& users) {
  std::vector<uint32_t> ids(users.size());
  for (uint32_t u = 0; u < ids.size(); ++u) ids[u] = u;
  return ids;
}

CellIndex::CellIndex(const TrajectorySet* users, const ServiceModel& model,
                     bool tables, std::span<const uint32_t> ids)
    : users_(users),
      model_(model),
      tables_(tables),
      indexed_(std::make_shared<std::vector<uint64_t>>()) {
  TQ_CHECK(users != nullptr);
  const Rect box = users->empty() ? Rect::Of(0, 0, 1, 1) : users->BoundingBox();
  world_ = box.Expanded(0.001 * std::max({box.Width(), box.Height(), 1.0}));
  max_points_ = MaxPoints(*users, 0, 0);
  kind_ = DerivePruneMode(TrajMode::kWhole, model_, max_points_);
  for (const uint32_t id : ids) {
    TQ_CHECK(id < users->size());
    SetIndexed(id, true);
  }
  raster_ = std::make_shared<PointRaster>(world_);
  for (const uint32_t id : IndexedTrajectories()) {
    raster_->AddTrajectory(users_->points(id), model_, 1.0);
  }
  Freeze();
}

CellIndex::CellIndex(const CellIndex& parent, const TrajectorySet* users)
    : users_(users),
      model_(parent.model_),
      tables_(parent.tables_),
      world_(parent.world_),
      fresh_(false),
      shared_(true),
      raster_(parent.raster_),
      indexed_(parent.indexed_) {
  TQ_CHECK(users != nullptr);
  // Every indexed id names a trajectory of the parent's set; an append-only
  // extension keeps them all valid.
  TQ_CHECK(users->size() >= parent.users_->size());
  max_points_ = MaxPoints(*users, static_cast<uint32_t>(parent.users_->size()),
                          parent.max_points_);
  kind_ = DerivePruneMode(TrajMode::kWhole, model_, max_points_);
  // The tables' kind follows the longest trajectory: a flipped fork drops
  // them until its next freeze.
  if (kind_ == parent.kind_) {
    cells_ = parent.cells_;
    end_cells_ = parent.end_cells_;
    pending_ = parent.pending_;
  }
}

std::unique_ptr<CellIndex> CellIndex::Fork(const TrajectorySet* users) const {
  shared_ = true;
  return std::unique_ptr<CellIndex>(new CellIndex(*this, users));
}

void CellIndex::Own() {
  if (!shared_) return;
  raster_ = std::make_shared<PointRaster>(*raster_);
  indexed_ = std::make_shared<std::vector<uint64_t>>(*indexed_);
  shared_ = false;
}

void CellIndex::SetIndexed(uint32_t traj_id, bool on) {
  std::vector<uint64_t>& live = *indexed_;
  if ((traj_id >> 6) >= live.size()) live.resize((traj_id >> 6) + 1, 0);
  const uint64_t bit = uint64_t{1} << (traj_id & 63);
  if (on) {
    live[traj_id >> 6] |= bit;
  } else {
    live[traj_id >> 6] &= ~bit;
  }
}

void CellIndex::Insert(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  Own();
  fresh_ = false;
  DropBounds();
  raster_->AddTrajectory(users_->points(traj_id), model_, 1.0);
  SetIndexed(traj_id, true);
  if (cells_ != nullptr) pending_.push_back(traj_id);
}

bool CellIndex::Remove(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  const std::vector<uint64_t>& live = *indexed_;
  const size_t w = traj_id >> 6;
  if (w >= live.size() || ((live[w] >> (traj_id & 63)) & 1) == 0) return false;
  Own();
  fresh_ = false;
  DropBounds();
  raster_->AddTrajectory(users_->points(traj_id), model_, -1.0);
  SetIndexed(traj_id, false);
  return true;
}

void CellIndex::Freeze() {
  if (tables_ && (cells_ == nullptr ||
                  pending_.size() * 8 > cells_->num_trajectories())) {
    BuildCellTables();
  }
}

std::vector<uint32_t> CellIndex::IndexedTrajectories() const {
  std::vector<uint32_t> ids;
  const std::vector<uint64_t>& live = *indexed_;
  for (size_t w = 0; w < live.size(); ++w) {
    for (uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      ids.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
  return ids;
}

void CellIndex::BuildCellTables() {
  DropBounds();
  const std::vector<uint32_t> ids = IndexedTrajectories();
  if (kind_ == ZPruneMode::kStartEnd) {
    cells_ = std::make_shared<const PointCellTable>(world_, *users_, ids,
                                                    CellPoints::kSource);
    end_cells_ = std::make_shared<const PointCellTable>(
        world_, *users_, ids, CellPoints::kDestination);
  } else {
    cells_ = std::make_shared<const PointCellTable>(world_, *users_, ids,
                                                    CellPoints::kAll);
    end_cells_.reset();
  }
  pending_.clear();
}

void CellIndex::DropBounds() {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  memo_.reset();
}

void CellIndex::AddPendingKeepIndexed(size_t words, uint64_t* mask) const {
  for (const uint32_t id : pending_) {
    mask[id >> 6] |= uint64_t{1} << (id & 63);
  }
  const std::vector<uint64_t>& live = *indexed_;
  for (size_t w = 0; w < words; ++w) {
    mask[w] &= w < live.size() ? live[w] : 0;
  }
}

void CellIndex::MarkCandidateCells(std::span<const CellRun> runs,
                                   std::vector<uint64_t>* mask) const {
  const size_t words = (users_->size() + 63) / 64;
  mask->assign(words, 0);
  cells_->MarkCells(runs, mask->data());
  if (end_cells_ != nullptr) {
    // Both endpoints near: destinations go to a second mask, which the
    // sources' mask is then intersected with.
    static thread_local std::vector<uint64_t> ends;
    ends.assign(words, 0);
    end_cells_->MarkCells(runs, ends.data());
    for (size_t w = 0; w < words; ++w) (*mask)[w] &= ends[w];
  }
  AddPendingKeepIndexed(words, mask->data());
}

bool CellIndex::MarkCandidates(std::span<const Point> stops, double psi,
                               std::vector<uint64_t>* mask) const {
  if (cells_ == nullptr) return false;
  static thread_local std::vector<CellRun> runs;
  cells_->grid().CellsNearStops(stops, psi, &runs);
  MarkCandidateCells(runs, mask);
  return true;
}

bool CellIndex::MarkEndpointCandidates(
    std::span<const Point> stops, double psi, std::vector<uint64_t>* sources,
    std::vector<uint64_t>* destinations) const {
  if (end_cells_ == nullptr) return false;
  static thread_local std::vector<CellRun> runs;
  cells_->grid().CellsNearStops(stops, psi, &runs);
  const size_t words = (users_->size() + 63) / 64;
  sources->assign(words, 0);
  destinations->assign(words, 0);
  cells_->MarkCells(runs, sources->data());
  end_cells_->MarkCells(runs, destinations->data());
  AddPendingKeepIndexed(words, sources->data());
  AddPendingKeepIndexed(words, destinations->data());
  return true;
}

size_t CellIndex::CountServedPoints(const StopGrid& grid,
                                    std::vector<uint64_t>* mask,
                                    uint32_t* counts,
                                    std::vector<uint32_t>* touched) const {
  TQ_CHECK(cells_ != nullptr && end_cells_ == nullptr);
  static thread_local std::vector<CellRun> runs;
  cells_->grid().CellsNearStops(grid.stops(), grid.psi(), &runs);
  MarkCandidateCells(runs, mask);
  const size_t probed = cells_->CountServed(runs, grid, counts, touched);
  for (const uint32_t id : pending_) {
    if (counts[id] == 0) touched->push_back(id);
    counts[id] = kPendingCount;
  }
  return probed;
}

double CellIndex::CellUpperBound(const StopGrid& grid,
                                 std::vector<uint32_t>* candidates) const {
  if (cells_ == nullptr) {
    return raster_->MassNearStops(grid.stops(), grid.psi());
  }
  static thread_local std::vector<CellRun> runs;
  static thread_local std::vector<uint64_t> mask;
  cells_->grid().CellsNearStops(grid.stops(), grid.psi(), &runs);
  MarkCandidateCells(runs, &mask);
  // Every unit that scores has its bit set and scores at most its own
  // upper bound; no de-indexed trajectory has a bit.
  double sum = 0.0;
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      sum += UnitUpperBound(*users_, id, kWholeUnit, model_);
      if (candidates != nullptr) candidates->push_back(id);
    }
  }
  // Inflated like the raster: a unit's cap and the exact value it caps are
  // computed by different formulas, which may round differently.
  sum *= kRasterDriftInflation;
  return std::min(sum, raster_->MassInCells(runs));
}

std::shared_ptr<const FacilityBounds> CellIndex::Bounds(
    const FacilityCatalog& catalog, size_t* computed) const {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_ != nullptr && memo_serial_ == catalog.serial()) return memo_;
  auto bounds = std::make_shared<FacilityBounds>();
  const size_t num_fac = catalog.size();
  bounds->bound.resize(num_fac);
  std::vector<uint32_t>* ids = nullptr;
  if (lists_candidates()) {
    ids = &bounds->ids;
    bounds->begin.assign(num_fac + 1, 0);
  }
  for (uint32_t f = 0; f < num_fac; ++f) {
    bounds->bound[f] = CellUpperBound(catalog.grid(f), ids);
    if (ids != nullptr) bounds->begin[f + 1] = ids->size();
  }
  bounds->ids.shrink_to_fit();
  if (computed != nullptr) *computed += num_fac;
  memo_serial_ = catalog.serial();
  memo_ = bounds;
  return bounds;
}

}  // namespace tq
