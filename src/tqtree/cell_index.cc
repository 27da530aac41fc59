#include "tqtree/cell_index.h"

#include <algorithm>
#include <bit>
#include <utility>

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
  num_indexed_ = ids.size();
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
      indexed_(parent.indexed_),
      num_indexed_(parent.num_indexed_) {
  TQ_CHECK(users != nullptr);
  // Every indexed id names a trajectory of the parent's set; an append-only
  // extension keeps them all valid.
  TQ_CHECK(users->size() >= parent.users_->size());
  max_points_ = MaxPoints(*users, static_cast<uint32_t>(parent.users_->size()),
                          parent.max_points_);
  kind_ = DerivePruneMode(TrajMode::kWhole, model_, max_points_);
  // The tables' kind follows the longest trajectory: a flipped fork drops
  // them until its next freeze, and the memo, whose candidates follow the
  // kind.
  if (kind_ == parent.kind_) {
    cells_ = parent.cells_;
    end_cells_ = parent.end_cells_;
    pending_ = parent.pending_;
    const std::lock_guard<std::mutex> lock(parent.memo_mu_);
    memo_serial_ = parent.memo_serial_;
    memo_ = parent.memo_;
    log_ = parent.log_;
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
  raster_->AddTrajectory(users_->points(traj_id), model_, 1.0);
  SetIndexed(traj_id, true);
  ++num_indexed_;
  if (cells_ != nullptr) pending_.push_back(traj_id);
  LogWrite(traj_id, true);
}

bool CellIndex::Remove(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  const std::vector<uint64_t>& live = *indexed_;
  const size_t w = traj_id >> 6;
  if (w >= live.size() || ((live[w] >> (traj_id & 63)) & 1) == 0) return false;
  Own();
  fresh_ = false;
  raster_->AddTrajectory(users_->points(traj_id), model_, -1.0);
  SetIndexed(traj_id, false);
  --num_indexed_;
  LogWrite(traj_id, false);
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
  // A memo with candidate caps stays valid: its candidates are those of a
  // fresh index over the indexed trajectories, which is what the rebuilt
  // tables list. One swept without tables (a flipped fork's) has no caps.
  {
    const std::lock_guard<std::mutex> lock(memo_mu_);
    if (memo_ != nullptr && memo_->cap.empty()) {
      memo_.reset();
      log_.clear();
    }
  }
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

void CellIndex::LogWrite(uint32_t traj_id, bool insert) {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_ == nullptr) return;
  log_.push_back(Write{traj_id, insert});
  // Freeze's rule for the tables: past 1/8, a sweep is the cheaper update.
  if (log_.size() * 8 > num_indexed_) {
    memo_.reset();
    log_.clear();
  }
}

void CellIndex::AddPendingKeepIndexed(
    size_t words, uint64_t* mask,
    const std::span<const CellRun>* qualifying) const {
  for (const uint32_t id : pending_) {
    if (qualifying != nullptr && !Qualifies(id, *qualifying)) continue;
    mask[id >> 6] |= uint64_t{1} << (id & 63);
  }
  const std::vector<uint64_t>& live = *indexed_;
  for (size_t w = 0; w < words; ++w) {
    mask[w] &= w < live.size() ? live[w] : 0;
  }
}

bool CellIndex::Qualifies(uint32_t id, std::span<const CellRun> runs) const {
  const std::span<const Point> points = users_->points(id);
  if (points.empty()) return false;
  const RasterGrid& grid = raster_->grid();
  if (end_cells_ != nullptr) {
    return RunsContain(runs, grid.CellOf(points.front())) &&
           RunsContain(runs, grid.CellOf(points.back()));
  }
  return std::any_of(points.begin(), points.end(), [&](const Point& p) {
    return RunsContain(runs, grid.CellOf(p));
  });
}

void CellIndex::MarkCandidateCells(std::span<const CellRun> runs,
                                   std::vector<uint64_t>* mask,
                                   bool qualifying_pending) const {
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
  AddPendingKeepIndexed(words, mask->data(),
                        qualifying_pending ? &runs : nullptr);
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

namespace {

/// The bound from its two parts: the smaller of the candidates' caps and
/// the near cells' mass, both inflated — a unit's cap and the exact value
/// it caps are computed by different formulas, which may round differently,
/// and the raster drifts. A patched part may drift below zero.
double CombineBound(bool capped, double cap, double mass) {
  const double by_mass = std::max(0.0, mass) * kRasterDriftInflation;
  if (!capped) return by_mass;
  return std::min(std::max(0.0, cap) * kRasterDriftInflation, by_mass);
}

}  // namespace

double CellIndex::BoundInCells(std::span<const CellRun> runs, double* cap,
                               double* mass,
                               std::vector<uint32_t>* candidates) const {
  *mass = raster_->MassInCells(runs);
  *cap = 0.0;
  if (cells_ == nullptr) return CombineBound(false, *cap, *mass);
  static thread_local std::vector<uint64_t> mask;
  MarkCandidateCells(runs, &mask, /*qualifying_pending=*/true);
  // Every unit that scores has its bit set and scores at most its own
  // upper bound; no de-indexed trajectory has a bit.
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      *cap += UnitUpperBound(*users_, id, kWholeUnit, model_);
      if (candidates != nullptr) candidates->push_back(id);
    }
  }
  return CombineBound(true, *cap, *mass);
}

double CellIndex::CellUpperBound(const StopGrid& grid,
                                 std::vector<uint32_t>* candidates) const {
  static thread_local std::vector<CellRun> runs;
  raster_->grid().CellsNearStops(grid.stops(), grid.psi(), &runs);
  double cap = 0.0;
  double mass = 0.0;
  return BoundInCells(runs, &cap, &mass, candidates);
}

std::shared_ptr<FacilityBounds> CellIndex::Sweep(
    const FacilityCatalog& catalog) const {
  auto bounds = std::make_shared<FacilityBounds>();
  const size_t num_fac = catalog.size();
  bounds->bound.resize(num_fac);
  bounds->mass.resize(num_fac);
  if (cells_ != nullptr) bounds->cap.resize(num_fac);
  std::vector<uint32_t>* ids = nullptr;
  if (lists_candidates()) {
    ids = &bounds->ids;
    bounds->begin.assign(num_fac + 1, 0);
  }
  static thread_local std::vector<CellRun> runs;
  double cap = 0.0;
  for (uint32_t f = 0; f < num_fac; ++f) {
    const StopGrid& grid = catalog.grid(f);
    raster_->grid().CellsNearStops(grid.stops(), grid.psi(), &runs);
    bounds->bound[f] = BoundInCells(runs, &cap, &bounds->mass[f], ids);
    if (cells_ != nullptr) bounds->cap[f] = cap;
    if (ids != nullptr) bounds->begin[f + 1] = ids->size();
  }
  bounds->ids.shrink_to_fit();
  return bounds;
}

std::shared_ptr<const Footprints> CellIndex::FootprintsOf(
    const FacilityCatalog& catalog) const {
  auto footprints = std::make_shared<Footprints>();
  footprints->begin.assign(catalog.size() + 1, 0);
  static thread_local std::vector<CellRun> runs;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    raster_->grid().CellsNearStops(grid.stops(), grid.psi(), &runs);
    footprints->runs.insert(footprints->runs.end(), runs.begin(), runs.end());
    footprints->begin[f + 1] = footprints->runs.size();
  }
  footprints->runs.shrink_to_fit();
  return footprints;
}

std::shared_ptr<FacilityBounds> CellIndex::Patch(
    const FacilityBounds& base, const FacilityCatalog& catalog) const {
  auto next = std::make_shared<FacilityBounds>();
  next->cap = base.cap;
  next->mass = base.mass;
  // An index that is never written never stores footprints; the first
  // patch of a lineage does, and every later copy and fork shares them.
  next->footprints = base.footprints != nullptr ? base.footprints
                                                : FootprintsOf(catalog);
  const Footprints& footprints = *next->footprints;
  const size_t num_fac = base.bound.size();
  const bool capped = !base.cap.empty();
  // Each write adds (or takes away) its deposits in a facility's near cells
  // and, where it is a candidate, its cap: the change a fresh sweep would
  // see, summed in log order.
  std::vector<std::pair<uint32_t, double>> deposits;
  for (const Write& write : log_) {
    const std::span<const Point> points = users_->points(write.id);
    deposits.clear();
    raster_->ForEachDeposit(points, model_, [&](uint32_t cell, double value) {
      deposits.emplace_back(cell, value);
    });
    const double sign = write.insert ? 1.0 : -1.0;
    const double unit_cap =
        capped ? UnitUpperBound(*users_, write.id, kWholeUnit, model_) : 0.0;
    for (uint32_t f = 0; f < num_fac; ++f) {
      const std::span<const CellRun> runs = footprints.of(f);
      for (const auto& [cell, value] : deposits) {
        if (RunsContain(runs, cell)) next->mass[f] += sign * value;
      }
      if (capped && Qualifies(write.id, runs)) next->cap[f] += sign * unit_cap;
    }
  }
  next->bound.resize(num_fac);
  for (uint32_t f = 0; f < num_fac; ++f) {
    next->bound[f] =
        CombineBound(capped, capped ? next->cap[f] : 0.0, next->mass[f]);
  }
  if (!base.listed()) return next;
  // A written id's final membership of facility f's list: indexed after the
  // last write, and qualifying. Every other id keeps its membership.
  std::vector<uint32_t> written;
  for (const Write& write : log_) written.push_back(write.id);
  std::sort(written.begin(), written.end());
  written.erase(std::unique(written.begin(), written.end()), written.end());
  std::vector<uint32_t> live;
  const std::vector<uint64_t>& indexed = *indexed_;
  for (const uint32_t id : written) {
    if ((id >> 6) < indexed.size() && ((indexed[id >> 6] >> (id & 63)) & 1)) {
      live.push_back(id);
    }
  }
  next->begin.assign(num_fac + 1, 0);
  next->ids.reserve(base.ids.size() + live.size());
  std::vector<uint32_t> joining;
  for (uint32_t f = 0; f < num_fac; ++f) {
    joining.clear();
    for (const uint32_t id : live) {
      if (Qualifies(id, footprints.of(f))) joining.push_back(id);
    }
    // Merge the kept old ids (those not written) with the joining ones.
    auto add = joining.begin();
    for (const uint32_t id : base.candidates(f)) {
      if (std::binary_search(written.begin(), written.end(), id)) continue;
      for (; add != joining.end() && *add < id; ++add) {
        next->ids.push_back(*add);
      }
      next->ids.push_back(id);
    }
    next->ids.insert(next->ids.end(), add, joining.end());
    next->begin[f + 1] = next->ids.size();
  }
  return next;
}

std::shared_ptr<const FacilityBounds> CellIndex::Bounds(
    const FacilityCatalog& catalog, size_t* computed, size_t* patched) const {
  const std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_ != nullptr && memo_serial_ == catalog.serial()) {
    if (log_.empty()) return memo_;
    memo_ = Patch(*memo_, catalog);
    if (patched != nullptr) *patched += log_.size();
    log_.clear();
    return memo_;
  }
  memo_ = Sweep(catalog);
  log_.clear();
  if (computed != nullptr) *computed += catalog.size();
  memo_serial_ = catalog.serial();
  return memo_;
}

}  // namespace tq
