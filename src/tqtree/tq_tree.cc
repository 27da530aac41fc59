#include "tqtree/tq_tree.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>

#include "common/check.h"
#include "service/stop_grid.h"
#include "tqtree/aggregates.h"
#include "tqtree/point_raster.h"

namespace tq {

namespace {

/// Globally unique page-ownership tags. A page is writable in place only by
/// the tree whose epoch matches; Fork() hands BOTH trees fresh epochs so all
/// previously created pages become copy-on-write for either side.
uint64_t NewEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint32_t> AllIds(const TrajectorySet* users) {
  TQ_CHECK(users != nullptr);
  std::vector<uint32_t> ids(users->size());
  for (uint32_t u = 0; u < ids.size(); ++u) ids[u] = u;
  return ids;
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

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options, ForkTag)
    : users_(users), options_(options), epoch_(NewEpoch()) {
  TQ_CHECK(users != nullptr);
  for (uint32_t u = 0; u < users_->size(); ++u) {
    max_points_ = std::max(max_points_, users_->NumPoints(u));
  }
  prune_mode_ = DerivePruneMode(options_.mode, options_.model, max_points_);
}

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options)
    : TQTree(users, options, AllIds(users)) {}

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options,
               std::span<const uint32_t> ids)
    : TQTree(users, options, ForkTag{}) {
  TQ_CHECK(options_.beta > 0);
  TQ_CHECK(options_.max_depth >= 1 && options_.max_depth <= 32);
  Rect box = users_->empty() ? Rect::Of(0, 0, 1, 1) : users_->BoundingBox();
  // Expand slightly so boundary points sit strictly inside and top splits
  // cannot degenerate.
  const double pad =
      0.001 * std::max({box.Width(), box.Height(), 1.0});
  world_ = box.Expanded(pad);

  const int32_t root_id = AppendNode();
  TQNode& root = MutableNode(root_id);
  root.rect = world_;
  root.depth = 0;
  for (const uint32_t u : ids) Insert(u);
  Freeze();
}

// ---------------------------------------------------------- page storage

void TQTree::CopyPage(size_t page_index) {
  const std::shared_ptr<NodePage>& old = pages_[page_index];
  pages_[page_index] = std::make_shared<NodePage>(*old, epoch_);
  cow_stats_.pages_copied++;
  // Count the live nodes physically duplicated (the last page may be
  // partially filled).
  const size_t first = page_index << kNodePageShift;
  cow_stats_.nodes_copied +=
      std::min(kNodePageSize, num_nodes_ - first);
}

int32_t TQTree::AppendNode() {
  const size_t slot = num_nodes_ & kNodePageMask;
  if (slot == 0) {
    // Fresh page: owned by construction, no copy.
    pages_.push_back(std::make_shared<NodePage>());
    pages_.back()->epoch = epoch_;
  } else if (pages_[num_nodes_ >> kNodePageShift]->epoch != epoch_) {
    // Appending into a shared page (fork whose last page has free slots):
    // copy it first so the parent never sees the new node.
    CopyPage(num_nodes_ >> kNodePageShift);
  }
  const auto id = static_cast<int32_t>(num_nodes_);
  ++num_nodes_;
  pages_[static_cast<size_t>(id) >> kNodePageShift]
      ->nodes[static_cast<size_t>(id) & kNodePageMask] = TQNode{};
  return id;
}

std::unique_ptr<TQTree> TQTree::Fork(const TrajectorySet* users) {
  TQ_CHECK(users != nullptr);
  // Every entry references a trajectory id of the original set; a superset
  // keeps them all valid (ids are stable — TrajectorySet is append-only).
  TQ_CHECK(users->size() >= users_->size());
  auto fork = std::unique_ptr<TQTree>(
      new TQTree(users, options_, ForkTag{}));
  fork->world_ = world_;
  fork->num_units_ = num_units_;
  fork->num_nodes_ = num_nodes_;
  fork->pages_ = pages_;  // structural sharing: O(num_pages) pointer copies
  fork->cow_stats_ = CowStats{};
  fork->cow_stats_.pages_at_fork = pages_.size();
  // Re-tag BOTH trees: every existing page now belongs to neither, so the
  // first write on either side copies the page instead of mutating shared
  // state. Readers of this (frozen, published) tree never look at epochs.
  epoch_ = NewEpoch();
  fork->epoch_ = NewEpoch();
  // The point-mass raster is shared the same way: neither side owns it
  // after the fork, so the first Insert/Remove on either copies it and
  // retained snapshots keep the mass their bounds were computed from.
  fork->raster_ = raster_;
  fork->raster_owned_ = false;
  raster_owned_ = false;
  // The indexed-ids bitmap likewise.
  fork->indexed_ = indexed_;
  fork->indexed_owned_ = false;
  indexed_owned_ = false;
  // The point-cell tables are immutable, so both sides share them
  // outright; each keeps its own pending list from here on.
  fork->cells_ = cells_;
  fork->end_cells_ = end_cells_;
  fork->cell_pending_ = cell_pending_;
  if (fork->prune_mode_ != prune_mode_) {
    // The extended user set changed the prune mode (a longer trajectory
    // appeared in a two-point whole tree; a segmented mode follows the
    // scenario alone). The cell tables' kind follows the mode, so the fork
    // drops them until its next freeze; it has no z-index to invalidate.
    TQ_DCHECK(!HasZIndexes());
    fork->cells_.reset();
    fork->end_cells_.reset();
    fork->cell_pending_.clear();
  }
  return fork;
}

// ------------------------------------------------------------ build paths

void TQTree::Insert(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  RasterApply(traj_id, 1.0);
  SetIndexed(traj_id, true);
  if (cells_ != nullptr) cell_pending_.push_back(traj_id);
  if (options_.mode == TrajMode::kWhole) {
    InsertEntry(MakeWholeEntry(*users_, traj_id, options_.model));
  } else {
    const size_t n = users_->NumPoints(traj_id);
    if (n < 2) {
      // A single-point trajectory degenerates to a zero-length segment so
      // it still participates in point-count service.
      InsertEntry(MakeWholeEntry(*users_, traj_id, options_.model));
      return;
    }
    for (uint32_t s = 0; s + 1 < n; ++s) {
      InsertEntry(MakeSegmentEntry(*users_, traj_id, s, options_.model));
    }
  }
}

int32_t TQTree::ChildContaining(int32_t idx, const Rect& mbr) const {
  const TQNode& n = node(idx);
  TQ_DCHECK(!n.IsLeaf());
  // The candidate child is the quadrant holding the MBR centre; containment
  // of the whole MBR still has to be verified.
  const int q = n.rect.QuadrantOf(mbr.Center());
  const int32_t child = n.first_child + q;
  if (node(child).rect.ContainsRect(mbr)) return child;
  return -1;
}

void TQTree::InsertEntry(const TrajEntry& e) {
  // Copy-on-write descent: only the root-to-store path is made writable
  // (bound repair happens along this copied spine), so a fork touches
  // O(depth) pages per inserted unit.
  int32_t idx = 0;
  for (;;) {
    TQNode& n = MutableNode(idx);
    n.sub += e.ub;
    if (n.IsLeaf()) {
      StoreAt(idx, e);
      MaybeSplit(idx);
      return;
    }
    const int32_t child = ChildContaining(idx, e.mbr);
    if (child < 0) {
      StoreAt(idx, e);  // inter-node unit
      return;
    }
    idx = child;
  }
}

void TQTree::StoreAt(int32_t idx, const TrajEntry& e) {
  TQNode& n = MutableNode(idx);
  n.entries.push_back(e);
  n.local_ub += e.ub;
  n.zindex.reset();
  ++num_units_;
}

void TQTree::MaybeSplit(int32_t idx) {
  {
    const TQNode& n = node(idx);
    if (!n.IsLeaf()) return;
    if (n.entries.size() <= options_.beta) return;
    if (n.depth >= options_.max_depth) return;
    // Retry a failed split only after the list doubles.
    if (n.split_failed_at != 0 && n.entries.size() < 2 * n.split_failed_at) {
      return;
    }
    // Split only if at least one unit would move down (the paper partitions
    // while intra-node units remain; a split that leaves everything as
    // inter-node units is pure overhead).
    bool any_movable = false;
    for (const TrajEntry& e : n.entries) {
      const int q = n.rect.QuadrantOf(e.mbr.Center());
      if (n.rect.Quadrant(q).ContainsRect(e.mbr)) {
        any_movable = true;
        break;
      }
    }
    if (!any_movable) {
      const auto list_size = static_cast<uint32_t>(n.entries.size());
      MutableNode(idx).split_failed_at = list_size;  // may invalidate n
      return;
    }
  }

  // Allocate children. Appends never move existing nodes (pages are stable),
  // but AppendNode may copy-own the trailing page, so re-fetch references
  // after allocation anyway.
  const auto first = AppendNode();
  {
    const Rect rect = node(idx).rect;
    const auto depth = static_cast<int16_t>(node(idx).depth + 1);
    MutableNode(first).rect = rect.Quadrant(0);
    MutableNode(first).depth = depth;
    for (int q = 1; q < 4; ++q) {
      const int32_t child = AppendNode();
      TQ_CHECK(child == first + q);  // children contiguous in id space
      TQNode& c = MutableNode(child);
      c.rect = rect.Quadrant(q);
      c.depth = depth;
    }
    MutableNode(idx).first_child = first;
  }

  // Redistribute: units fitting a child sink; the rest stay as the
  // inter-node list of this (now internal) node.
  std::vector<TrajEntry> keep;
  std::vector<TrajEntry> moved;
  moved.reserve(node(idx).entries.size());
  {
    TQNode& n = MutableNode(idx);
    for (TrajEntry& e : n.entries) {
      const int q = n.rect.QuadrantOf(e.mbr.Center());
      if (n.rect.Quadrant(q).ContainsRect(e.mbr)) {
        moved.push_back(e);
      } else {
        keep.push_back(e);
      }
    }
    n.entries.swap(keep);
    n.zindex.reset();
    // Recompute local bookkeeping for the kept list.
    n.local_ub = 0.0;
    for (const TrajEntry& e : n.entries) n.local_ub += e.ub;
  }
  for (const TrajEntry& e : moved) {
    const int q = node(idx).rect.QuadrantOf(e.mbr.Center());
    const int32_t child = first + q;
    TQNode& c = MutableNode(child);
    c.sub += e.ub;
    c.entries.push_back(e);
    c.local_ub += e.ub;
    c.zindex.reset();
  }
  for (int q = 0; q < 4; ++q) MaybeSplit(first + q);
}

const ZIndex* TQTree::zindex(int32_t idx) {
  if (!HasZIndexes()) return nullptr;
  // Const pre-checks first: a built (possibly shared) index must not
  // trigger a page copy, or forks would duplicate every queried page. Every
  // write to a node's list drops its index, so a non-empty list without one
  // is exactly a stale node.
  const TQNode& cn = node(idx);
  if (cn.entries.empty()) return nullptr;
  if (cn.zindex != nullptr) return cn.zindex.get();
  TQNode& n = MutableNode(idx);
  n.zindex = std::make_shared<const ZIndex>(n.rect, n.entries, options_.beta,
                                            prune_mode_);
  return n.zindex.get();
}

void TQTree::Freeze() {
  if (HasZIndexes()) {
    for (size_t i = 0; i < num_nodes_; ++i) {
      (void)zindex(static_cast<int32_t>(i));
    }
  }
  // Freezing also materialises the point-mass raster (first freeze): forks
  // inherit it, so steady-state publishes only pay the copy-on-write path in
  // RasterApply.
  if (raster_ == nullptr) BuildRaster();
  // The point-cell tables are rebuilt only once the pending inserts they
  // have to carry exceed 1/8 of their size, so a steady stream of small
  // publishes pays O(1) amortised rebuild work per insert.
  if (options_.mode == TrajMode::kWhole &&
      (cells_ == nullptr ||
       cell_pending_.size() * 8 > cells_->num_trajectories())) {
    BuildCellTables();
  }
}

void TQTree::SetIndexed(uint32_t traj_id, bool on) {
  if (!indexed_owned_) {
    // Copy-on-write: the bitmap is shared with a forked snapshot whose
    // masks must stay frozen.
    indexed_ = std::make_shared<std::vector<uint64_t>>(*indexed_);
    indexed_owned_ = true;
  }
  std::vector<uint64_t>& live = *indexed_;
  if ((traj_id >> 6) >= live.size()) live.resize((traj_id >> 6) + 1, 0);
  const uint64_t bit = uint64_t{1} << (traj_id & 63);
  if (on) {
    live[traj_id >> 6] |= bit;
  } else {
    live[traj_id >> 6] &= ~bit;
  }
}

std::vector<uint32_t> TQTree::IndexedTrajectories() const {
  std::vector<uint32_t> ids;
  const std::vector<uint64_t>& live = *indexed_;
  for (size_t w = 0; w < live.size(); ++w) {
    for (uint64_t bits = live[w]; bits != 0; bits &= bits - 1) {
      ids.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
  return ids;
}

void TQTree::BuildRaster() {
  raster_ = std::make_shared<PointRaster>(world_);
  raster_owned_ = true;
  for (const uint32_t id : IndexedTrajectories()) {
    raster_->AddTrajectory(users_->points(id), options_.model, 1.0);
  }
}

void TQTree::BuildCellTables() {
  const std::vector<uint32_t> ids = IndexedTrajectories();
  if (prune_mode_ == ZPruneMode::kStartEnd) {
    cells_ = std::make_shared<const PointCellTable>(world_, *users_, ids,
                                                    CellPoints::kSource);
    end_cells_ = std::make_shared<const PointCellTable>(
        world_, *users_, ids, CellPoints::kDestination);
  } else {
    cells_ = std::make_shared<const PointCellTable>(world_, *users_, ids,
                                                    CellPoints::kAll);
    end_cells_.reset();
  }
  cell_pending_.clear();
}

void TQTree::MarkCandidateCells(std::span<const uint32_t> cells,
                                bool any_endpoint,
                                std::vector<uint64_t>* mask) const {
  const size_t words = (users_->size() + 63) / 64;
  mask->assign(words, 0);
  cells_->MarkCells(cells, mask->data());
  if (end_cells_ != nullptr) {
    if (any_endpoint) {
      end_cells_->MarkCells(cells, mask->data());
    } else {
      // Both endpoints near: destinations go to a second mask, which the
      // sources' mask is then intersected with.
      static thread_local std::vector<uint64_t> ends;
      ends.assign(words, 0);
      end_cells_->MarkCells(cells, ends.data());
      for (size_t w = 0; w < words; ++w) (*mask)[w] &= ends[w];
    }
  }
  for (const uint32_t id : cell_pending_) {
    (*mask)[id >> 6] |= uint64_t{1} << (id & 63);
  }
  // Tables and pending list keep the ids of removed trajectories.
  const std::vector<uint64_t>& live = *indexed_;
  for (size_t w = 0; w < words; ++w) {
    (*mask)[w] &= w < live.size() ? live[w] : 0;
  }
}

bool TQTree::MarkCandidates(std::span<const Point> stops, double psi,
                            std::vector<uint64_t>* mask,
                            bool any_endpoint) const {
  if (cells_ == nullptr) return false;
  static thread_local std::vector<uint32_t> cells;
  cells_->grid().CellsNearStops(stops, psi, &cells);
  MarkCandidateCells(cells, any_endpoint, mask);
  return true;
}

double TQTree::CellUpperBound(const StopGrid& grid,
                              std::vector<uint32_t>* candidates) const {
  TQ_DCHECK(raster_ != nullptr);  // built at construction
  // No tables (segmented trees, a fork whose prune mode flipped until its
  // next freeze): the raster's mass near the stops alone bounds SO.
  if (cells_ == nullptr) {
    return raster_->MassNearStops(grid.stops(), grid.psi());
  }
  static thread_local std::vector<uint32_t> cells;
  static thread_local std::vector<uint64_t> mask;
  cells_->grid().CellsNearStops(grid.stops(), grid.psi(), &cells);
  MarkCandidateCells(cells, /*any_endpoint=*/false, &mask);
  // Every unit that scores has its bit set and scores at most its own
  // upper bound; no removed trajectory has a bit.
  double sum = 0.0;
  for (size_t w = 0; w < mask.size(); ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const auto id = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      sum += UnitUpperBound(*users_, id, kWholeUnit, options_.model);
      if (candidates != nullptr) candidates->push_back(id);
    }
  }
  // Inflated like the raster: a unit's cap and the exact value it caps are
  // computed by different formulas, which may round differently.
  sum *= kRasterDriftInflation;
  return std::min(sum, raster_->MassInCells(cells));
}

void TQTree::RasterApply(uint32_t traj_id, double sign) {
  if (raster_ == nullptr) return;
  if (!raster_owned_) {
    // Copy-on-write: the raster is shared with a forked snapshot whose
    // bounds must stay frozen.
    raster_ = std::make_shared<PointRaster>(*raster_);
    raster_owned_ = true;
  }
  raster_->AddTrajectory(users_->points(traj_id), options_.model, sign);
}

bool TQTree::Remove(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  if (options_.mode == TrajMode::kWhole || users_->NumPoints(traj_id) < 2) {
    const TrajEntry e = MakeWholeEntry(*users_, traj_id, options_.model);
    if (!RemoveUnit(traj_id, e.seg_index, e.mbr, e.ub)) return false;
    RasterApply(traj_id, -1.0);
    SetIndexed(traj_id, false);
    return true;
  }
  bool all = true;
  const size_t n = users_->NumPoints(traj_id);
  for (uint32_t s = 0; s + 1 < n; ++s) {
    const TrajEntry e = MakeSegmentEntry(*users_, traj_id, s, options_.model);
    all = RemoveUnit(traj_id, s, e.mbr, e.ub) && all;
  }
  // Withdraw the raster mass and the indexed bit only on a complete
  // removal: leftover segments keep their deposits, which can only
  // overstate (never understate) the bound.
  if (all) {
    RasterApply(traj_id, -1.0);
    SetIndexed(traj_id, false);
  }
  return all;
}

bool TQTree::RemoveUnit(uint32_t traj_id, uint32_t seg_index,
                        const Rect& unit_mbr, double ub) {
  // Locate the storing node by re-descending with the unit's MBR. Read-only:
  // pages are copied only once the unit is found (a miss costs nothing).
  std::vector<int32_t> path;
  int32_t idx = 0;
  int32_t store = -1;
  for (;;) {
    path.push_back(idx);
    const TQNode& n = node(idx);
    if (n.IsLeaf()) {
      store = idx;
      break;
    }
    const int32_t child = ChildContaining(idx, unit_mbr);
    if (child < 0) {
      store = idx;
      break;
    }
    idx = child;
  }
  std::ptrdiff_t pos = -1;
  {
    const TQNode& n = node(store);
    const auto it = std::find_if(n.entries.begin(), n.entries.end(),
                                 [&](const TrajEntry& e) {
                                   return e.traj_id == traj_id &&
                                          e.seg_index == seg_index;
                                 });
    if (it == n.entries.end()) return false;
    pos = it - n.entries.begin();
  }
  // A page copy preserves entry order, so the offset found on the shared
  // page stays valid on the writable copy.
  TQNode& n = MutableNode(store);
  n.entries.erase(n.entries.begin() + pos);
  n.local_ub -= ub;
  n.zindex.reset();
  // Bound repair along the copied spine only.
  for (const int32_t p : path) MutableNode(p).sub -= ub;
  --num_units_;
  return true;
}

TQTreeStats TQTree::ComputeStats() const {
  TQTreeStats s;
  s.num_nodes = num_nodes_;
  for (size_t i = 0; i < num_nodes_; ++i) {
    const TQNode& n = node(static_cast<int32_t>(i));
    if (n.IsLeaf()) ++s.num_leaves;
    s.num_entries += n.entries.size();
    s.max_depth = std::max(s.max_depth, static_cast<size_t>(n.depth));
    s.max_list_len = std::max(s.max_list_len, n.entries.size());
  }
  s.avg_list_len = s.num_nodes == 0
                       ? 0.0
                       : static_cast<double>(s.num_entries) /
                             static_cast<double>(s.num_nodes);
  return s;
}

std::string TQTreeStats::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "nodes=%zu leaves=%zu entries=%zu max_depth=%zu "
                "max_list=%zu avg_list=%.2f",
                num_nodes, num_leaves, num_entries, max_depth, max_list_len,
                avg_list_len);
  return buf;
}

}  // namespace tq
