#include "tqtree/tq_tree.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "tqtree/aggregates.h"

namespace tq {

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options)
    : TQTree(users, options, AllIds(*users)) {}

TQTree::TQTree(const TrajectorySet* users, TQTreeOptions options,
               std::span<const uint32_t> ids)
    : users_(users),
      options_(options),
      cells_(users, options.model, options.mode == TrajMode::kWhole, ids),
      prune_mode_(options.mode == TrajMode::kWhole
                      ? cells_.kind()
                      : DerivePruneMode(TrajMode::kSegmented, options.model,
                                        0)) {
  TQ_CHECK(options_.beta > 0);
  TQ_CHECK(options_.max_depth >= 1 && options_.max_depth <= 32);
  // The cell index's world is padded so boundary points sit strictly inside
  // and top splits cannot degenerate.
  nodes_.emplace_back();
  nodes_[0].rect = cells_.world();
  for (const uint32_t u : ids) InsertUnits(u);
  Freeze();
}

// ------------------------------------------------------------ build paths

void TQTree::Insert(uint32_t traj_id) {
  cells_.Insert(traj_id);
  InsertUnits(traj_id);
}

void TQTree::InsertUnits(uint32_t traj_id) {
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
  // Bound repair happens along the root-to-store path.
  int32_t idx = 0;
  for (;;) {
    TQNode& n = nodes_[idx];
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
  TQNode& n = nodes_[idx];
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
      nodes_[idx].split_failed_at = list_size;
      return;
    }
  }

  // Allocate the four children, contiguous in id space. The resize moves
  // the nodes, so references are taken only after it.
  const Rect rect = node(idx).rect;
  const auto depth = static_cast<int16_t>(node(idx).depth + 1);
  const auto first = static_cast<int32_t>(nodes_.size());
  nodes_.resize(nodes_.size() + 4);
  for (int q = 0; q < 4; ++q) {
    TQNode& c = nodes_[first + q];
    c.rect = rect.Quadrant(q);
    c.depth = depth;
  }
  nodes_[idx].first_child = first;

  // Redistribute: units fitting a child sink; the rest stay as the
  // inter-node list of this (now internal) node.
  std::vector<TrajEntry> keep;
  std::vector<TrajEntry> moved;
  moved.reserve(node(idx).entries.size());
  {
    TQNode& n = nodes_[idx];
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
    TQNode& c = nodes_[child];
    c.sub += e.ub;
    c.entries.push_back(e);
    c.local_ub += e.ub;
    c.zindex.reset();
  }
  for (int q = 0; q < 4; ++q) MaybeSplit(first + q);
}

const ZIndex* TQTree::zindex(int32_t idx) {
  if (!HasZIndexes()) return nullptr;
  // Every write to a node's list drops its index, so a non-empty list
  // without one is exactly a stale node.
  TQNode& n = nodes_[idx];
  if (n.entries.empty()) return nullptr;
  if (n.zindex == nullptr) {
    n.zindex = std::make_unique<const ZIndex>(n.rect, n.entries, options_.beta,
                                              prune_mode_);
  }
  return n.zindex.get();
}

void TQTree::Freeze() {
  if (HasZIndexes()) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      (void)zindex(static_cast<int32_t>(i));
    }
  }
  cells_.Freeze();
}

bool TQTree::Remove(uint32_t traj_id) {
  TQ_CHECK(traj_id < users_->size());
  if (options_.mode == TrajMode::kWhole || users_->NumPoints(traj_id) < 2) {
    const TrajEntry e = MakeWholeEntry(*users_, traj_id, options_.model);
    return RemoveUnit(traj_id, e.seg_index, e.mbr, e.ub) &&
           cells_.Remove(traj_id);
  }
  bool all = true;
  const size_t n = users_->NumPoints(traj_id);
  for (uint32_t s = 0; s + 1 < n; ++s) {
    const TrajEntry e = MakeSegmentEntry(*users_, traj_id, s, options_.model);
    all = RemoveUnit(traj_id, s, e.mbr, e.ub) && all;
  }
  // De-index the cells only on a complete removal: leftover segments keep
  // their deposits, which can only overstate (never understate) the bound.
  return all && cells_.Remove(traj_id);
}

bool TQTree::RemoveUnit(uint32_t traj_id, uint32_t seg_index,
                        const Rect& unit_mbr, double ub) {
  // Locate the storing node by re-descending with the unit's MBR.
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
  TQNode& n = nodes_[store];
  n.entries.erase(n.entries.begin() + pos);
  n.local_ub -= ub;
  n.zindex.reset();
  for (const int32_t p : path) nodes_[p].sub -= ub;
  --num_units_;
  return true;
}

TQTreeStats TQTree::ComputeStats() const {
  TQTreeStats s;
  s.num_nodes = nodes_.size();
  for (const TQNode& n : nodes_) {
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
