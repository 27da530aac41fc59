#include "tqtree/tq_tree.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "tqtree/aggregates.h"

namespace tq {

namespace {

// Calls `fn` on every quadtree unit of trajectory `traj_id`: its segments, or
// one whole unit for a single-point trajectory, which degenerates to a
// zero-length segment so it still participates in point-count service.
template <typename Fn>
void ForEachSegmentUnit(const TrajectorySet& users, uint32_t traj_id,
                        const ServiceModel& model, Fn&& fn) {
  const size_t n = users.NumPoints(traj_id);
  if (n < 2) {
    fn(MakeWholeEntry(users, traj_id, model));
    return;
  }
  for (uint32_t s = 0; s + 1 < n; ++s) {
    fn(MakeSegmentEntry(users, traj_id, s, model));
  }
}

}  // namespace

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
  if (options_.mode == TrajMode::kWhole) {
    num_units_ = ids.size();
  } else {
    // The cell index's world is padded so boundary points sit strictly
    // inside and top splits cannot degenerate.
    nodes_.emplace_back();
    nodes_[0].rect = cells_.world();
    for (const uint32_t u : ids) InsertUnits(u);
  }
  Freeze();
}

// ------------------------------------------------------------ build paths

void TQTree::Insert(uint32_t traj_id) {
  cells_.Insert(traj_id);
  if (options_.mode == TrajMode::kWhole) {
    ++num_units_;
  } else {
    InsertUnits(traj_id);
  }
}

void TQTree::InsertUnits(uint32_t traj_id) {
  ForEachSegmentUnit(*users_, traj_id, options_.model,
                     [&](const TrajEntry& e) { InsertEntry(e); });
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
  }
  for (const TrajEntry& e : moved) {
    const int q = node(idx).rect.QuadrantOf(e.mbr.Center());
    const int32_t child = first + q;
    TQNode& c = nodes_[child];
    c.sub += e.ub;
    c.entries.push_back(e);
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
  if (options_.mode == TrajMode::kWhole) {
    if (!cells_.Remove(traj_id)) return false;
    --num_units_;
    return true;
  }
  // Locate each unit's storing node by re-descending with its MBR; the
  // descents share one buffer, unit i's path ending at path_end[i].
  std::vector<double> ubs;
  std::vector<int32_t> paths;
  std::vector<size_t> path_end;
  ForEachSegmentUnit(*users_, traj_id, options_.model,
                     [&](const TrajEntry& e) {
                       ubs.push_back(e.ub);
                       Descend(e.mbr, &paths);
                       path_end.push_back(paths.size());
                     });
  const auto store = [&](size_t i) { return paths[path_end[i] - 1]; };
  // Each storing node's list is scanned once, up to the first stored copy
  // of every unit that descends to it, and closed up in one stable pass
  // that moves each block between two erased entries once, so list order
  // (and every answer) stays. `found` records which units were stored.
  std::vector<char> found(ubs.size(), 0);
  std::vector<int32_t> nodes;
  for (size_t i = 0; i < ubs.size(); ++i) nodes.push_back(store(i));
  std::sort(nodes.begin(), nodes.end());
  std::vector<ptrdiff_t> hits;
  for (auto at = nodes.begin(); at != nodes.end();) {
    const int32_t idx = *at;
    const auto next_node = std::upper_bound(at, nodes.end(), idx);
    const auto want = static_cast<size_t>(next_node - at);
    at = next_node;
    std::vector<TrajEntry>& list = nodes_[idx].entries;
    hits.clear();
    for (auto it = list.begin(); hits.size() < want; ++it) {
      it = std::find_if(it, list.end(), [traj_id](const TrajEntry& e) {
        return e.traj_id == traj_id;
      });
      if (it == list.end()) break;
      const size_t i = it->IsWhole() ? 0 : it->seg_index;
      if (i >= ubs.size() || found[i] != 0 || store(i) != idx) continue;
      found[i] = 1;
      hits.push_back(it - list.begin());
    }
    if (hits.empty()) continue;
    auto out = list.begin() + hits[0];
    for (size_t h = 0; h < hits.size(); ++h) {
      const auto block_end =
          h + 1 < hits.size() ? list.begin() + hits[h + 1] : list.end();
      out = std::move(list.begin() + hits[h] + 1, block_end, out);
    }
    list.erase(out, list.end());
    nodes_[idx].zindex.reset();
    num_units_ -= hits.size();
  }
  // Bound repair unit by unit, root to store, as each unit was inserted.
  bool all = true;
  for (size_t i = 0; i < ubs.size(); ++i) {
    if (found[i] == 0) {
      all = false;
      continue;
    }
    for (size_t p = i == 0 ? 0 : path_end[i - 1]; p < path_end[i]; ++p) {
      nodes_[paths[p]].sub -= ubs[i];
    }
  }
  // De-index the cells only on a complete removal: leftover segments keep
  // their deposits, which can only overstate (never understate) the bound.
  return all && cells_.Remove(traj_id);
}

void TQTree::Descend(const Rect& mbr, std::vector<int32_t>* path) const {
  int32_t idx = 0;
  for (;;) {
    path->push_back(idx);
    if (node(idx).IsLeaf()) return;
    idx = ChildContaining(idx, mbr);
    if (idx < 0) return;
  }
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
