#include "tqtree/zindex.h"

#include <algorithm>

#include "common/check.h"
#include "common/simd.h"
#include "geom/distance.h"

namespace tq {

bool ZIndex::Corridor::Reaches(const Rect& r) const {
  const double psi2 = psi * psi;
  const size_t n = stops.size();
  static_assert(sizeof(Point) == 2 * sizeof(double),
                "corridor kernel assumes Point is two packed doubles");
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (simd::LanesDiskReachRect(&stops[i].x, r.min_x, r.min_y, r.max_x,
                                 r.max_y, psi2) != 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if (simd::scalar::DiskReachRect(stops[i].x, stops[i].y, r.min_x, r.min_y,
                                    r.max_x, r.max_y, psi2)) {
      return true;
    }
  }
  return false;
}

bool ZIndex::Corridor::ReachesScalar(const Rect& r) const {
  const double psi2 = psi * psi;
  for (const Point& s : stops) {
    if (simd::scalar::DiskReachRect(s.x, s.y, r.min_x, r.min_y, r.max_x,
                                    r.max_y, psi2)) {
      return true;
    }
  }
  return false;
}

ZIndex::ZIndex(const Rect& node_rect, std::span<const TrajEntry> entries,
               size_t beta, ZPruneMode prune_mode)
    : prune_mode_(prune_mode), beta_(beta) {
  TQ_CHECK(beta > 0);
  // Entries whose endpoints escape the node rectangle cannot be assigned
  // meaningful z-cells; route them to the always-scanned outlier list.
  std::vector<uint32_t> indexed;
  indexed.reserve(entries.size());
  for (uint32_t i = 0; i < entries.size(); ++i) {
    if (node_rect.Contains(entries[i].start) &&
        node_rect.Contains(entries[i].end)) {
      indexed.push_back(i);
    } else {
      outliers_.push_back(Outlier{i, entries[i].mbr});
    }
  }

  std::vector<Point> starts;
  std::vector<Point> ends;
  starts.reserve(indexed.size());
  ends.reserve(indexed.size());
  for (const uint32_t i : indexed) {
    starts.push_back(entries[i].start);
    ends.push_back(entries[i].end);
  }
  start_tree_ = std::make_unique<CellTree>(node_rect, starts, beta);
  end_tree_ = std::make_unique<CellTree>(node_rect, ends, beta);

  refs_.resize(indexed.size());
  for (uint32_t pos = 0; pos < indexed.size(); ++pos) {
    const uint32_t i = indexed[pos];
    EntryRef& r = refs_[pos];
    r.start_key = start_tree_->Locate(entries[i].start).RangeBegin();
    r.end_key = end_tree_->Locate(entries[i].end).RangeBegin();
    r.start_tie = MortonKey(node_rect, entries[i].start);
    r.end_tie = MortonKey(node_rect, entries[i].end);
    r.entry_index = i;
  }
  std::sort(refs_.begin(), refs_.end(),
            [](const EntryRef& a, const EntryRef& b) {
              if (a.start_key != b.start_key) return a.start_key < b.start_key;
              if (a.end_key != b.end_key) return a.end_key < b.end_key;
              if (a.start_tie != b.start_tie) return a.start_tie < b.start_tie;
              if (a.end_tie != b.end_tie) return a.end_tie < b.end_tie;
              return a.entry_index < b.entry_index;
            });

  // Only MBR pruning reads the entry and bucket unit MBRs.
  const bool mbr = prune_mode_ == ZPruneMode::kMbr;
  if (mbr) {
    entry_mbrs_.resize(refs_.size());
    for (size_t i = 0; i < refs_.size(); ++i) {
      entry_mbrs_[i] = entries[refs_[i].entry_index].mbr;
    }
  }

  // Chunk the sorted list into z-nodes of ≤ β entries.
  for (uint32_t begin = 0; begin < refs_.size();
       begin += static_cast<uint32_t>(beta)) {
    const uint32_t end = std::min<uint32_t>(
        begin + static_cast<uint32_t>(beta),
        static_cast<uint32_t>(refs_.size()));
    Bucket b;
    b.begin = begin;
    b.end = end;
    b.min_start_key = refs_[begin].start_key;
    b.max_start_key = refs_[end - 1].start_key;
    for (uint32_t i = begin; i < end; ++i) {
      const TrajEntry& e = entries[refs_[i].entry_index];
      b.start_mbr.Include(e.start);
      b.end_mbr.Include(e.end);
      if (mbr) b.units_mbr = b.units_mbr.UnionWith(e.mbr);
    }
    buckets_.push_back(b);
  }
}

void ZIndex::ForEachCandidate(const Corridor& corridor,
                              const std::function<void(uint32_t)>& fn,
                              ReduceStats* stats) const {
  if (stats != nullptr) stats->buckets_total += buckets_.size();
  // Outliers (entries beyond the node's z-addressable rectangle) are always
  // scanned, whatever the z filter decides below.
  for (const Outlier& o : outliers_) {
    if (stats != nullptr) stats->entries_scanned++;
    if (o.mbr.Intersects(corridor.embr)) {
      if (stats != nullptr) stats->candidates++;
      fn(o.entry_index);
    }
  }
  if (refs_.empty()) return;
  // Every entry of the list passes the z filter.
  const auto scan_all = [&] {
    if (stats != nullptr) {
      stats->buckets_visited += buckets_.size();
      stats->entries_scanned += refs_.size();
      stats->candidates += refs_.size();
    }
    for (const EntryRef& r : refs_) fn(r.entry_index);
  };
  // Lists of a couple of buckets gain nothing from filtering: the cover
  // walks cost more than just exact-checking every entry.
  if (refs_.size() <= 2 * beta_) {
    scan_all();
    return;
  }
  const Rect& embr = corridor.embr;

  if (prune_mode_ == ZPruneMode::kMbr) {
    // Interior points may be served: only MBR pruning is sound. Buckets are
    // pruned against the corridor (any stop disk touching the union MBR),
    // entries against the cheap EMBR rectangle.
    for (const Bucket& b : buckets_) {
      if (!b.units_mbr.Intersects(embr)) continue;
      if (!corridor.Reaches(b.units_mbr)) continue;
      if (stats != nullptr) stats->buckets_visited++;
      for (uint32_t i = b.begin; i < b.end; ++i) {
        if (stats != nullptr) stats->entries_scanned++;
        if (entry_mbrs_[i].Intersects(embr)) {
          if (stats != nullptr) stats->candidates++;
          fn(refs_[i].entry_index);
        }
      }
    }
    return;
  }

  const bool require_both = prune_mode_ == ZPruneMode::kStartEnd;
  // Cheap pre-estimate: if the stops' serving squares alone would blanket
  // this node, filtering cannot pay — scan directly and skip the cover walk.
  {
    const Rect& world = start_tree_->world();
    const double node_area =
        std::max(world.Width() * world.Height(), 1e-9);
    const double stop_area = static_cast<double>(corridor.stops.size()) *
                             (2.0 * corridor.psi) * (2.0 * corridor.psi);
    if (!require_both && stop_area > 0.8 * node_area) {
      scan_all();
      return;
    }
  }

  // z-cell filters (the paper's two-step zReduce), covered against the stop
  // corridor rather than the bounding rectangle.
  size_t start_leaves = 0;
  size_t end_leaves = 0;
  static thread_local ZKeyRanges start_ranges;
  static thread_local ZKeyRanges end_ranges;
  start_tree_->CoverRangesNearStopsInto(corridor.stops, corridor.psi,
                                        &start_ranges, &start_leaves);
  end_tree_->CoverRangesNearStopsInto(corridor.stops, corridor.psi,
                                      &end_ranges, &end_leaves);
  if (require_both && (start_ranges.empty() || end_ranges.empty())) return;
  if (start_ranges.empty() && end_ranges.empty()) return;

  // Adaptive fallback: when the corridor blankets the node, the filter lets
  // nearly everything through and the per-entry range probes are pure
  // overhead — degrade gracefully to the plain scan (identical output; the
  // exact check downstream decides service either way).
  {
    const double s_sel = static_cast<double>(start_leaves) /
                         static_cast<double>(start_tree_->num_leaves());
    const double e_sel = static_cast<double>(end_leaves) /
                         static_cast<double>(end_tree_->num_leaves());
    const double selectivity =
        require_both ? std::min(s_sel, e_sel) : s_sel + e_sel - s_sel * e_sel;
    if (selectivity > 0.6) {
      scan_all();
      return;
    }
  }

  // Walk buckets and covered start ranges in tandem (both sorted by key).
  size_t ri = 0;
  for (const Bucket& b : buckets_) {
    while (ri < start_ranges.size() &&
           start_ranges[ri].second <= b.min_start_key) {
      ++ri;
    }
    const bool start_overlap = ri < start_ranges.size() &&
                               start_ranges[ri].first <= b.max_start_key &&
                               b.start_mbr.Intersects(embr);
    if (require_both) {
      if (!start_overlap) continue;
    } else {
      // Union filter: the bucket may still hold served *end* points.
      if (!start_overlap && !b.end_mbr.Intersects(embr)) continue;
    }
    if (stats != nullptr) stats->buckets_visited++;
    for (uint32_t i = b.begin; i < b.end; ++i) {
      if (stats != nullptr) stats->entries_scanned++;
      const EntryRef& r = refs_[i];
      const bool s_in = RangesContain(start_ranges, r.start_key);
      const bool e_in = RangesContain(end_ranges, r.end_key);
      if (require_both ? (s_in && e_in) : (s_in || e_in)) {
        if (stats != nullptr) stats->candidates++;
        fn(r.entry_index);
      }
    }
  }
}

}  // namespace tq
