// Z-order bucket index over one q-node's trajectory list (§III, "Ordered
// bucketing using z-curve", and the zReduce pruning of Algorithm 2).
//
// Construction mirrors the paper:
//   (i)   the node's space is adaptively partitioned over the *start* points
//         until each cell holds ≤ β starts (CellTree);
//   (ii)  the same is done over the *end* points;
//   (iii) every entry gets a (start z-id, end z-id) pair plus full-depth
//         Morton keys as tie-breaks — the paper's "partitioned until the end
//         point of each such trajectory is assigned a different z-id" — and
//         the sorted list is chunked into z-nodes (buckets) of ≤ β entries,
//         each carrying MBRs.
//
// zReduce covers the facility component's EMBR with start cells and end
// cells; an entry survives only if its start z-id lies in a covered start
// cell AND its end z-id lies in a covered end cell (Example 4). For models
// that can serve interior points of multipoint trajectories the
// start/end-based filter is unsound, so the index falls back to bucket/entry
// MBR pruning (the z-ordering still provides the locality clustering).
#ifndef TQCOVER_TQTREE_ZINDEX_H_
#define TQCOVER_TQTREE_ZINDEX_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "geom/distance.h"
#include "geom/rect.h"
#include "service/models.h"
#include "tqtree/entry.h"
#include "zorder/cell_tree.h"

namespace tq {

/// How zReduce may prune entries of this index. The paper's two-step filter
/// (Example 4) keeps an entry only when both its start and end z-ids are
/// covered; that is exact precisely when service requires both unit endpoints
/// (binary Scenario 1, and Scenario 3 where a segment needs both ends within
/// ψ). Partial point-count service can serve one endpoint alone, so those
/// trees must use the union filter; interior points of multipoint whole
/// trajectories are invisible to both and fall back to MBR pruning.
enum class ZPruneMode {
  /// start-covered AND end-covered (exact for both-endpoint service).
  kStartEnd,
  /// start-covered OR end-covered (exact for per-point service on
  /// two-endpoint units).
  kStartOrEnd,
  /// Only unit-MBR intersection with the EMBR is sound (multipoint whole
  /// trajectories under interior-point service models).
  kMbr,
};

/// Immutable z-order bucket list for one q-node. Rebuilt (not patched) after
/// node updates; the TQ-tree owns the dirty tracking.
class ZIndex {
 public:
  /// Statistics a query can collect about pruning effectiveness.
  struct ReduceStats {
    size_t buckets_total = 0;
    size_t buckets_visited = 0;
    size_t entries_scanned = 0;
    size_t candidates = 0;
  };

  ZIndex(const Rect& node_rect, std::span<const TrajEntry> entries,
         size_t beta, ZPruneMode prune_mode);

  size_t num_entries() const { return refs_.size() + outliers_.size(); }
  size_t num_buckets() const { return buckets_.size(); }
  size_t num_outliers() const { return outliers_.size(); }
  ZPruneMode prune_mode() const { return prune_mode_; }

  /// The serving footprint of a facility component: its stop points, ψ, and
  /// the stops' ψ-expanded bounding box. zReduce covers z-cells against the
  /// thin stop *corridor* (Example 4: cells "the stop points in G are within
  /// ψ distance" of), not the fat EMBR rectangle — for a long route the
  /// corridor is what makes the pruning bite.
  struct Corridor {
    std::span<const Point> stops;
    double psi = 0.0;
    Rect embr;

    /// True iff some stop's ψ-disk intersects `r` — the reachability
    /// predicate of zReduce's bucket filtering. Tested in squared form
    /// (min_d²(stop, r) ≤ fl(ψ²)) with the 4-wide kernel: correctly
    /// rounded subtract/multiply/add are monotone, so for any point p
    /// inside r served by stop s the clamped rect distances compute
    /// ≤ the serve predicate's — the filter can never drop a rect that
    /// contains a served point.
    bool Reaches(const Rect& r) const;

    /// Scalar reference for Reaches — same squared predicate one stop at
    /// a time. Retained for the agreement suite.
    bool ReachesScalar(const Rect& r) const;
  };

  /// Invokes `fn` for every entry that survives zReduce pruning against the
  /// corridor, in bucket order. Entries are passed by index into the node's
  /// entry list (the order given at construction). `stats` may be null.
  void ForEachCandidate(const Corridor& corridor,
                        const std::function<void(uint32_t)>& fn,
                        ReduceStats* stats = nullptr) const;

 private:
  struct EntryRef {
    uint64_t start_key = 0;   // adaptive start-cell key (range begin)
    uint64_t end_key = 0;     // adaptive end-cell key (range begin)
    uint64_t start_tie = 0;   // full-depth Morton key of the start point
    uint64_t end_tie = 0;     // full-depth Morton key of the end point
    uint32_t entry_index = 0; // position in the node's entry list
  };
  /// A z-node: one bucket of ≤ β consecutive sorted entries.
  struct Bucket {
    uint32_t begin = 0;
    uint32_t end = 0;
    uint64_t min_start_key = 0;
    uint64_t max_start_key = 0;
    Rect start_mbr = Rect::Empty();
    Rect end_mbr = Rect::Empty();
    Rect units_mbr = Rect::Empty();  // union of unit MBRs (kMbr only)
  };

  ZPruneMode prune_mode_;
  size_t beta_;
  std::unique_ptr<CellTree> start_tree_;
  std::unique_ptr<CellTree> end_tree_;
  std::vector<EntryRef> refs_;
  std::vector<Bucket> buckets_;
  std::vector<Rect> entry_mbrs_;  // kMbr only: parallel to refs_
  // Entries with points outside the node rectangle (possible after dynamic
  // inserts beyond the construction-time world): z-cells cannot represent
  // them, so they are always scanned. Empty in the common case.
  struct Outlier {
    uint32_t entry_index = 0;
    Rect mbr;
  };
  std::vector<Outlier> outliers_;
};

}  // namespace tq

#endif  // TQCOVER_TQTREE_ZINDEX_H_
