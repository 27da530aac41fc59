#include "query/eval_service.h"

#include <bit>
#include <numeric>

#include "common/check.h"
#include "geom/distance.h"

namespace tq {

Component FullComponent(const StopGrid& grid) {
  Component comp(grid.stops().size());
  std::iota(comp.begin(), comp.end(), 0u);
  return comp;
}

Component ClipComponent(const StopGrid& grid, const Component& comp,
                        const Rect& rect) {
  Component out;
  const auto stops = grid.stops();
  const double psi = grid.psi();
  for (const uint32_t si : comp) {
    if (DiskIntersectsRect(stops[si], psi, rect)) out.push_back(si);
  }
  return out;
}

Rect ComponentEmbr(const StopGrid& grid, const Component& comp) {
  Rect mbr = Rect::Empty();
  const auto stops = grid.stops();
  for (const uint32_t si : comp) mbr.Include(stops[si]);
  return mbr.Expanded(grid.psi());
}

std::vector<Point> ComponentStops(const StopGrid& grid,
                                  const Component& comp) {
  std::vector<Point> out;
  out.reserve(comp.size());
  const auto stops = grid.stops();
  for (const uint32_t si : comp) out.push_back(stops[si]);
  return out;
}

bool AnyEndpointCollection(const TQTree& tree, const ServiceEvaluator& eval) {
  return tree.prune_mode() == ZPruneMode::kStartEnd &&
         eval.model().scenario == Scenario::kEndpoints;
}

double EvaluateServiceOver(std::span<const uint32_t> ids,
                           const ServiceEvaluator& eval, const StopGrid& grid,
                           QueryStats* stats) {
  double so = 0.0;
  for (const uint32_t id : ids) so += eval.Evaluate(id, grid);
  if (stats != nullptr) stats->exact_checks += ids.size();
  return so;
}

namespace {

// Calls `fn(id)` for every set bit of the first `words` words of `mask`
// (ANDed with `pool` when non-null), in ascending id order.
template <typename Fn>
void ForEachSetBit(const uint64_t* mask, const uint64_t* pool, size_t words,
                   Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    if (pool != nullptr) bits &= pool[w];
    for (; bits != 0; bits &= bits - 1) {
      fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

// Applies `fn` to every entry of node `idx`'s list that survives pruning
// against the facility component's serving corridor: the zReduce step for
// segmented TQ(Z) trees, the plain linear scan for the rest.
template <typename Fn>
void VisitCandidates(TQTree* tree, int32_t idx,
                     const ZIndex::Corridor& corridor, Fn& fn,
                     QueryStats* stats) {
  const TQNode& node = tree->node(idx);
  if (stats != nullptr) stats->lists_evaluated++;
  const ZIndex* zi = tree->zindex(idx);
  if (zi != nullptr) {
    ZIndex::ReduceStats rs;
    zi->ForEachCandidate(
        corridor,
        [&](uint32_t entry_index) { fn(node.entries[entry_index]); },
        stats != nullptr ? &rs : nullptr);
    if (stats != nullptr) {
      stats->zreduce.buckets_total += rs.buckets_total;
      stats->zreduce.buckets_visited += rs.buckets_visited;
      stats->zreduce.entries_scanned += rs.entries_scanned;
      stats->zreduce.candidates += rs.candidates;
      stats->entries_scanned += rs.entries_scanned;
    }
    return;
  }
  // TQ(B): flat list scan (the paper's "linear list" variant).
  if (stats != nullptr) stats->entries_scanned += node.entries.size();
  for (const TrajEntry& e : node.entries) fn(e);
}

// Algorithms 1-2 (evaluateService / evaluateNodeTrajectories): divides the
// facility component `comp` over the subtree at `idx`, dropping the stops
// that cannot reach a child, and applies `fn` to every list entry that
// survives q-node pruning and zReduce.
template <typename Fn>
void WalkRec(TQTree* tree, int32_t idx, const StopGrid& grid,
             const Component& comp, Fn& fn, QueryStats* stats) {
  if (comp.empty()) return;  // Alg. 1 line 1.2
  if (stats != nullptr) stats->nodes_visited++;
  const TQNode& node = tree->node(idx);
  if (!node.IsLeaf()) {
    for (int q = 0; q < 4; ++q) {
      const int32_t child = node.first_child + q;
      if (tree->node(child).sub <= 0.0) continue;  // empty subtree
      const Component child_comp =
          ClipComponent(grid, comp, tree->node(child).rect);
      WalkRec(tree, child, grid, child_comp, fn, stats);
    }
  }
  if (node.entries.empty()) return;
  // Scratch reused across calls; safe because the corridor is built only
  // after the child subtrees return.
  static thread_local std::vector<Point> comp_stops;
  comp_stops.clear();
  for (const uint32_t si : comp) comp_stops.push_back(grid.stops()[si]);
  const ZIndex::Corridor corridor{
      comp_stops, grid.psi(),
      Rect::BoundingBox(comp_stops).Expanded(grid.psi())};
  VisitCandidates(tree, idx, corridor, fn, stats);
}

template <typename Fn>
void Walk(TQTree* tree, const StopGrid& grid, Fn&& fn, QueryStats* stats) {
  WalkRec(tree, tree->root(), grid, FullComponent(grid), fn, stats);
}

// The candidate bitmap of whole trajectories (CellIndex::MarkCandidates, in
// its `any_endpoint` form if asked). Thread-local, valid until the next
// call on this thread.
const uint64_t* WholeCandidates(const CellIndex& cells, const StopGrid& grid,
                                bool any_endpoint) {
  static thread_local std::vector<uint64_t> mask;
  const bool filtered =
      cells.MarkCandidates(grid.stops(), grid.psi(), &mask, any_endpoint);
  TQ_CHECK(filtered);  // a whole tree and a serving shard have tables
  return mask.data();
}

}  // namespace

double EvaluateServiceCells(const CellIndex& cells,
                            const ServiceEvaluator& eval, const StopGrid& grid,
                            QueryStats* stats) {
  const uint64_t* mask = WholeCandidates(cells, grid, /*any_endpoint=*/false);
  double so = 0.0;
  ForEachSetBit(mask, nullptr, (cells.users().size() + 63) / 64,
                [&](uint32_t id) {
                  if (stats != nullptr) stats->exact_checks++;
                  so += eval.Evaluate(id, grid);
                });
  return so;
}

double EvaluateServiceTQ(TQTree* tree, const ServiceEvaluator& eval,
                         const StopGrid& grid, QueryStats* stats) {
  if (tree->options().mode == TrajMode::kWhole) {
    return EvaluateServiceCells(tree->cells(), eval, grid, stats);
  }
  // Segmented: the walk gathers each served point or segment once into a
  // gather reused across queries on this thread, and the masks are summed
  // in ascending id like every other SO.
  static thread_local ServedGather gather;
  CollectServedTQ(tree, eval, grid, &gather, nullptr, stats);
  return gather.SumAscending();
}

void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid, ServedGather* out,
                     const uint64_t* pool, QueryStats* stats) {
  out->Reset(eval);
  const Scenario scenario = eval.model().scenario;
  const TrajectorySet& users = tree->users();
  // A whole trajectory's detail. Scenario 1 details hold the source and
  // destination bits only (see ServeDetail).
  const auto gather_whole = [&](uint32_t id) {
    if (stats != nullptr) stats->exact_checks++;
    if (scenario == Scenario::kEndpoints) {
      const std::span<const Point> pts = users.points(id);
      if (grid.Serves(pts.front())) out->SetBit(id, 0);
      if (grid.Serves(pts.back())) out->SetBit(id, pts.size() - 1);
    } else {
      out->AddDetail(id, grid);
    }
  };
  if (tree->options().mode == TrajMode::kWhole) {
    const uint64_t* mask = WholeCandidates(
        tree->cells(), grid, AnyEndpointCollection(*tree, eval));
    ForEachSetBit(mask, pool, (users.size() + 63) / 64, gather_whole);
    return;
  }
  const auto pooled = [pool](uint32_t id) {
    return pool == nullptr || ((pool[id >> 6] >> (id & 63)) & 1) != 0;
  };
  Walk(
      tree, grid,
      [&](const TrajEntry& e) {
        if (!pooled(e.traj_id)) return;
        // Segmented trees store single-point trajectories as whole units.
        if (e.IsWhole()) return gather_whole(e.traj_id);
        if (stats != nullptr) stats->exact_checks++;
        if (scenario == Scenario::kLength) {
          if (grid.Serves(e.start) && grid.Serves(e.end)) {
            out->SetBit(e.traj_id, e.seg_index);
          }
          return;
        }
        const size_t last = users.NumPoints(e.traj_id) - 1;
        const bool endpoints = scenario == Scenario::kEndpoints;
        if ((!endpoints || e.seg_index == 0) && grid.Serves(e.start)) {
          out->SetBit(e.traj_id, e.seg_index);
        }
        if ((!endpoints || e.seg_index + 1 == last) && grid.Serves(e.end)) {
          out->SetBit(e.traj_id, e.seg_index + 1);
        }
      },
      stats);
}

}  // namespace tq
