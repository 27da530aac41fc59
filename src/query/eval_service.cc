#include "query/eval_service.h"

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

const uint64_t* CandidateMask(const TQTree& tree, const StopGrid& grid,
                              bool any_endpoint) {
  static thread_local std::vector<uint64_t> mask;
  return tree.MarkCandidates(grid.stops(), grid.psi(), &mask, any_endpoint)
             ? mask.data()
             : nullptr;
}

namespace {

// Applies `fn` to every entry of node `idx`'s list that survives pruning
// against the facility component's serving corridor. This is the zReduce
// step for TQ(Z) trees (which tests the point-cell filter `candidates`, see
// CandidateMask, before its z-range probes) and the plain linear scan for
// TQ(B), followed by the same filter. `zmode_override`
// weakens kStartEnd filtering for served-set collection (see
// ZIndex::ForEachCandidate).
template <typename Fn>
void VisitCandidates(TQTree* tree, int32_t idx,
                     const ZIndex::Corridor& corridor,
                     const uint64_t* candidates, Fn&& fn, QueryStats* stats,
                     std::optional<ZPruneMode> zmode_override = std::nullopt) {
  const TQNode& node = tree->node(idx);
  if (node.entries.empty()) return;
  if (stats != nullptr) stats->lists_evaluated++;
  const Rect& comp_embr = corridor.embr;
  const ZIndex* zi = tree->zindex(idx);
  if (zi != nullptr) {
    ZIndex::ReduceStats rs;
    zi->ForEachCandidate(
        corridor, candidates,
        [&](uint32_t entry_index) {
          if (stats != nullptr) stats->exact_checks++;
          fn(node.entries[entry_index]);
        },
        stats != nullptr ? &rs : nullptr, zmode_override);
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
  const bool precheck = tree->options().basic_entry_mbr_precheck;
  for (const TrajEntry& e : node.entries) {
    if (stats != nullptr) stats->entries_scanned++;
    if (precheck && !e.mbr.Intersects(comp_embr)) continue;
    if (!IsCandidate(candidates, e.traj_id)) continue;
    if (stats != nullptr) stats->exact_checks++;
    fn(e);
  }
}

// Exact per-entry service fold shared by value evaluation and served-set
// collection. `on_whole(traj)` handles a whole-trajectory unit; the
// mark callbacks handle segment units.
struct EntrySink {
  const ServiceEvaluator* eval;
  const StopGrid* grid;
  ServiceAccumulator* acc;  // segmented mode only
  double value = 0.0;

  void operator()(const TrajEntry& e) {
    if (e.IsWhole()) {
      if (acc == nullptr) {
        value += eval->Evaluate(e.traj_id, *grid);
      } else if (eval->model().scenario != Scenario::kLength &&
                 grid->Serves(e.start)) {
        // Segmented trees store single-point trajectories as whole units;
        // their value must flow through the accumulator like everything
        // else in the segmented pipeline.
        acc->MarkPoint(e.traj_id, 0);
      }
      return;
    }
    // Segment unit: credit each served constituent once via the accumulator.
    if (eval->model().scenario == Scenario::kLength) {
      if (grid->Serves(e.start) && grid->Serves(e.end)) {
        acc->MarkSegment(e.traj_id, e.seg_index);
      }
    } else {
      if (grid->Serves(e.start)) acc->MarkPoint(e.traj_id, e.seg_index);
      if (grid->Serves(e.end)) acc->MarkPoint(e.traj_id, e.seg_index + 1);
    }
  }
};

// Algorithm 2 (evaluateNodeTrajectories): service contribution of node
// `idx`'s own list UL for the facility component `comp`. Whole-trajectory
// trees return the summed S(u, f) directly (each user is stored exactly
// once). Segmented trees mark served points/segments into `acc`
// (deduplication across nodes) and return 0.
double EvaluateNodeList(TQTree* tree, int32_t idx,
                        const ServiceEvaluator& eval, const StopGrid& grid,
                        const Component& comp, const uint64_t* candidates,
                        ServiceAccumulator* acc, QueryStats* stats) {
  if (comp.empty() || tree->node(idx).entries.empty()) return 0.0;
  TQ_DCHECK(tree->options().mode == TrajMode::kWhole || acc != nullptr);
  // Scratch reused across calls; safe because the recursion only builds the
  // corridor after returning from child subtrees.
  static thread_local std::vector<Point> comp_stops;
  comp_stops.clear();
  for (const uint32_t si : comp) comp_stops.push_back(grid.stops()[si]);
  const ZIndex::Corridor corridor{
      comp_stops, grid.psi(),
      Rect::BoundingBox(comp_stops).Expanded(grid.psi())};
  EntrySink sink{&eval, &grid, acc, 0.0};
  VisitCandidates(tree, idx, corridor, candidates, std::ref(sink), stats);
  return sink.value;
}

double EvaluateServiceRec(TQTree* tree, int32_t idx,
                          const ServiceEvaluator& eval, const StopGrid& grid,
                          const Component& comp, const uint64_t* candidates,
                          ServiceAccumulator* acc, QueryStats* stats) {
  if (comp.empty()) return 0.0;  // Alg. 1 line 1.2
  if (stats != nullptr) stats->nodes_visited++;
  double so = 0.0;
  const TQNode& node = tree->node(idx);
  if (!node.IsLeaf()) {
    for (int q = 0; q < 4; ++q) {
      const int32_t child = node.first_child + q;
      if (tree->node(child).sub <= 0.0) continue;  // empty subtree
      const Component child_comp =
          ClipComponent(grid, comp, tree->node(child).rect);
      so += EvaluateServiceRec(tree, child, eval, grid, child_comp,
                               candidates, acc, stats);
    }
  }
  so += EvaluateNodeList(tree, idx, eval, grid, comp, candidates, acc, stats);
  return so;
}

}  // namespace

double EvaluateServiceTQ(TQTree* tree, const ServiceEvaluator& eval,
                         const StopGrid& grid, QueryStats* stats) {
  const Component full = FullComponent(grid);
  const uint64_t* candidates = CandidateMask(*tree, grid);
  if (tree->options().mode == TrajMode::kSegmented) {
    // Arena accumulator reused across queries on this thread: Rebind clears
    // marks but keeps the table/word allocations warm.
    static thread_local ServiceAccumulator acc(&eval);
    acc.Rebind(&eval);
    EvaluateServiceRec(tree, tree->root(), eval, grid, full, candidates, &acc,
                       stats);
    return acc.Total();
  }
  return EvaluateServiceRec(tree, tree->root(), eval, grid, full, candidates,
                            nullptr, stats);
}

bool AnyEndpointCollection(const TQTree& tree, const ServiceEvaluator& eval) {
  return tree.prune_mode() == ZPruneMode::kStartEnd &&
         eval.model().scenario == Scenario::kEndpoints;
}

namespace {

// Served-set gathering visitor: unions each candidate's ServeDetail.
void CollectServedRec(TQTree* tree, int32_t idx, const ServiceEvaluator& eval,
                      const StopGrid& grid, const Component& comp,
                      const uint64_t* candidates, ServedGather* out,
                      QueryStats* stats) {
  if (comp.empty()) return;
  if (stats != nullptr) stats->nodes_visited++;
  const TQNode& node = tree->node(idx);
  if (!node.IsLeaf()) {
    for (int q = 0; q < 4; ++q) {
      const int32_t child = node.first_child + q;
      if (tree->node(child).sub <= 0.0) continue;
      const Component child_comp =
          ClipComponent(grid, comp, tree->node(child).rect);
      CollectServedRec(tree, child, eval, grid, child_comp, candidates, out,
                       stats);
    }
  }
  if (node.entries.empty()) return;
  std::optional<ZPruneMode> zmode_override;
  if (AnyEndpointCollection(*tree, eval)) {
    zmode_override = ZPruneMode::kStartOrEnd;
  }
  static thread_local std::vector<Point> comp_stops;
  comp_stops.clear();
  for (const uint32_t si : comp) comp_stops.push_back(grid.stops()[si]);
  const ZIndex::Corridor corridor{
      comp_stops, grid.psi(),
      Rect::BoundingBox(comp_stops).Expanded(grid.psi())};
  const Scenario scenario = eval.model().scenario;
  VisitCandidates(
      tree, idx, corridor, candidates,
      [&](const TrajEntry& e) {
        const size_t last = eval.users().NumPoints(e.traj_id) - 1;
        if (e.IsWhole()) {
          if (scenario == Scenario::kEndpoints) {
            // A whole unit's start and end are the trajectory's source and
            // destination: the only bits of a Scenario 1 detail.
            if (grid.Serves(e.start)) out->SetBit(e.traj_id, 0);
            if (grid.Serves(e.end)) out->SetBit(e.traj_id, last);
          } else {
            out->AddDetail(e.traj_id, grid);
          }
          return;
        }
        if (scenario == Scenario::kLength) {
          if (grid.Serves(e.start) && grid.Serves(e.end)) {
            out->SetBit(e.traj_id, e.seg_index);
          }
          return;
        }
        // Scenario 1 details hold the source and destination bits only
        // (see ServeDetail).
        const bool endpoints = scenario == Scenario::kEndpoints;
        if ((!endpoints || e.seg_index == 0) && grid.Serves(e.start)) {
          out->SetBit(e.traj_id, e.seg_index);
        }
        if ((!endpoints || e.seg_index + 1 == last) && grid.Serves(e.end)) {
          out->SetBit(e.traj_id, e.seg_index + 1);
        }
      },
      stats, zmode_override);
}

}  // namespace

void CollectServedTQ(TQTree* tree, const ServiceEvaluator& eval,
                     const StopGrid& grid, ServedGather* out,
                     const uint64_t* pool, QueryStats* stats) {
  out->Reset(eval);
  const uint64_t* candidates =
      CandidateMask(*tree, grid, AnyEndpointCollection(*tree, eval));
  if (pool != nullptr && candidates != nullptr) {
    static thread_local std::vector<uint64_t> both;
    both.resize((tree->users().size() + 63) / 64);
    for (size_t w = 0; w < both.size(); ++w) {
      both[w] = candidates[w] & pool[w];
    }
    candidates = both.data();
  } else if (pool != nullptr) {
    candidates = pool;
  }
  const Component full = FullComponent(grid);
  CollectServedRec(tree, tree->root(), eval, grid, full, candidates, out,
                   stats);
}

}  // namespace tq
