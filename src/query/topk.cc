#include "query/topk.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "common/check.h"

namespace tq {

namespace {

// One ⟨q-node, facility-component⟩ pair of a state's qflist. `h_share` is
// the pair's contribution to the state's optimistic bound hserve;
// `local_only` marks ancestor pairs whose children must not be expanded
// (their subtrees are already covered by the main pair).
struct PairQF {
  int32_t node = 0;
  Component comp;
  double h_share = 0.0;
  bool local_only = false;
};

// Exploration state of one facility (the paper's S).
struct FacState {
  FacilityId id = 0;
  double aserve = 0.0;
  double hserve = 0.0;
  std::vector<PairQF> qflist;
  std::unique_ptr<ServiceAccumulator> acc;  // segmented trees only

  bool Completed() const { return qflist.empty(); }
  double fserve() const { return aserve + hserve; }
};

// Max-heap keyed by fserve; ties broken by facility id so results are
// deterministic across runs.
struct HeapItem {
  double fserve = 0.0;
  uint32_t state_index = 0;
  FacilityId id = 0;
};
struct HeapLess {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.fserve != b.fserve) return a.fserve < b.fserve;
    return a.id > b.id;  // smaller id pops first on ties
  }
};

// Algorithm 4: expand every pair of `s` one level; returns updated state.
void RelaxState(TQTree* tree, const ServiceEvaluator& eval,
                const StopGrid& grid, FacState* s, QueryStats* stats) {
  if (stats != nullptr) stats->relax_rounds++;
  std::vector<PairQF> next;
  const bool segmented = tree->options().mode == TrajMode::kSegmented;
  // States of different facilities interleave in the heap, so the
  // facility's candidate mask is marked afresh for every relaxation.
  const uint64_t* candidates = CandidateMask(*tree, grid);
  for (PairQF& pair : s->qflist) {
    s->hserve -= pair.h_share;
    const double gained =
        EvaluateNodeList(tree, pair.node, eval, grid, pair.comp, candidates,
                         s->acc.get(), stats);
    if (!segmented) s->aserve += gained;
    const TQNode& node = tree->node(pair.node);
    if (pair.local_only || node.IsLeaf()) continue;
    for (int q = 0; q < 4; ++q) {
      const int32_t child = node.first_child + q;
      const TQNode& cn = tree->node(child);
      if (cn.sub <= 0.0) continue;
      Component child_comp = ClipComponent(grid, pair.comp, cn.rect);
      if (child_comp.empty()) continue;
      next.push_back(PairQF{child, std::move(child_comp), cn.sub, false});
      s->hserve += cn.sub;
    }
  }
  if (segmented) s->aserve = s->acc->Total();
  s->qflist = std::move(next);
}

}  // namespace

TopKResult TopKFacilitiesTQ(TQTree* tree, const FacilityCatalog& catalog,
                            const ServiceEvaluator& eval, size_t k) {
  TopKResult result;
  const size_t num_fac = catalog.size();
  k = std::min(k, num_fac);
  if (k == 0) return result;

  const bool segmented = tree->options().mode == TrajMode::kSegmented;
  // Ancestor inter-node lists can only be skipped when a unit stored at a
  // proper ancestor of ContainingNode(EMBR) provably scores zero. A unit is
  // stored at an ancestor exactly when its MBR is not contained in that
  // node's rect, so its MBR is not contained in the EMBR either. Two
  // conditions must then hold together:
  //   * kStartEnd pruning — only units with BOTH endpoints inside the EMBR
  //     can score at all (no partial credit), and
  //   * two-point units — the unit MBR is the endpoint MBR, so "both
  //     endpoints inside the EMBR" implies "MBR inside the EMBR".
  // Whole multipoint trajectories under the endpoints model satisfy the
  // first but not the second: middle points inflate the stored MBR beyond
  // the served endpoints, parking served units at ancestors.
  const bool include_ancestors =
      !(tree->two_point_units() &&
        tree->prune_mode() == ZPruneMode::kStartEnd);

  std::vector<FacState> states(num_fac);
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapLess> pq;
  for (uint32_t f = 0; f < num_fac; ++f) {
    FacState& s = states[f];
    s.id = f;
    if (segmented) s.acc = std::make_unique<ServiceAccumulator>(&eval);
    const StopGrid& grid = catalog.grid(f);
    const int32_t q0 = tree->ContainingNode(grid.embr());
    const Component full = FullComponent(grid);
    if (include_ancestors) {
      const std::vector<int32_t> path = tree->PathTo(q0);
      for (size_t i = 0; i + 1 < path.size(); ++i) {  // exclude q0 itself
        const TQNode& a = tree->node(path[i]);
        if (a.entries.empty()) continue;
        s.qflist.push_back(PairQF{path[i], full, a.local_ub, true});
        s.hserve += a.local_ub;
      }
    }
    s.qflist.push_back(PairQF{q0, full, tree->node(q0).sub, false});
    s.hserve += tree->node(q0).sub;
    pq.push(HeapItem{s.fserve(), f, s.id});
  }

  while (!pq.empty() && result.ranked.size() < k) {
    const HeapItem top = pq.top();
    pq.pop();
    result.stats.heap_pops++;
    FacState& s = states[top.state_index];
    if (s.Completed()) {
      result.ranked.push_back(RankedFacility{s.id, s.aserve});
      continue;
    }
    RelaxState(tree, eval, catalog.grid(s.id), &s, &result.stats);
    pq.push(HeapItem{s.fserve(), top.state_index, s.id});
  }
  return result;
}

TopKResult TopKFacilitiesExhaustiveTQ(TQTree* tree,
                                      const FacilityCatalog& catalog,
                                      const ServiceEvaluator& eval,
                                      size_t k) {
  TopKResult result;
  const size_t num_fac = catalog.size();
  std::vector<RankedFacility> all(num_fac);
  for (uint32_t f = 0; f < num_fac; ++f) {
    all[f].id = f;
    all[f].value =
        EvaluateServiceTQ(tree, eval, catalog.grid(f), &result.stats);
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  k = std::min(k, all.size());
  all.resize(k);
  result.ranked = std::move(all);
  return result;
}

}  // namespace tq
