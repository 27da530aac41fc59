#include "query/topk.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

namespace tq {

namespace {

// A facility's heap key: its cell bound until refined, then its exact value.
struct HeapItem {
  double key = 0.0;
  FacilityId id = 0;
  bool exact = false;
};
// Max-heap by key; equal keys pop by ascending id whether bound or exact, so
// an exact value pops only once no tied bound of a smaller id can still
// refine to the same value.
struct HeapLess {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.key != b.key) return a.key < b.key;
    return a.id > b.id;
  }
};

}  // namespace

TopKResult TopKFacilitiesTQ(TQTree* tree, const FacilityCatalog& catalog,
                            const ServiceEvaluator& eval, size_t k) {
  TopKResult result;
  const size_t num_fac = catalog.size();
  k = std::min(k, num_fac);
  if (k == 0) return result;

  // The index's bounds for this catalog, swept on the first top-k since its
  // last write. With listed candidates (facility f's are
  // bounds.candidates(f)) a refinement sums over them instead of marking
  // the mask again; point-count facilities refine on the cell table's served
  // points instead (EvaluateServiceCells), which probes fewer points than
  // the candidates hold.
  const std::shared_ptr<const FacilityBounds> memo =
      tree->cells().Bounds(catalog, &result.stats.bounds_computed,
                           &result.stats.bounds_patched);
  const FacilityBounds& bounds = *memo;
  std::vector<HeapItem> items;
  items.reserve(num_fac);
  for (uint32_t f = 0; f < num_fac; ++f) {
    items.push_back(HeapItem{bounds.bound[f], f, false});
  }
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapLess> pq(
      HeapLess{}, std::move(items));
  while (result.ranked.size() < k) {
    const HeapItem top = pq.top();
    pq.pop();
    result.stats.heap_pops++;
    if (top.exact) {
      result.ranked.push_back(RankedFacility{top.id, top.key});
      continue;
    }
    result.stats.relax_rounds++;
    const StopGrid& grid = catalog.grid(top.id);
    const double value =
        bounds.listed()
            ? EvaluateServiceOver(bounds.candidates(top.id), eval, grid,
                                  &result.stats)
            : EvaluateServiceTQ(tree, eval, grid, &result.stats);
    pq.push(HeapItem{value, top.id, true});
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
