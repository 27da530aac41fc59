#include "query/topk.h"

#include <algorithm>
#include <queue>
#include <span>
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

  // The bound pass walks each facility's candidate set anyway; with tables
  // it keeps the ids (facility f's are ids[begin[f], begin[f + 1])), so a
  // refinement sums over them instead of marking the mask again.
  const bool listed = tree->cells().has_tables();
  static thread_local std::vector<uint32_t> ids;
  static thread_local std::vector<size_t> begin;
  ids.clear();
  begin.assign(num_fac + 1, 0);
  std::vector<HeapItem> items;
  items.reserve(num_fac);
  for (uint32_t f = 0; f < num_fac; ++f) {
    items.push_back(HeapItem{
        tree->cells().CellUpperBound(catalog.grid(f), listed ? &ids : nullptr),
        f, false});
    begin[f + 1] = ids.size();
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
        listed ? EvaluateServiceOver(
                     std::span(ids).subspan(begin[top.id],
                                            begin[top.id + 1] - begin[top.id]),
                     eval, grid, &result.stats)
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
