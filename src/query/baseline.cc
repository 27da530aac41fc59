#include "query/baseline.h"

#include <algorithm>
#include <unordered_set>

namespace tq {

namespace {

// The paper's gather: one range query over the facility EMBR; every user
// with a point inside becomes a candidate. Templated over the point index
// (quadtree or R-tree) — both expose RangeQuery.
template <typename Index>
std::vector<uint32_t> GatherCandidates(const Index& index,
                                       const StopGrid& grid,
                                       QueryStats* stats) {
  std::unordered_set<uint32_t> seen;
  const std::vector<PointEntry> hits = index.RangeQuery(grid.embr());
  if (stats != nullptr) stats->entries_scanned += hits.size();
  for (const PointEntry& e : hits) seen.insert(e.traj_id);
  std::vector<uint32_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

// Near-minimal gather: ψ-disk probes around every stop.
std::vector<uint32_t> GatherCandidatesDisks(const PointQuadtree& index,
                                            const StopGrid& grid,
                                            QueryStats* stats) {
  std::unordered_set<uint32_t> seen;
  for (const Point& stop : grid.stops()) {
    index.ForEachInDisk(stop, grid.psi(), [&](const PointEntry& e) {
      if (stats != nullptr) stats->entries_scanned++;
      seen.insert(e.traj_id);
    });
  }
  std::vector<uint32_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

double ScoreCandidates(const std::vector<uint32_t>& candidates,
                       const ServiceEvaluator& eval, const StopGrid& grid,
                       QueryStats* stats) {
  double so = 0.0;
  for (const uint32_t user : candidates) {
    if (stats != nullptr) stats->exact_checks++;
    so += eval.Evaluate(user, grid);
  }
  return so;
}

// Exhaustive top-k: SO of every facility (one gather and scoring each),
// ranked by RankedBefore.
template <typename Index>
TopKResult TopKByScoring(const Index& index, const FacilityCatalog& catalog,
                         const ServiceEvaluator& eval, size_t k) {
  TopKResult result;
  std::vector<RankedFacility> all(catalog.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    all[f].id = f;
    all[f].value = ScoreCandidates(GatherCandidates(index, grid, &result.stats),
                                   eval, grid, &result.stats);
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, all.size()));
  result.ranked = std::move(all);
  return result;
}

}  // namespace

double EvaluateServiceBaseline(const PointQuadtree& index,
                               const ServiceEvaluator& eval,
                               const StopGrid& grid, QueryStats* stats) {
  return ScoreCandidates(GatherCandidates(index, grid, stats), eval, grid,
                         stats);
}

double EvaluateServiceBaselineDisks(const PointQuadtree& index,
                                    const ServiceEvaluator& eval,
                                    const StopGrid& grid,
                                    QueryStats* stats) {
  return ScoreCandidates(GatherCandidatesDisks(index, grid, stats), eval,
                         grid, stats);
}

double EvaluateServiceBaselineRTree(const PointRTree& index,
                                    const ServiceEvaluator& eval,
                                    const StopGrid& grid, QueryStats* stats) {
  return ScoreCandidates(GatherCandidates(index, grid, stats), eval, grid,
                         stats);
}

TopKResult TopKFacilitiesBaseline(const PointQuadtree& index,
                                  const FacilityCatalog& catalog,
                                  const ServiceEvaluator& eval, size_t k) {
  return TopKByScoring(index, catalog, eval, k);
}

TopKResult TopKFacilitiesBaselineRTree(const PointRTree& index,
                                       const FacilityCatalog& catalog,
                                       const ServiceEvaluator& eval,
                                       size_t k) {
  return TopKByScoring(index, catalog, eval, k);
}

void CollectServedBaseline(const PointQuadtree& index,
                           const ServiceEvaluator& eval, const StopGrid& grid,
                           ServedGather* out) {
  out->Reset(eval);
  for (const uint32_t user : GatherCandidates(index, grid, nullptr)) {
    out->AddDetail(user, grid);
  }
}

}  // namespace tq
