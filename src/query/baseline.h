// The paper's baseline (BL, §VI): user trajectory points are indexed in a
// traditional point quadtree; per facility, candidate users are gathered by
// ψ-disk range queries around every stop, then scored exactly.
#ifndef TQCOVER_QUERY_BASELINE_H_
#define TQCOVER_QUERY_BASELINE_H_

#include "quadtree/point_quadtree.h"
#include "query/query_stats.h"
#include "query/served_gather.h"
#include "query/topk.h"
#include "rtree/point_rtree.h"
#include "service/evaluator.h"
#include "service/facility_index.h"

namespace tq {

/// SO(U, f) the paper's baseline way: ONE range query over the facility's
/// EMBR retrieves every user point in the serving area's bounding box, then
/// each touched user is scored exactly. For long routes the EMBR covers a
/// large fraction of the city — this is precisely why the paper's BL is
/// orders of magnitude slower than the TQ-tree.
double EvaluateServiceBaseline(const PointQuadtree& index,
                               const ServiceEvaluator& eval,
                               const StopGrid& grid,
                               QueryStats* stats = nullptr);

/// A stronger baseline than the paper's: per-stop ψ-disk queries instead of
/// one EMBR rectangle, so the gathered candidate set is near-minimal. Used
/// by the ablation bench to show how much of BL's deficit is the coarse
/// range predicate vs the index itself.
double EvaluateServiceBaselineDisks(const PointQuadtree& index,
                                    const ServiceEvaluator& eval,
                                    const StopGrid& grid,
                                    QueryStats* stats = nullptr);

/// kMaxRRST the baseline way: evaluate every facility, sort, take k. Runtime
/// is intentionally independent of k (the paper's Fig. 7(b) flat line).
TopKResult TopKFacilitiesBaseline(const PointQuadtree& index,
                                  const FacilityCatalog& catalog,
                                  const ServiceEvaluator& eval, size_t k);

/// Served-user detail masks, baseline way (for MaxkCovRST's G-BL), into
/// `out` (reset first).
void CollectServedBaseline(const PointQuadtree& index,
                           const ServiceEvaluator& eval, const StopGrid& grid,
                           ServedGather* out);

/// The same baseline on the R-tree substrate (the index family used by the
/// trajectory-search related work, §VII). Answers are identical to the
/// quadtree baseline; only the traversal differs.
double EvaluateServiceBaselineRTree(const PointRTree& index,
                                    const ServiceEvaluator& eval,
                                    const StopGrid& grid,
                                    QueryStats* stats = nullptr);

/// kMaxRRST over the R-tree baseline.
TopKResult TopKFacilitiesBaselineRTree(const PointRTree& index,
                                       const FacilityCatalog& catalog,
                                       const ServiceEvaluator& eval,
                                       size_t k);

}  // namespace tq

#endif  // TQCOVER_QUERY_BASELINE_H_
