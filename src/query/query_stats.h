// Instrumentation counters shared by all query algorithms (used by the
// ablation benches and by tests asserting that pruning actually prunes).
#ifndef TQCOVER_QUERY_QUERY_STATS_H_
#define TQCOVER_QUERY_QUERY_STATS_H_

#include <cstddef>

#include "tqtree/zindex.h"

namespace tq {

/// Counters accumulated over one query. All fields are additive.
struct QueryStats {
  size_t nodes_visited = 0;      // q-nodes touched by the recursion
  size_t lists_evaluated = 0;    // node lists inspected
  size_t entries_scanned = 0;    // entries touched in node lists
  size_t exact_checks = 0;       // users (whole trees) or entries
                                 // (segmented) given the exact check
  size_t points_probed = 0;      // user points passed to the serve
                                 // predicate by SO and served-set
                                 // collection
  size_t bounds_computed = 0;    // facility bounds swept (0 when a top-k
                                 // reads or patches memoised bounds)
  size_t bounds_patched = 0;     // writes replayed into a bound memo (0
                                 // when a top-k reads it as it is)
  size_t heap_pops = 0;          // best-first top-k pops
  size_t relax_rounds = 0;       // exact refinements of best-first top-k
  ZIndex::ReduceStats zreduce;

  void Add(const QueryStats& o) {
    nodes_visited += o.nodes_visited;
    lists_evaluated += o.lists_evaluated;
    entries_scanned += o.entries_scanned;
    exact_checks += o.exact_checks;
    points_probed += o.points_probed;
    bounds_computed += o.bounds_computed;
    bounds_patched += o.bounds_patched;
    heap_pops += o.heap_pops;
    relax_rounds += o.relax_rounds;
    zreduce.buckets_total += o.zreduce.buckets_total;
    zreduce.buckets_visited += o.zreduce.buckets_visited;
    zreduce.entries_scanned += o.zreduce.entries_scanned;
    zreduce.candidates += o.zreduce.candidates;
  }
};

}  // namespace tq

#endif  // TQCOVER_QUERY_QUERY_STATS_H_
