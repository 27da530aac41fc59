// Per-facility served-user sets: the currency of the MaxkCovRST algorithms.
//
// A FacilityServedSet records, for one facility, every user it touches and
// the exact points/segments it serves (ServeDetail masks). Combined service
// of a facility group is then pure set algebra — the AGG union of §II-B —
// with no further geometry.
#ifndef TQCOVER_COVER_SERVED_SETS_H_
#define TQCOVER_COVER_SERVED_SETS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quadtree/point_quadtree.h"
#include "query/eval_service.h"
#include "service/facility_index.h"

namespace tq {

/// Everything facility `id` serves, with its standalone SO(U, id), in
/// compressed-row form: one word vector for all the masks.
struct FacilityServedSet {
  FacilityId id = 0;
  double so = 0.0;
  /// Served users, ascending. User `users[i]`'s mask is
  /// words[offsets[i], offsets[i + 1]) in the ServiceEvaluator layout for
  /// the model in use, with at least one bit set.
  std::vector<uint32_t> users;
  std::vector<uint32_t> offsets{0};
  std::vector<uint64_t> words;

  size_t size() const { return users.size(); }
  std::span<const uint64_t> mask(size_t i) const {
    return {words.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  /// Appends `user`, which must exceed every user so far, with `mask`.
  void Append(uint32_t user, std::span<const uint64_t> mask);
};

/// Served set via the TQ-tree traversal (Algorithm 1's pruning), with
/// CollectServedTQ's counters added to `stats`.
FacilityServedSet CollectServedSetTQ(TQTree* tree,
                                     const FacilityCatalog& catalog,
                                     const ServiceEvaluator& eval,
                                     FacilityId id,
                                     QueryStats* stats = nullptr);

/// Served set via baseline range queries (for G-BL).
FacilityServedSet CollectServedSetBaseline(const PointQuadtree& index,
                                           const FacilityCatalog& catalog,
                                           const ServiceEvaluator& eval,
                                           FacilityId id);

/// Lazy, memoised served-set source backed by the TQ-tree. The genetic
/// algorithm only ever needs the facilities its population mentions, so
/// collection is deferred until first use.
class ServedSetCache {
 public:
  ServedSetCache(TQTree* tree, const FacilityCatalog* catalog,
                 const ServiceEvaluator* eval);

  const FacilityServedSet& Get(FacilityId id);
  size_t collected() const { return collected_; }

 private:
  TQTree* tree_;
  const FacilityCatalog* catalog_;
  const ServiceEvaluator* eval_;
  std::vector<std::optional<FacilityServedSet>> cache_;
  size_t collected_ = 0;
};

}  // namespace tq

#endif  // TQCOVER_COVER_SERVED_SETS_H_
