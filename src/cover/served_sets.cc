#include "cover/served_sets.h"

#include "common/check.h"
#include "query/baseline.h"

namespace tq {

namespace {

// The gather every served-set collection on this thread fills.
ServedGather& ThreadGather() {
  thread_local ServedGather gather;
  return gather;
}

// Facility `id`'s served set from a gather: users ascending, `so` summed in
// that order.
FacilityServedSet FinalizeServedSet(FacilityId id, ServedGather& gathered) {
  FacilityServedSet fs;
  fs.id = id;
  fs.so = gathered.SumAscending();
  fs.users.reserve(gathered.users().size());
  fs.offsets.reserve(gathered.users().size() + 1);
  for (const uint32_t user : gathered.users()) {
    fs.Append(user, gathered.MaskOf(user));
  }
  return fs;
}

}  // namespace

void FacilityServedSet::Append(uint32_t user, std::span<const uint64_t> mask) {
  TQ_DCHECK(users.empty() || users.back() < user);
  users.push_back(user);
  words.insert(words.end(), mask.begin(), mask.end());
  offsets.push_back(static_cast<uint32_t>(words.size()));
}

FacilityServedSet CollectServedSetTQ(TQTree* tree,
                                     const FacilityCatalog& catalog,
                                     const ServiceEvaluator& eval,
                                     FacilityId id, QueryStats* stats) {
  ServedGather& gather = ThreadGather();
  CollectServedTQ(tree, eval, catalog.grid(id), &gather, stats);
  return FinalizeServedSet(id, gather);
}

FacilityServedSet CollectServedSetBaseline(const PointQuadtree& index,
                                           const FacilityCatalog& catalog,
                                           const ServiceEvaluator& eval,
                                           FacilityId id) {
  ServedGather& gather = ThreadGather();
  CollectServedBaseline(index, eval, catalog.grid(id), &gather);
  return FinalizeServedSet(id, gather);
}

ServedSetCache::ServedSetCache(TQTree* tree, const FacilityCatalog* catalog,
                               const ServiceEvaluator* eval)
    : tree_(tree), catalog_(catalog), eval_(eval) {
  TQ_CHECK(tree != nullptr && catalog != nullptr && eval != nullptr);
  cache_.resize(catalog->size());
}

const FacilityServedSet& ServedSetCache::Get(FacilityId id) {
  TQ_CHECK(id < cache_.size());
  if (!cache_[id].has_value()) {
    cache_[id] = CollectServedSetTQ(tree_, *catalog_, *eval_, id);
    ++collected_;
  }
  return *cache_[id];
}

}  // namespace tq
