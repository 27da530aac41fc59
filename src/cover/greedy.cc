#include "cover/greedy.h"

#include <algorithm>

#include "common/check.h"
#include "query/topk.h"

namespace tq {

size_t DefaultPoolSize(size_t k, size_t num_facilities) {
  return std::min(num_facilities, std::max(4 * k, 2 * k + 8));
}

namespace {

// Exact greedy over `sets` from the empty state `state`.
CoverResult GreedyOverSets(const std::vector<FacilityServedSet>& sets,
                           size_t k, CoverageState* state) {
  CoverResult result;
  result.pool_size = sets.size();
  std::vector<bool> used(sets.size(), false);
  const size_t rounds = std::min(k, sets.size());
  for (size_t round = 0; round < rounds; ++round) {
    double best_gain = -1.0;
    size_t best_idx = sets.size();
    for (size_t i = 0; i < sets.size(); ++i) {
      if (used[i]) continue;
      const double gain = state->MarginalGain(sets[i]);
      // Ties by facility id keep results deterministic.
      if (gain > best_gain ||
          (gain == best_gain && best_idx < sets.size() &&
           sets[i].id < sets[best_idx].id)) {
        best_gain = gain;
        best_idx = i;
      }
    }
    TQ_CHECK(best_idx < sets.size());
    used[best_idx] = true;
    state->Add(sets[best_idx]);
    result.chosen.push_back(sets[best_idx].id);
  }
  result.total = state->total();
  result.users_served = state->users_served();
  return result;
}

// Drops from every set the users whose union over all of `sets` scores 0.
// Value is monotone in the mask, so such a user scores 0 under every subset
// of the sets: it adds an exact 0 to every gain and total, and is never
// served. `state` is left empty.
void DropUsersThePoolCannotServe(std::vector<FacilityServedSet>* sets,
                                 CoverageState* state) {
  for (const FacilityServedSet& fs : *sets) state->Add(fs);
  for (FacilityServedSet& fs : *sets) {
    size_t kept = 0;
    uint32_t word = 0;
    for (size_t i = 0; i < fs.size(); ++i) {
      if (!(state->ValueOf(fs.users[i]) > 0.0)) continue;
      const std::span<const uint64_t> mask = fs.mask(i);
      // Compaction in place: the kept prefix never overtakes the reads.
      std::copy(mask.begin(), mask.end(), fs.words.begin() + word);
      word += static_cast<uint32_t>(mask.size());
      fs.users[kept] = fs.users[i];
      fs.offsets[++kept] = word;
    }
    fs.users.resize(kept);
    fs.offsets.resize(kept + 1);
    fs.words.resize(word);
  }
  state->Clear();
}

}  // namespace

CoverResult GreedyCover(const std::vector<FacilityServedSet>& sets, size_t k,
                        const ServiceEvaluator& eval) {
  CoverageState state(&eval);
  return GreedyOverSets(sets, k, &state);
}

CoverResult GreedyCoverBaseline(const PointQuadtree& index,
                                const FacilityCatalog& catalog,
                                const ServiceEvaluator& eval, size_t k) {
  std::vector<FacilityServedSet> sets;
  sets.reserve(catalog.size());
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    sets.push_back(CollectServedSetBaseline(index, catalog, eval, f));
  }
  return GreedyCover(sets, k, eval);
}

CoverResult GreedyCoverTQ(TQTree* tree, const FacilityCatalog& catalog,
                          const ServiceEvaluator& eval, size_t k,
                          size_t pool_size) {
  if (k == 0) return CoverResult{};
  if (pool_size == 0) pool_size = DefaultPoolSize(k, catalog.size());
  pool_size = std::min(pool_size, catalog.size());
  // Step 1: pool the k′ highest-serving facilities with kMaxRRST (Alg. 3).
  const TopKResult pool = TopKFacilitiesTQ(tree, catalog, eval, pool_size);
  // Step 2: exact greedy inside the pool. Under Scenario 1 on a kStartEnd
  // tree a user scores only with its source near some pooled stop and its
  // destination near some (maybe other) pooled stop: one candidate mask
  // over every pooled stop narrows each facility's either-endpoint
  // collection to those users.
  std::vector<uint64_t> pool_mask;
  const uint64_t* pool_candidates = nullptr;
  if (AnyEndpointCollection(*tree, eval)) {
    std::vector<Point> stops;
    for (const RankedFacility& rf : pool.ranked) {
      const std::span<const Point> s = catalog.grid(rf.id).stops();
      stops.insert(stops.end(), s.begin(), s.end());
    }
    if (tree->cells().MarkCandidates(stops, catalog.psi(), &pool_mask)) {
      pool_candidates = pool_mask.data();
    }
  }
  std::vector<FacilityServedSet> sets;
  sets.reserve(pool.ranked.size());
  for (const RankedFacility& rf : pool.ranked) {
    sets.push_back(
        CollectServedSetTQ(tree, catalog, eval, rf.id, pool_candidates));
  }
  CoverageState state(&eval);
  DropUsersThePoolCannotServe(&sets, &state);
  return GreedyOverSets(sets, k, &state);
}

}  // namespace tq
