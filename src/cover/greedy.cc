#include "cover/greedy.h"

#include <algorithm>
#include <bit>

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

// Step 2 under Scenario 1 where AnyEndpointCollection holds. A user
// scores 1 exactly when some chosen facility serves its source and some
// (maybe other) chosen facility its destination (Lemma 1), and 0
// otherwise, so a group's SO is popcount(S ∧ D) over its served-source
// bitmap S and served-destination bitmap D. Every gain is then an exact
// integer, and the argmax and ties are GreedyOverSets'. Only users whose
// source and destination cells are both near some pooled stop can score;
// bitmap rows index them by rank among those users (prefix popcounts), so
// they scale with the pool, not with |U|.
CoverResult EndpointGreedy(const TQTree& tree, const FacilityCatalog& catalog,
                           const std::vector<RankedFacility>& pool, size_t k,
                           QueryStats* stats) {
  std::vector<Point> stops;
  for (const RankedFacility& rf : pool) {
    const std::span<const Point> s = catalog.grid(rf.id).stops();
    stops.insert(stops.end(), s.begin(), s.end());
  }
  static thread_local std::vector<uint64_t> pooled;
  const bool filtered =
      tree.cells().MarkCandidates(stops, catalog.psi(), &pooled);
  TQ_CHECK(filtered);  // AnyEndpointCollection: kStartEnd tables
  static thread_local std::vector<uint32_t> rank_base;
  rank_base.resize(pooled.size());
  uint32_t num_pooled = 0;
  for (size_t w = 0; w < pooled.size(); ++w) {
    rank_base[w] = num_pooled;
    num_pooled += std::popcount(pooled[w]);
  }
  const auto set_ranked_bit = [&](uint32_t id, uint64_t* row) {
    const uint64_t below = (uint64_t{1} << (id & 63)) - 1;
    const uint32_t r =
        rank_base[id >> 6] + std::popcount(pooled[id >> 6] & below);
    row[r >> 6] |= uint64_t{1} << (r & 63);
  };
  // Pooled facility i's served sources are row 2i, its served
  // destinations row 2i + 1; S and D, the chosen group's, are rows 2|pool|
  // and 2|pool| + 1.
  const size_t words = (num_pooled + 63) / 64;
  static thread_local std::vector<uint64_t> rows;
  rows.assign((2 * pool.size() + 2) * words, 0);
  static thread_local std::vector<uint32_t> sources;
  static thread_local std::vector<uint32_t> destinations;
  for (size_t i = 0; i < pool.size(); ++i) {
    CollectServedEndpoints(tree, catalog.grid(pool[i].id), pooled.data(),
                           &sources, &destinations, stats);
    uint64_t* row = rows.data() + 2 * i * words;
    for (const uint32_t id : sources) set_ranked_bit(id, row);
    for (const uint32_t id : destinations) set_ranked_bit(id, row + words);
  }
  uint64_t* const chosen_s = rows.data() + 2 * pool.size() * words;
  uint64_t* const chosen_d = chosen_s + words;
  CoverResult result;
  result.pool_size = pool.size();
  std::vector<bool> used(pool.size(), false);
  size_t best_count = 0;
  const size_t rounds = std::min(k, pool.size());
  for (size_t round = 0; round < rounds; ++round) {
    // A gain is count − popcount(S ∧ D), the same for every candidate of
    // a round, so the largest count wins; ties by facility id, as in
    // GreedyOverSets.
    size_t best = pool.size();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (used[i]) continue;
      const uint64_t* s = rows.data() + 2 * i * words;
      const uint64_t* d = s + words;
      size_t count = 0;
      for (size_t w = 0; w < words; ++w) {
        count += std::popcount((chosen_s[w] | s[w]) & (chosen_d[w] | d[w]));
      }
      if (best == pool.size() || count > best_count ||
          (count == best_count && pool[i].id < pool[best].id)) {
        best_count = count;
        best = i;
      }
    }
    used[best] = true;
    const uint64_t* s = rows.data() + 2 * best * words;
    const uint64_t* d = s + words;
    for (size_t w = 0; w < words; ++w) {
      chosen_s[w] |= s[w];
      chosen_d[w] |= d[w];
    }
    result.chosen.push_back(pool[best].id);
  }
  // After the last round, best_count is popcount(S ∧ D).
  result.total = static_cast<double>(best_count);
  result.users_served = best_count;
  return result;
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
  // Step 2: exact greedy inside the pool.
  QueryStats collection;
  CoverResult result;
  if (AnyEndpointCollection(*tree, eval)) {
    result = EndpointGreedy(*tree, catalog, pool.ranked, k, &collection);
  } else {
    std::vector<FacilityServedSet> sets;
    sets.reserve(pool.ranked.size());
    for (const RankedFacility& rf : pool.ranked) {
      sets.push_back(
          CollectServedSetTQ(tree, catalog, eval, rf.id, &collection));
    }
    CoverageState state(&eval);
    // Under the point count every gathered mask has a bit set, so every
    // user scores above 0 and the drop would keep them all.
    if (eval.model().scenario != Scenario::kPointCount) {
      DropUsersThePoolCannotServe(&sets, &state);
    }
    result = GreedyOverSets(sets, k, &state);
  }
  result.stats = pool.stats;
  result.stats.exact_checks += collection.exact_checks;
  result.stats.points_probed += collection.points_probed;
  return result;
}

}  // namespace tq
