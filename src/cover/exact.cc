#include "cover/exact.h"

#include "common/check.h"

namespace tq {

namespace {

// C(n, k) with saturation.
size_t Choose(size_t n, size_t k, size_t cap) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  size_t c = 1;
  for (size_t i = 1; i <= k; ++i) {
    c = c * (n - k + i) / i;
    if (c > cap) return cap + 1;
  }
  return c;
}

// `state` is empty on entry and on return: one state, cleared between
// combinations, serves the whole enumeration.
void Enumerate(const std::vector<FacilityServedSet>& sets, size_t k,
               size_t first, std::vector<size_t>* current,
               CoverageState* state, ExactCoverResult* best) {
  if (current->size() == k) {
    ++best->combinations_evaluated;
    for (const size_t i : *current) state->Add(sets[i]);
    if (state->total() > best->total) {
      best->total = state->total();
      best->users_served = state->users_served();
      best->chosen.clear();
      for (const size_t i : *current) best->chosen.push_back(sets[i].id);
    }
    state->Clear();
    return;
  }
  const size_t remaining = k - current->size();
  for (size_t i = first; i + remaining <= sets.size(); ++i) {
    current->push_back(i);
    Enumerate(sets, k, i + 1, current, state, best);
    current->pop_back();
  }
}

}  // namespace

ExactCoverResult ExactCover(const std::vector<FacilityServedSet>& sets,
                            size_t k, const ServiceEvaluator& eval,
                            size_t max_combinations) {
  ExactCoverResult best;
  best.total = -1.0;
  const size_t combos = Choose(sets.size(), k, max_combinations);
  TQ_CHECK_MSG(combos <= max_combinations,
               "ExactCover: combination count exceeds the safety cap");
  std::vector<size_t> current;
  CoverageState state(&eval);
  Enumerate(sets, k, 0, &current, &state, &best);
  if (best.total < 0.0) best.total = 0.0;  // k > |sets|: empty answer
  return best;
}

}  // namespace tq
