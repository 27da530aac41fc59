// Combined-coverage bookkeeping for MaxkCovRST (§II-B's AGG and §V).
//
// Per Lemma 1's construction, a user's source may be served by one facility
// of the chosen group and its destination by another — service composes by
// unioning served-point masks, NOT by taking the max over facilities. That
// union semantics is exactly why the objective is non-submodular, and why
// this state tracks masks rather than booleans.
//
// The state is dense over user ids: each user has a value and a slot, the
// offset of its union mask in one word arena. MarginalGain allocates
// nothing, and Clear() resets only the users the added facilities touched,
// so one state serves many evaluations.
#ifndef TQCOVER_COVER_COVERAGE_STATE_H_
#define TQCOVER_COVER_COVERAGE_STATE_H_

#include <cstdint>
#include <vector>

#include "cover/served_sets.h"
#include "service/evaluator.h"

namespace tq {

/// Mutable union of served sets with an incrementally maintained objective.
class CoverageState {
 public:
  explicit CoverageState(const ServiceEvaluator* eval);

  /// Current SO(U, F′) for the facilities added so far.
  double total() const { return total_; }

  /// Number of users with a strictly positive service value (the paper's
  /// "# Users Served" metric of Fig. 10(b)/(d) under Scenario 1).
  size_t users_served() const { return users_served_; }

  /// SO(U, F′ ∪ {fs.id}) − SO(U, F′), without mutating the state.
  double MarginalGain(const FacilityServedSet& fs) const;

  /// Adds a facility's served set to the union.
  void Add(const FacilityServedSet& fs);

  /// Service value of `user`'s union mask (0 for a user not yet touched).
  double ValueOf(uint32_t user) const { return value_[user]; }

  /// Forgets every facility added, resetting only the users they touched.
  void Clear();

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  const ServiceEvaluator* eval_;
  std::vector<uint32_t> slot_;     // per user id: word offset, or kNoSlot
  std::vector<double> value_;      // per user id: value of its union mask
  std::vector<uint32_t> touched_;  // users with a slot
  std::vector<uint64_t> words_;    // union masks, concatenated
  double total_ = 0.0;
  size_t users_served_ = 0;
};

}  // namespace tq

#endif  // TQCOVER_COVER_COVERAGE_STATE_H_
