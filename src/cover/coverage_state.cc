#include "cover/coverage_state.h"

#include "common/check.h"

namespace tq {

CoverageState::CoverageState(const ServiceEvaluator* eval)
    : eval_(eval),
      slot_(eval != nullptr ? eval->users().size() : 0, kNoSlot),
      value_(slot_.size(), 0.0) {
  TQ_CHECK(eval != nullptr);
}

double CoverageState::MarginalGain(const FacilityServedSet& fs) const {
  thread_local std::vector<uint64_t> merged;
  double gain = 0.0;
  for (size_t i = 0; i < fs.size(); ++i) {
    const uint32_t user = fs.users[i];
    const std::span<const uint64_t> mask = fs.mask(i);
    TQ_DCHECK(user < slot_.size());
    if (slot_[user] == kNoSlot) {
      gain += eval_->ValueOfMask(user, mask);
      continue;
    }
    if (merged.size() < mask.size()) merged.resize(mask.size());
    const uint64_t* have = words_.data() + slot_[user];
    uint64_t grown = 0;
    for (size_t w = 0; w < mask.size(); ++w) {
      merged[w] = have[w] | mask[w];
      grown |= mask[w] & ~have[w];
    }
    // An unchanged union scores exactly its current value: a zero term.
    if (grown == 0) continue;
    gain += eval_->ValueOfMask(user, {merged.data(), mask.size()}) -
            value_[user];
  }
  return gain;
}

void CoverageState::Add(const FacilityServedSet& fs) {
  for (size_t i = 0; i < fs.size(); ++i) {
    const uint32_t user = fs.users[i];
    const std::span<const uint64_t> mask = fs.mask(i);
    TQ_DCHECK(user < slot_.size());
    const double before = value_[user];
    if (slot_[user] == kNoSlot) {
      slot_[user] = static_cast<uint32_t>(words_.size());
      words_.insert(words_.end(), mask.begin(), mask.end());
      touched_.push_back(user);
    } else {
      uint64_t* have = words_.data() + slot_[user];
      uint64_t grown = 0;
      for (size_t w = 0; w < mask.size(); ++w) {
        grown |= mask[w] & ~have[w];
        have[w] |= mask[w];
      }
      if (grown == 0) continue;
    }
    const double after = eval_->ValueOfMask(
        user, {words_.data() + slot_[user], mask.size()});
    value_[user] = after;
    total_ += after - before;
    if (before <= 0.0 && after > 0.0) ++users_served_;
  }
}

void CoverageState::Clear() {
  for (const uint32_t user : touched_) {
    slot_[user] = kNoSlot;
    value_[user] = 0.0;
  }
  touched_.clear();
  words_.clear();
  total_ = 0.0;
  users_served_ = 0;
}

}  // namespace tq
