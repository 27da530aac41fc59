#include "query/served_gather.h"

#include <algorithm>

#include "common/check.h"

namespace tq {

void ServedGather::Reset(const ServiceEvaluator& eval) {
  for (const uint32_t user : users_) slot_[user] = kNoSlot;
  users_.clear();
  words_.clear();
  eval_ = &eval;
  if (slot_.size() < eval.users().size()) {
    slot_.resize(eval.users().size(), kNoSlot);
  }
}

uint64_t* ServedGather::Mask(uint32_t user) {
  TQ_DCHECK(user < slot_.size());
  uint32_t& slot = slot_[user];
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + eval_->MaskWords(user), 0);
    users_.push_back(user);
  }
  return words_.data() + slot;
}

void ServedGather::AddDetail(uint32_t user, const StopGrid& grid) {
  const size_t n = eval_->MaskWords(user);
  if (detail_.size() < n) detail_.resize(n);
  const std::span<uint64_t> detail(detail_.data(), n);
  eval_->EvaluateDetail(user, grid, detail);
  uint64_t any = 0;
  for (const uint64_t w : detail) any |= w;
  if (any == 0) return;
  uint64_t* mask = Mask(user);
  for (size_t w = 0; w < n; ++w) mask[w] |= detail[w];
}

void ServedGather::SetBit(uint32_t user, size_t bit) {
  Mask(user)[bit >> 6] |= uint64_t{1} << (bit & 63);
}

double ServedGather::SumAscending() {
  std::sort(users_.begin(), users_.end());
  double so = 0.0;
  for (const uint32_t user : users_) {
    so += eval_->ValueOfMask(user, MaskOf(user));
  }
  return so;
}

std::span<const uint64_t> ServedGather::MaskOf(uint32_t user) const {
  TQ_DCHECK(user < slot_.size() && slot_[user] != kNoSlot);
  return {words_.data() + slot_[user], eval_->MaskWords(user)};
}

}  // namespace tq
