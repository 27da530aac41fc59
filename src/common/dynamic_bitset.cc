#include "common/dynamic_bitset.h"

#include <bit>

#include "common/check.h"

namespace tq {

DynamicBitset::DynamicBitset(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + kBits - 1) / kBits, 0) {}

void DynamicBitset::Set(size_t i) {
  TQ_DCHECK(i < num_bits_);
  words_[i / kBits] |= (uint64_t{1} << (i % kBits));
}

void DynamicBitset::Clear(size_t i) {
  TQ_DCHECK(i < num_bits_);
  words_[i / kBits] &= ~(uint64_t{1} << (i % kBits));
}

bool DynamicBitset::Test(size_t i) const {
  TQ_DCHECK(i < num_bits_);
  return (words_[i / kBits] >> (i % kBits)) & 1;
}

size_t DynamicBitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

bool DynamicBitset::None() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool DynamicBitset::All() const { return Count() == num_bits_; }

size_t DynamicBitset::CountNewFrom(const DynamicBitset& other) const {
  TQ_CHECK(num_bits_ == other.num_bits_);
  size_t n = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<size_t>(std::popcount(other.words_[i] & ~words_[i]));
  }
  return n;
}

void DynamicBitset::Reset() {
  for (auto& w : words_) w = 0;
}

}  // namespace tq
