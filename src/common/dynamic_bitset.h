// Compact dynamic bitset holding one user's served-point/segment mask
// (ServeDetail). std::vector<bool> is avoided for its proxy iterator
// pitfalls; raw word access lets the mask feed the evaluator's word-span
// functions. The MaxkCovRST hot path keeps its masks in flat word arenas
// instead (query/served_gather.h, cover/served_sets.h).
#ifndef TQCOVER_COMMON_DYNAMIC_BITSET_H_
#define TQCOVER_COMMON_DYNAMIC_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tq {

/// Fixed-size-after-construction bitset with word-level set algebra.
class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t num_bits);

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits.
  size_t Count() const;

  /// True if no bit is set.
  bool None() const;

  /// True if every bit is set.
  bool All() const;

  /// Number of bits that would become set by UnionWith(other) but are not
  /// currently set: |other \ this|. Sizes must match.
  size_t CountNewFrom(const DynamicBitset& other) const;

  /// Resets all bits to zero.
  void Reset();

  /// Raw word storage: ceil(size()/64) little-endian-bit-order words. Writers
  /// own the invariant that bits at and beyond size() stay zero (Count(),
  /// None() and operator== popcount/compare whole words).
  size_t NumWords() const { return words_.size(); }
  uint64_t* WordData() { return words_.data(); }
  const uint64_t* WordData() const { return words_.data(); }

  bool operator==(const DynamicBitset& other) const = default;

 private:
  static constexpr size_t kBits = 64;
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace tq

#endif  // TQCOVER_COMMON_DYNAMIC_BITSET_H_
