// Per-facility served-mask gather, shared by CollectServedTQ and
// CollectServedBaseline. It also backs SO on segmented trees: the walk
// gathers each served point or segment once, and SumAscending() folds the
// masks in ascending user id, the order every other index sums in.
//
// A gather is a slot table over dense user ids plus one word arena: a
// user's first mark appends its zeroed mask words to the arena and records
// their offset in its slot, every later mark ORs in place. Reset() clears
// only the slots the previous gather touched, so a long-lived (thread-local)
// gather does no per-user or per-facility allocation once warm.
#ifndef TQCOVER_QUERY_SERVED_GATHER_H_
#define TQCOVER_QUERY_SERVED_GATHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "service/evaluator.h"
#include "service/stop_grid.h"

namespace tq {

/// Served-point/segment masks of the users one facility serves, in the
/// ServiceEvaluator layout. Every gathered mask has at least one bit set.
class ServedGather {
 public:
  /// Forgets the previous gather and binds `eval`, whose users' ids index
  /// the slot table.
  void Reset(const ServiceEvaluator& eval);

  /// Unions EvaluateDetail(user, grid) into `user`'s mask. A user the grid
  /// serves no point of gets no mask.
  void AddDetail(uint32_t user, const StopGrid& grid);

  /// Sets bit `bit` of `user`'s mask.
  void SetBit(uint32_t user, size_t bit);

  /// Users with a mask: in first-touch order, ascending after
  /// SumAscending().
  const std::vector<uint32_t>& users() const { return users_; }

  /// Sorts users() ascending and returns Σ ServiceEvaluator::ValueOfMask
  /// over them in that order: SO(U, f) with the bits BL and whole trees
  /// give.
  double SumAscending();

  /// The mask of a user in users().
  std::span<const uint64_t> MaskOf(uint32_t user) const;

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  /// `user`'s mask words, appended zeroed on first touch. Valid until the
  /// next call that may append.
  uint64_t* Mask(uint32_t user);

  const ServiceEvaluator* eval_ = nullptr;
  std::vector<uint32_t> slot_;     // per user id: word offset, or kNoSlot
  std::vector<uint32_t> users_;    // users with a slot
  std::vector<uint64_t> words_;    // the masks, concatenated
  std::vector<uint64_t> detail_;   // AddDetail scratch
};

}  // namespace tq

#endif  // TQCOVER_QUERY_SERVED_GATHER_H_
