#include "service/evaluator.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.h"

namespace tq {
namespace {

// Per-thread scratch for one trajectory's served-point mask. Sized lazily,
// never shrunk — ServesBatch fills ceil(n/64) words per call.
std::vector<uint64_t>& PointMaskScratch() {
  thread_local std::vector<uint64_t> scratch;
  return scratch;
}

}  // namespace

ServiceEvaluator::ServiceEvaluator(const TrajectorySet* users,
                                   ServiceModel model)
    : users_(users), model_(model) {
  TQ_CHECK(users != nullptr);
}

bool ServiceEvaluator::EndpointsServed(uint32_t user,
                                       const StopGrid& grid) const {
  const auto pts = users_->points(user);
  return grid.Serves(pts.front()) && grid.Serves(pts.back());
}

double ServiceEvaluator::ValueOfCount(uint32_t user, size_t served) const {
  if (model_.normalization == Normalization::kPerUser) {
    return static_cast<double>(served) /
           static_cast<double>(users_->NumPoints(user));
  }
  return static_cast<double>(served);
}

double ServiceEvaluator::Evaluate(uint32_t user, const StopGrid& grid) const {
  const auto pts = users_->points(user);
  switch (model_.scenario) {
    case Scenario::kEndpoints:
      // Two probes only — batching a whole trajectory would do strictly more
      // work than this fast path.
      return EndpointsServed(user, grid) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      auto& mask = PointMaskScratch();
      const size_t words = (pts.size() + 63) / 64;
      if (mask.size() < words) mask.resize(words);
      grid.ServesBatch(pts, mask.data());
      size_t served = 0;
      for (size_t w = 0; w < words; ++w) served += std::popcount(mask[w]);
      return ValueOfCount(user, served);
    }
    case Scenario::kLength: {
      if (pts.size() < 2) return 0.0;
      auto& mask = PointMaskScratch();
      const size_t words = (pts.size() + 63) / 64;
      if (mask.size() < words) mask.resize(words);
      grid.ServesBatch(pts, mask.data());
      // Same ascending segment walk and accumulation order as the scalar
      // reference; only the serve predicate came from the batch kernel.
      double served_len = 0.0;
      bool prev_served = (mask[0] & 1) != 0;
      for (size_t i = 1; i < pts.size(); ++i) {
        const bool cur_served = (mask[i >> 6] >> (i & 63)) & 1;
        if (prev_served && cur_served) {
          served_len += Distance(pts[i - 1], pts[i]);
        }
        prev_served = cur_served;
      }
      if (model_.normalization == Normalization::kPerUser) {
        const double total = users_->length(user);
        return total > 0.0 ? served_len / total : 0.0;
      }
      return served_len;
    }
  }
  return 0.0;
}

double ServiceEvaluator::EvaluateScalar(uint32_t user,
                                        const StopGrid& grid) const {
  const auto pts = users_->points(user);
  switch (model_.scenario) {
    case Scenario::kEndpoints:
      return (grid.ServesScalar(pts.front()) && grid.ServesScalar(pts.back()))
                 ? 1.0
                 : 0.0;
    case Scenario::kPointCount: {
      size_t served = 0;
      for (const Point& p : pts) {
        if (grid.ServesScalar(p)) ++served;
      }
      if (model_.normalization == Normalization::kPerUser) {
        return static_cast<double>(served) / static_cast<double>(pts.size());
      }
      return static_cast<double>(served);
    }
    case Scenario::kLength: {
      if (pts.size() < 2) return 0.0;
      double served_len = 0.0;
      bool prev_served = grid.ServesScalar(pts[0]);
      for (size_t i = 1; i < pts.size(); ++i) {
        const bool cur_served = grid.ServesScalar(pts[i]);
        if (prev_served && cur_served) {
          served_len += Distance(pts[i - 1], pts[i]);
        }
        prev_served = cur_served;
      }
      if (model_.normalization == Normalization::kPerUser) {
        const double total = users_->length(user);
        return total > 0.0 ? served_len / total : 0.0;
      }
      return served_len;
    }
  }
  return 0.0;
}

size_t ServiceEvaluator::MaskSize(uint32_t user) const {
  const size_t n = users_->NumPoints(user);
  if (model_.scenario == Scenario::kLength) return n > 0 ? n - 1 : 0;
  return n;
}

ServeDetail ServiceEvaluator::EvaluateDetail(uint32_t user,
                                             const StopGrid& grid) const {
  ServeDetail d;
  d.mask = DynamicBitset(MaskSize(user));
  EvaluateDetail(user, grid, {d.mask.WordData(), d.mask.NumWords()});
  return d;
}

void ServiceEvaluator::EvaluateDetail(uint32_t user, const StopGrid& grid,
                                      std::span<uint64_t> out) const {
  TQ_DCHECK(out.size() == MaskWords(user));
  if (out.empty()) return;
  const auto pts = users_->points(user);
  if (model_.scenario == Scenario::kLength) {
    // Point mask into scratch, then segment bit i-1 = point i-1 & point i —
    // wordwise m & (m >> 1), with the next word supplying the carried bit.
    auto& mask = PointMaskScratch();
    const size_t pt_words = (pts.size() + 63) / 64;
    if (mask.size() < pt_words) mask.resize(pt_words);
    grid.ServesBatch(pts, mask.data());
    for (size_t w = 0; w < out.size(); ++w) {
      const uint64_t lo = mask[w];
      const uint64_t hi = (w + 1 < pt_words) ? mask[w + 1] : 0;
      // Point-mask tail bits are zero, so segment bits >= n-1 come out zero
      // and the bitset's tail invariant holds.
      out[w] = lo & ((lo >> 1) | (hi << 63));
    }
  } else if (model_.scenario == Scenario::kEndpoints) {
    std::fill(out.begin(), out.end(), 0);
    const size_t last = pts.size() - 1;
    if (grid.Serves(pts.front())) out[0] |= 1;
    if (grid.Serves(pts.back())) out[last >> 6] |= uint64_t{1} << (last & 63);
  } else {
    grid.ServesBatch(pts, out.data());
  }
}

ServeDetail ServiceEvaluator::EvaluateDetailScalar(uint32_t user,
                                                   const StopGrid& grid) const {
  const auto pts = users_->points(user);
  ServeDetail d;
  d.mask = DynamicBitset(MaskSize(user));
  if (model_.scenario == Scenario::kLength) {
    bool prev_served = !pts.empty() && grid.ServesScalar(pts[0]);
    for (size_t i = 1; i < pts.size(); ++i) {
      const bool cur_served = grid.ServesScalar(pts[i]);
      if (prev_served && cur_served) d.mask.Set(i - 1);
      prev_served = cur_served;
    }
  } else if (model_.scenario == Scenario::kEndpoints) {
    if (pts.empty()) return d;
    if (grid.ServesScalar(pts.front())) d.mask.Set(0);
    if (grid.ServesScalar(pts.back())) d.mask.Set(pts.size() - 1);
  } else {
    for (size_t i = 0; i < pts.size(); ++i) {
      if (grid.ServesScalar(pts[i])) d.mask.Set(i);
    }
  }
  return d;
}

double ServiceEvaluator::ValueOfMask(uint32_t user,
                                     const DynamicBitset& mask) const {
  return ValueOfMask(user, {mask.WordData(), mask.NumWords()});
}

double ServiceEvaluator::ValueOfMask(uint32_t user,
                                     std::span<const uint64_t> mask) const {
  TQ_DCHECK(mask.size() == MaskWords(user));
  const size_t n = users_->NumPoints(user);
  if (mask.empty()) return 0.0;
  switch (model_.scenario) {
    case Scenario::kEndpoints: {
      const size_t last = n - 1;
      return ((mask[0] & 1) != 0 && ((mask[last >> 6] >> (last & 63)) & 1))
                 ? 1.0
                 : 0.0;
    }
    case Scenario::kPointCount: {
      size_t count = 0;
      for (const uint64_t w : mask) count += std::popcount(w);
      return ValueOfCount(user, count);
    }
    case Scenario::kLength: {
      // Set bits in ascending order: the same additions, in the same order,
      // as a walk over every segment that skips the unserved ones.
      const auto pts = users_->points(user);
      double served_len = 0.0;
      for (size_t w = 0; w < mask.size(); ++w) {
        for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const size_t i = w * 64 + std::countr_zero(bits);
          served_len += Distance(pts[i], pts[i + 1]);
        }
      }
      if (model_.normalization == Normalization::kPerUser) {
        const double total = users_->length(user);
        return total > 0.0 ? served_len / total : 0.0;
      }
      return served_len;
    }
  }
  return 0.0;
}

}  // namespace tq
