#include "service/evaluator.h"

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
      if (model_.normalization == Normalization::kPerUser) {
        return static_cast<double>(served) / static_cast<double>(pts.size());
      }
      return static_cast<double>(served);
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
  const auto pts = users_->points(user);
  ServeDetail d;
  d.mask = DynamicBitset(MaskSize(user));
  if (d.mask.size() == 0) return d;
  if (model_.scenario == Scenario::kLength) {
    // Point mask into scratch, then segment bit i-1 = point i-1 & point i —
    // wordwise m & (m >> 1), with the next word supplying the carried bit.
    auto& mask = PointMaskScratch();
    const size_t pt_words = (pts.size() + 63) / 64;
    if (mask.size() < pt_words) mask.resize(pt_words);
    grid.ServesBatch(pts, mask.data());
    uint64_t* out = d.mask.WordData();
    const size_t seg_words = d.mask.NumWords();
    for (size_t w = 0; w < seg_words; ++w) {
      const uint64_t lo = mask[w];
      const uint64_t hi = (w + 1 < pt_words) ? mask[w + 1] : 0;
      // Point-mask tail bits are zero, so segment bits >= n-1 come out zero
      // and the bitset's tail invariant holds.
      out[w] = lo & ((lo >> 1) | (hi << 63));
    }
  } else if (model_.scenario == Scenario::kEndpoints) {
    if (grid.Serves(pts.front())) d.mask.Set(0);
    if (grid.Serves(pts.back())) d.mask.Set(pts.size() - 1);
  } else {
    grid.ServesBatch(pts, d.mask.WordData());
  }
  return d;
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
  const auto pts = users_->points(user);
  switch (model_.scenario) {
    case Scenario::kEndpoints:
      return (mask.Test(0) && mask.Test(pts.size() - 1)) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      const auto served = static_cast<double>(mask.Count());
      if (model_.normalization == Normalization::kPerUser) {
        return served / static_cast<double>(pts.size());
      }
      return served;
    }
    case Scenario::kLength: {
      double served_len = 0.0;
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (mask.Test(i)) served_len += Distance(pts[i], pts[i + 1]);
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
