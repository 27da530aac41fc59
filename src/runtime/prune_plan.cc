#include "runtime/prune_plan.h"

#include <algorithm>
#include <functional>

namespace tq::runtime {

bool UsePrunedTopK(bool prune_topk, double prune_skip_ratio, size_t k,
                   size_t num_facilities) {
  return prune_topk &&
         static_cast<double>(std::min(k, num_facilities)) <
             prune_skip_ratio * static_cast<double>(num_facilities);
}

std::vector<uint32_t> PlanCandidates(std::span<const size_t> participants,
                                     const FacilityMatrix& bounds,
                                     FacilityMatrix* exact, KnownMatrix* known,
                                     size_t k, size_t num_facilities) {
  // Participant-outer loops walk each row contiguously; every per-facility
  // sum still accumulates in ascending participant order.
  std::vector<double> upper(num_facilities, 0.0);  // B(f)
  std::vector<double> lower(num_facilities, 0.0);  // L(f)
  std::vector<uint8_t> open(num_facilities, 0);    // some slot unsettled
  for (const size_t p : participants) {
    const std::vector<double>& ub = bounds[p];
    std::vector<double>& ex = (*exact)[p];
    std::vector<uint8_t>& kn = (*known)[p];
    for (size_t f = 0; f < num_facilities; ++f) {
      upper[f] += ub[f];
      if (!kn[f] && ub[f] <= 0.0) {
        ex[f] = 0.0;
        kn[f] = 1;
      }
      if (kn[f]) {
        lower[f] += ex[f];
      } else {
        open[f] = 1;
      }
    }
  }
  k = std::min(k, num_facilities);
  if (k == 0) return {};
  // τ: the k-th largest partial lower bound (`lower` is not needed after).
  std::nth_element(lower.begin(), lower.begin() + (k - 1), lower.end(),
                   std::greater<double>());
  const double tau = lower[k - 1];
  std::vector<uint32_t> candidates;
  for (size_t f = 0; f < num_facilities; ++f) {
    if (open[f] && upper[f] >= tau) {
      candidates.push_back(static_cast<uint32_t>(f));
    }
  }
  return candidates;
}

std::vector<double> SumBounds(std::span<const size_t> participants,
                              const FacilityMatrix& bounds,
                              size_t num_facilities) {
  std::vector<double> sum(num_facilities, 0.0);
  for (const size_t p : participants) {
    for (size_t f = 0; f < num_facilities; ++f) sum[f] += bounds[p][f];
  }
  return sum;
}

std::vector<RankedFacility> CompleteFacilities(
    std::span<const size_t> participants, const FacilityMatrix& exact,
    const KnownMatrix* known, size_t num_facilities) {
  std::vector<double> sum(num_facilities, 0.0);
  std::vector<uint8_t> complete(num_facilities, 1);
  for (const size_t p : participants) {
    for (size_t f = 0; f < num_facilities; ++f) {
      if (known != nullptr && !(*known)[p][f]) complete[f] = 0;
      sum[f] += exact[p][f];
    }
  }
  std::vector<RankedFacility> out;
  out.reserve(num_facilities);
  for (size_t f = 0; f < num_facilities; ++f) {
    if (complete[f]) out.push_back({static_cast<FacilityId>(f), sum[f]});
  }
  return out;
}

std::vector<RankedFacility> Rank(std::vector<RankedFacility> complete,
                                 size_t k) {
  const size_t take = std::min(k, complete.size());
  std::partial_sort(complete.begin(),
                    complete.begin() + static_cast<std::ptrdiff_t>(take),
                    complete.end(), RankedBefore);
  complete.resize(take);
  return complete;
}

}  // namespace tq::runtime
