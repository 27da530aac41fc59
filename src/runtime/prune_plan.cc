#include "runtime/prune_plan.h"

#include <algorithm>

namespace tq::runtime {

std::vector<uint32_t> PlanWindow(std::span<const size_t> participants,
                                 const FacilityMatrix& bounds,
                                 FacilityMatrix* exact, KnownMatrix* known,
                                 size_t k, size_t num_facilities) {
  // valued[f] = (f, B(f)). Participant-outer loops walk each row
  // contiguously; every per-facility sum still accumulates in ascending
  // participant order.
  std::vector<RankedFacility> valued(num_facilities);
  std::vector<uint8_t> open(num_facilities, 0);  // some slot unsettled
  for (size_t f = 0; f < num_facilities; ++f) {
    valued[f].id = static_cast<FacilityId>(f);
  }
  for (const size_t p : participants) {
    const std::vector<double>& ub = bounds[p];
    std::vector<double>& ex = (*exact)[p];
    std::vector<uint8_t>& kn = (*known)[p];
    for (size_t f = 0; f < num_facilities; ++f) {
      if (!kn[f] && ub[f] <= 0.0) {
        ex[f] = 0.0;
        kn[f] = 1;
      }
      if (kn[f]) {
        valued[f].value += ex[f];
      } else {
        valued[f].value += ub[f];
        open[f] = 1;
      }
    }
  }
  k = std::min(k, num_facilities);
  if (k == 0) return {};
  // The window: the first k by (B desc, id asc), Rank's own total order.
  std::nth_element(valued.begin(),
                   valued.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   valued.end(), RankedBefore);
  std::vector<uint32_t> window;
  for (size_t i = 0; i < k; ++i) {
    if (open[valued[i].id]) window.push_back(valued[i].id);
  }
  std::sort(window.begin(), window.end());
  return window;
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
    const KnownMatrix& known, size_t num_facilities) {
  std::vector<double> sum(num_facilities, 0.0);
  std::vector<uint8_t> complete(num_facilities, 1);
  for (const size_t p : participants) {
    for (size_t f = 0; f < num_facilities; ++f) {
      if (!known[p][f]) complete[f] = 0;
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
