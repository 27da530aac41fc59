// Exact service-value evaluation — the single source of truth for S(u,f).
//
// Every query algorithm (BL, TQ(B), TQ(Z)) reduces to "which users do I run
// the exact check on"; the check itself lives here so all methods provably
// agree (a backbone invariant of the test suite).
//
// The hot entry points run on StopGrid::ServesBatch masks: the grid's 4-wide
// kernels decide the per-point serve *predicate*, while every floating-point
// accumulation (length sums, normalizations) stays scalar in the original
// ascending order — so answers are bit-identical to the retained scalar
// references (`EvaluateScalar`/`EvaluateDetailScalar`), which the agreement
// suite (tests/test_simd_kernels.cc) checks in-binary.
#ifndef TQCOVER_SERVICE_EVALUATOR_H_
#define TQCOVER_SERVICE_EVALUATOR_H_

#include <cstdint>
#include <span>

#include "common/dynamic_bitset.h"
#include "service/models.h"
#include "service/stop_grid.h"
#include "traj/dataset.h"

namespace tq {

/// Which parts of a user trajectory a facility (or facility set) serves.
/// For Scenario 1/2 the mask is over points; for Scenario 3 over segments.
/// Scenario 1 service depends on the source and the destination alone, so
/// only their bits (0 and |u| - 1) are ever set: Any() means "some endpoint
/// served", the partial service Lemma 1 keeps.
struct ServeDetail {
  DynamicBitset mask;

  bool Any() const { return !mask.None(); }
};

/// Stateless evaluator bound to a user set and a service model.
class ServiceEvaluator {
 public:
  ServiceEvaluator(const TrajectorySet* users, ServiceModel model);

  const ServiceModel& model() const { return model_; }
  const TrajectorySet& users() const { return *users_; }

  /// S(u, f) per §II-A, where f is represented by its StopGrid.
  double Evaluate(uint32_t user, const StopGrid& grid) const;

  /// Scenario 2's S(u, f) of `user` with `served` of its points served:
  /// the value Evaluate computes from the same count.
  double ValueOfCount(uint32_t user, size_t served) const;

  /// Scalar reference for Evaluate: the original per-point loop over
  /// StopGrid::ServesScalar. Retained in every build for the agreement suite.
  double EvaluateScalar(uint32_t user, const StopGrid& grid) const;

  /// Scenario-1 fast path: are both endpoints of `user` within ψ of a stop?
  bool EndpointsServed(uint32_t user, const StopGrid& grid) const;

  /// Served-point/segment mask of `user` under `grid` (for coverage algebra).
  ServeDetail EvaluateDetail(uint32_t user, const StopGrid& grid) const;

  /// EvaluateDetail into caller storage: overwrites the MaskWords(user)
  /// words of `out`, bits at and past MaskSize(user) zero. The ServeDetail
  /// overload wraps this.
  void EvaluateDetail(uint32_t user, const StopGrid& grid,
                      std::span<uint64_t> out) const;

  /// Scalar reference for EvaluateDetail (per-point ServesScalar probes).
  ServeDetail EvaluateDetailScalar(uint32_t user, const StopGrid& grid) const;

  /// Service value of `user` given a (possibly multi-facility) union mask —
  /// the AGG aggregation of §II-B. The mask must have the layout produced by
  /// EvaluateDetail for this model.
  double ValueOfMask(uint32_t user, const DynamicBitset& mask) const;

  /// ValueOfMask over the MaskWords(user) raw words of a mask — the one
  /// implementation, which the DynamicBitset overload wraps. Allocation-free.
  double ValueOfMask(uint32_t user, std::span<const uint64_t> mask) const;

  /// Size of the detail mask for `user` under the current model.
  size_t MaskSize(uint32_t user) const;

  /// 64-bit words of the detail mask for `user`: ceil(MaskSize / 64).
  size_t MaskWords(uint32_t user) const { return (MaskSize(user) + 63) / 64; }

 private:
  const TrajectorySet* users_;
  ServiceModel model_;
};

}  // namespace tq

#endif  // TQCOVER_SERVICE_EVALUATOR_H_
