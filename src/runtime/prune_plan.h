// The bound-and-prune top-k planner: the math of distributed kMaxRRST,
// called only by the Coordinator (coordinator.h), whose participants are
// shards in process and shard-worker processes over the wire.
//
// It is the paper's best-first kMaxRRST (Algorithm 3: expand the facility
// with the largest optimistic value until k facilities are complete) lifted
// to per-participant partial sums. Every slot (p, f) holds either a sound
// upper bound UB_p(f) or, once settled, the exact SO_p(f) ≤ UB_p(f):
//   sweep    every participant reports UB_p(f) for every facility;
//   plan     B(f) = Σ_p (settled ? SO_p(f) : UB_p(f)), summed in ascending
//            participant order. The WINDOW is the first k facilities by
//            (B desc, id asc); the planner returns its unsettled members;
//   refine   participants evaluate those facilities' unsettled slots in one
//            wave, and the caller plans again;
//   answer   once the window is fully settled, Rank(CompleteFacilities(...)).
//
// Why it is exact: a facility g outside a settled window has
// SO(g) ≤ B(g), because every term of B(g) is ≥ its exact counterpart and
// IEEE rounding is monotone, so the ascending-order sums keep the order.
// Every window member w has B(w) = SO(w) — the ascending-order sum of its
// exact per-participant values — and ranks before g on (B desc,
// id asc), hence also on (SO desc, id asc). So the window is the top k, bit
// for bit, even on exact ties. Each wave settles at least one slot, so the
// loop ends after at most |participants| · |F| waves. B only ever falls
// toward SO, so the k-th largest B never drops below the k-th answer value:
// every facility the planner asks for has B(f) ≥ that value when asked.
//
// Zero bounds settle for free: 0 ≤ SO_p(f) ≤ UB_p(f) = 0, so a slot whose own
// bound is 0 is exactly 0 without evaluation. The planner settles them first,
// so no participant is ever asked for a slot it cannot contribute to.
//
// Everything here is pure and single-threaded. The caller owns the
// [participant][facility] matrices; the planner reads them by reference and
// settles slots in place, so the hot path makes no per-query copy. Only the
// listed participants are read: the coordinator drops a failed participant
// by leaving it out of the list.
#ifndef TQCOVER_RUNTIME_PRUNE_PLAN_H_
#define TQCOVER_RUNTIME_PRUNE_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "query/topk.h"

namespace tq::runtime {

/// Per-participant, per-facility values: m[participant][facility].
using FacilityMatrix = std::vector<std::vector<double>>;
/// known[p][f] != 0 iff exact[p][f] holds participant p's exact SO_p(f).
using KnownMatrix = std::vector<std::vector<uint8_t>>;

/// One plan step. Settles every unsettled slot of `participants` whose own
/// bound is 0 ((*exact)[p][f] = 0, (*known)[p][f] = 1), then returns,
/// ascending, the facilities among the first min(k, |F|) by (B desc, id asc)
/// that some participant has not settled. Empty once that window is fully
/// settled (or k = 0): the answer is then Rank(CompleteFacilities(...), k).
std::vector<uint32_t> PlanWindow(std::span<const size_t> participants,
                                 const FacilityMatrix& bounds,
                                 FacilityMatrix* exact, KnownMatrix* known,
                                 size_t k, size_t num_facilities);

/// B(f) = Σ_p bounds[p][f], summed in ascending participant order.
std::vector<double> SumBounds(std::span<const size_t> participants,
                              const FacilityMatrix& bounds,
                              size_t num_facilities);

/// The complete-facility merge: every facility all `participants` settled,
/// ascending by id, valued Σ_p exact[p][f] in ascending participant order.
std::vector<RankedFacility> CompleteFacilities(
    std::span<const size_t> participants, const FacilityMatrix& exact,
    const KnownMatrix& known, size_t num_facilities);

/// Ranks exact totals by (value desc, id asc) and keeps the first k.
std::vector<RankedFacility> Rank(std::vector<RankedFacility> complete,
                                 size_t k);

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_PRUNE_PLAN_H_
