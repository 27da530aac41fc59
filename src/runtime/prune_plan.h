// The bound-and-prune top-k planner: the coordinator math of distributed
// kMaxRRST, shared by the in-process scatter/gather engine (ShardedEngine,
// participants = shards) and the cross-process coordinator (RemoteShardSet,
// participants = shard-worker processes).
//
// Both run the same two-round protocol, the threshold algorithm of Fagin,
// Lotem and Naor (PODS 2001) over per-participant partial sums:
//   round 1  every participant p reports a sound upper bound UB_p(f) for
//            every facility plus the exact values SO_p(f) it already settled;
//   plan     B(f) = Σ_p UB_p(f) and L(f) = Σ_{p settled f} SO_p(f) ≤ SO(f);
//            τ = k-th largest L. A facility with B(f) < τ satisfies
//            SO(f) ≤ B(f) < τ ≤ k-th exact value — strictly below the answer
//            even on exact ties, so it is pruned. B(f) == τ stays a candidate;
//   round 2  participants evaluate the candidates' unsettled slots;
//   merge    facilities every participant settled are summed in ascending
//            participant order and ranked (value desc, id asc). Ascending
//            order is what makes a pruned answer bit-identical to the
//            exhaustive one and a coordinator's to a single process's.
//
// Zero bounds settle for free: 0 ≤ SO_p(f) ≤ UB_p(f) = 0, so a slot whose own
// bound is 0 is exactly 0 without evaluation (a facility whose global bound
// is 0 has every slot settled this way). The planner settles them before it
// picks candidates, so round 2 never asks a participant for a slot it cannot
// contribute to.
//
// Everything here is pure and single-threaded. Callers own the
// [participant][facility] matrices; the planner reads them by reference and
// settles slots in place, so the hot path makes no per-query copy. Only the
// listed participants are read: a coordinator drops a dead worker by leaving
// it out of the list.
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

/// Protocol selection: bound-and-prune, or the exhaustive gather. Once the
/// effective k (min(k, |F|)) reaches `prune_skip_ratio · |F|` most of the
/// catalog is in the answer anyway and the bound sweep cannot pay for
/// itself. Both protocols return bit-identical answers.
bool UsePrunedTopK(bool prune_topk, double prune_skip_ratio, size_t k,
                   size_t num_facilities);

/// The plan step. Settles every unsettled slot of `participants` whose own
/// bound is 0 ((*exact)[p][f] = 0, (*known)[p][f] = 1), then returns,
/// ascending, the facilities some participant has not settled and whose
/// B(f) ≥ τ for τ = the min(k, |F|)-th largest L(f). Empty when every
/// facility the answer can contain is already fully settled (or k = 0).
std::vector<uint32_t> PlanCandidates(std::span<const size_t> participants,
                                     const FacilityMatrix& bounds,
                                     FacilityMatrix* exact, KnownMatrix* known,
                                     size_t k, size_t num_facilities);

/// B(f) = Σ_p bounds[p][f], summed in ascending participant order.
std::vector<double> SumBounds(std::span<const size_t> participants,
                              const FacilityMatrix& bounds,
                              size_t num_facilities);

/// The complete-facility merge: every facility all `participants` settled,
/// ascending by id, valued Σ_p exact[p][f] in ascending participant order.
/// A null `known` means every slot is settled (the exhaustive gather).
std::vector<RankedFacility> CompleteFacilities(
    std::span<const size_t> participants, const FacilityMatrix& exact,
    const KnownMatrix* known, size_t num_facilities);

/// Ranks exact totals by (value desc, id asc) and keeps the first k.
std::vector<RankedFacility> Rank(std::vector<RankedFacility> complete,
                                 size_t k);

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_PRUNE_PLAN_H_
