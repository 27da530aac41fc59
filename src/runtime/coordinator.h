// The serving protocol, once: sums, bound-and-prune top-k and the bound
// sweep, run as waves over the participants of a ShardTransport.
//
// Two transports carry it. ShardedEngine's participants are the owned shards
// of its pinned snapshot, one pool task per shard per wave; RemoteShardSet's
// are shard-worker processes, one pipelined RPC wave per pool task. The
// coordinator cannot tell them apart:
//
//   sum      one Evaluate wave for {f} over every participant; the answer
//            is Σ_p SO_p(f), summed in ascending participant order.
//   top-k    one Bound wave, then PlanWindow (prune_plan.h) → one Evaluate
//            wave for the window's unsettled slots → plan again, until the
//            window is settled; the answer is Rank(CompleteFacilities(...)).
//   sweep    one Bound wave, then SumBounds — a worker's half of a remote
//            top-k's first wave (kBound frames).
//
// A wave never blocks a thread on another: the transport calls
// Coordinator::Continue exactly once when every participant of the wave has
// answered, on whichever thread finished last, and Continue either issues
// the next wave or completes the query. The coordinator also owns, once for
// both transports: request validation, dropping failed participants (the
// answer is then computed over the survivors and marked kUnavailable), the
// `coordinate` and `merge` spans, the engine-owned trace sample, and the
// prune counters.
//
// Participant ids are 0..num_participants()-1 and are summed in ascending
// order: for the in-process transport participant p is owned shard
// owned_begin + p, for the remote one it is worker p, and workers own
// contiguous ascending shard ranges — so both sum per-shard values in
// ascending shard order.
#ifndef TQCOVER_RUNTIME_COORDINATOR_H_
#define TQCOVER_RUNTIME_COORDINATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "query/query_stats.h"
#include "runtime/metrics.h"
#include "runtime/prune_plan.h"
#include "runtime/serving_engine.h"
#include "runtime/trace.h"

namespace tq::runtime {

class Coordinator;

/// What one query runs against, fixed when it is submitted.
struct QueryBasis {
  size_t num_facilities = 0;
  /// The version an answer reports unless a participant reports a newer one.
  uint64_t snapshot_version = 0;
  /// Kept alive for the query's lifetime and read back by the transport
  /// (the in-process transport's pinned snapshot); may be null.
  std::shared_ptr<const void> pin;
};

/// One participant's answer to the current wave, written by the transport.
struct ParticipantAnswer {
  /// Transport error or malformed answer: the participant is dropped for
  /// the rest of the query.
  bool failed = false;
  /// Every facility of the wave came from the participant's result cache.
  bool cache_hit = false;
  /// Not kOk when the participant rejected the query itself. A sum returns
  /// this code; a top-k or a sweep drops the participant.
  StatusCode rejected = StatusCode::kOk;
  uint64_t snapshot_version = 0;
  /// A sum's SO_p(f).
  double value = 0.0;
  /// Work done for this query, accumulated over its waves.
  QueryStats stats;
};

/// One query's state, shared by the coordinator and the transport until it
/// completes — the query's only shared allocation; a sum allocates nothing
/// else but its participant list and answers. The coordinator writes the
/// wave (`wave`, `window`); the transport fills one answer per participant
/// of the wave and then calls coordinator->Continue(query).
struct CoordinatedQuery {
  enum class Kind : uint8_t { kSum, kTopK, kSweep };

  /// True when participant p still owes the exact value of facility f
  /// (every slot of a sum's window; the unsettled slots of a top-k's).
  bool Owes(size_t p, FacilityId f) const {
    return kind == Kind::kSum || known[p][f] == 0;
  }
  /// Records participant p's exact value of facility f.
  void Settle(size_t p, FacilityId f, double value) {
    if (kind == Kind::kSum) {
      answers[p].value = value;
    } else {
      exact[p][f] = value;
      known[p][f] = 1;
    }
  }

  Kind kind = Kind::kSum;
  size_t k = 0;  // kTopK
  QueryBasis basis;
  /// Span sink, null when untraced; transports append their wave spans.
  TraceContextPtr trace;
  Coordinator* coordinator = nullptr;

  /// Participants still in the query, ascending.
  std::vector<size_t> parts;
  /// This wave's participants, ascending: all of `parts` in a query's first
  /// wave, then the top-k's `owing`. Valid until the wave continues.
  std::span<const size_t> wave;
  /// Evaluate waves: the facilities each participant evaluates where it
  /// Owes them — a sum's `facility`, or the top-k's `planned` window.
  std::span<const FacilityId> window;
  FacilityId facility = 0;          // kSum
  std::vector<FacilityId> planned;  // kTopK: the window's unsettled members
  std::vector<size_t> owing;        // kTopK: participants owing one of them
  /// By participant id.
  std::vector<ParticipantAnswer> answers;
  /// Bound waves: bounds[p][f] = UB_p(f) for every facility.
  FacilityMatrix bounds;
  /// Top-k: exact[p][f] holds SO_p(f) once known[p][f] is set.
  FacilityMatrix exact;
  KnownMatrix known;
  /// Free for the transport's own wave bookkeeping (the in-process
  /// transport's last-finisher barrier).
  std::atomic<size_t> remaining{0};

  // Coordinator bookkeeping.
  size_t initial_parts = 0;
  uint64_t evaluated = 0;  // slots asked for exactly
  uint32_t rounds = 0;     // waves issued
  uint64_t start_ns = 0;
  bool owns_trace = false;
  ServingEngine::ResponseCallback done;
  ServingEngine::BoundSweepCallback sweep_done;
};
using CoordinatedQueryPtr = std::shared_ptr<CoordinatedQuery>;

/// How a coordinator reaches its participants. Both operations are async:
/// each fills query->answers[p] for every p in query->wave (or sets its
/// `failed`) and then calls query->coordinator->Continue(query) exactly
/// once, possibly inline. The coordinator never issues an empty wave.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  /// The participants a new query starts with, ascending.
  virtual std::vector<size_t> Participants() const = 0;
  /// How many participants a full answer needs; answers from fewer are
  /// partial.
  virtual size_t num_participants() const = 0;
  /// UB_p(f) for every facility into query->bounds[p].
  virtual void Bound(const CoordinatedQueryPtr& query) = 0;
  /// Each f in query->window that participant p Owes, evaluated exactly
  /// and handed to query->Settle(p, f, value).
  virtual void Evaluate(const CoordinatedQueryPtr& query) = 0;
};

class Coordinator {
 public:
  /// Scatter queries submitted without a caller trace get a coordinator-
  /// owned one in `sampled_traces` (when non-null): one every kTraceSample
  /// queries, or every query while its slow-query log is armed. A trace
  /// costs an allocation plus span clock reads in every wave, so tracing
  /// every query would tax the hot path.
  static constexpr size_t kTraceSample = 32;

  /// `transport` and `metrics` (and `sampled_traces`) must outlive every
  /// query.
  Coordinator(ShardTransport* transport, MetricsRegistry* metrics,
              Tracer* sampled_traces)
      : transport_(transport),
        metrics_(metrics),
        sampled_traces_(sampled_traces) {}

  /// Answers one query over the transport's participants. `done` runs
  /// exactly once: inline for a rejected or degenerate request (facility
  /// out of range; k = 0 or an empty catalog), otherwise on the thread that
  /// finishes the last wave. `start_ns` (0 = now) backdates the latency
  /// sample.
  void Submit(const QueryRequest& request, QueryBasis basis,
              TraceContextPtr trace, ServingEngine::ResponseCallback done,
              uint64_t start_ns);
  /// Σ_p UB_p(f) for every facility, one Bound wave (serves kBound frames).
  void Sweep(QueryBasis basis, ServingEngine::BoundSweepCallback done);

  /// The transports' continuation: the wave in query->wave has answered.
  void Continue(const CoordinatedQueryPtr& query);

 private:
  /// Fills in the participants and issues the query's first wave.
  void Start(const CoordinatedQueryPtr& query);
  /// Removes the wave's failed participants from query->parts.
  void DropFailed(CoordinatedQuery* query);
  /// Plans the top-k window and issues its Evaluate wave, or finishes.
  void Plan(const CoordinatedQueryPtr& query);
  /// Each kind's final merge over the surviving participants.
  void AnswerSum(CoordinatedQuery* query);
  void AnswerTopK(CoordinatedQuery* query);
  void AnswerSweep(CoordinatedQuery* query);
  /// The answer's version, work totals and partial marker over the
  /// surviving participants.
  void Merge(CoordinatedQuery* query, uint64_t* version, QueryStats* total,
             Status* status);
  /// Finishes the query's trace (if the coordinator owns it), records the
  /// latency sample and hands `response` to the caller.
  void Complete(CoordinatedQuery* query, QueryResponse response);

  ShardTransport* transport_;
  MetricsRegistry* metrics_;
  Tracer* sampled_traces_;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_COORDINATOR_H_
