#include "runtime/coordinator.h"

#include <algorithm>
#include <string>
#include <utility>

namespace tq::runtime {

using Kind = CoordinatedQuery::Kind;

void Coordinator::Submit(const QueryRequest& request, QueryBasis basis,
                         TraceContextPtr trace,
                         ServingEngine::ResponseCallback done,
                         uint64_t start_ns) {
  const bool topk = request.kind == QueryKind::kTopK;
  metrics_->AddQuery(topk);
  auto query = std::make_shared<CoordinatedQuery>();
  query->kind = topk ? Kind::kTopK : Kind::kSum;
  query->k = request.k;
  query->facility = request.facility;
  query->basis = std::move(basis);
  query->start_ns = start_ns != 0 ? start_ns : NowNs();
  query->done = std::move(done);

  // Malformed requests come back as errors, and degenerate rankings (k = 0
  // or an empty catalog) as empty answers, before any wave.
  const size_t num_fac = query->basis.num_facilities;
  if (topk ? request.k == 0 || num_fac == 0 : request.facility >= num_fac) {
    QueryResponse response;
    response.kind = request.kind;
    response.snapshot_version = query->basis.snapshot_version;
    if (!topk) {
      response.status = Status::OutOfRange(
          "facility id " + std::to_string(request.facility) +
          " out of range (catalog has " + std::to_string(num_fac) + ")");
    }
    Complete(query.get(), std::move(response));
    return;
  }

  // Queries arriving without a caller trace may get a coordinator-owned
  // one, sampled. An armed slow-query log overrides the sampling: a slow
  // query can only be logged if it was traced from the start.
  if (trace == nullptr && sampled_traces_ != nullptr) {
    const bool slow_log_armed =
        sampled_traces_->slow_threshold_ns() != Tracer::kSlowLogDisabled;
    thread_local uint64_t trace_seq = 0;
    if (slow_log_armed || trace_seq++ % kTraceSample == 0) {
      trace = sampled_traces_->Start(topk ? "topk" : "sum",
                                     topk ? request.k : request.facility);
      query->owns_trace = true;
    }
  }
  query->trace = std::move(trace);
  Start(query);
}

void Coordinator::Sweep(QueryBasis basis,
                        ServingEngine::BoundSweepCallback done) {
  // A sweep is one top-k query's first wave: counted and timed as a top-k
  // query, so the histogram-vs-counter invariant holds on workers too.
  metrics_->AddQuery(/*topk=*/true);
  auto query = std::make_shared<CoordinatedQuery>();
  query->kind = Kind::kSweep;
  query->basis = std::move(basis);
  query->start_ns = NowNs();
  query->sweep_done = std::move(done);
  Start(query);
}

void Coordinator::Start(const CoordinatedQueryPtr& query) {
  query->coordinator = this;
  query->parts = transport_->Participants();
  query->initial_parts = query->parts.size();
  const size_t n = transport_->num_participants();
  query->answers.resize(n);
  const size_t num_fac = query->basis.num_facilities;
  if (query->kind != Kind::kSum) query->bounds.resize(n);
  if (query->kind == Kind::kTopK) {
    query->exact.assign(n, std::vector<double>(num_fac, 0.0));
    query->known.assign(n, std::vector<uint8_t>(num_fac, 0));
  }
  query->wave = query->parts;
  if (query->kind == Kind::kSum) query->window = {&query->facility, 1};
  if (query->wave.empty()) {
    Continue(query);  // nobody to ask: answer from no participant at all
    return;
  }
  ++query->rounds;
  if (query->kind == Kind::kSum) {
    transport_->Evaluate(query);
  } else {
    transport_->Bound(query);
  }
}

void Coordinator::Continue(const CoordinatedQueryPtr& query) {
  DropFailed(query.get());
  switch (query->kind) {
    case Kind::kSum:
      AnswerSum(query.get());
      return;
    case Kind::kSweep:
      AnswerSweep(query.get());
      return;
    case Kind::kTopK:
      Plan(query);
      return;
  }
}

void Coordinator::DropFailed(CoordinatedQuery* query) {
  // A sum returns a participant's rejection as its answer; every other
  // query can only drop the participant.
  const bool keep_rejected = query->kind == Kind::kSum;
  std::erase_if(query->parts, [query, keep_rejected](size_t p) {
    const ParticipantAnswer& answer = query->answers[p];
    return answer.failed ||
           (!keep_rejected && answer.rejected != StatusCode::kOk);
  });
}

void Coordinator::Plan(const CoordinatedQueryPtr& query) {
  const uint64_t t0 = query->trace ? NowNs() : 0;
  // The window's unsettled facilities over the survivors (prune_plan.h).
  // The planner also settles zero-bound slots, so a wave only asks for
  // slots that can contribute.
  query->owing.clear();
  if (!query->parts.empty()) {
    query->planned = PlanWindow(query->parts, query->bounds, &query->exact,
                                &query->known, query->k,
                                query->basis.num_facilities);
    for (const size_t p : query->parts) {
      size_t owed = 0;
      for (const FacilityId f : query->planned) owed += query->Owes(p, f);
      if (owed != 0) {
        query->owing.push_back(p);
        query->evaluated += owed;
      }
    }
  }
  query->window = query->planned;
  query->wave = query->owing;
  if (t0 != 0) query->trace->AddSpan("coordinate", -1, t0, NowNs());
  if (query->owing.empty()) {
    AnswerTopK(query.get());
    return;
  }
  // The transport may finish the wave (and complete the query) before this
  // call returns: nothing touches the query after it.
  ++query->rounds;
  transport_->Evaluate(query);
}

void Coordinator::AnswerSum(CoordinatedQuery* query) {
  const uint64_t t0 = query->trace ? NowNs() : 0;
  QueryResponse response;
  response.kind = QueryKind::kServiceValue;
  for (const size_t p : query->parts) {
    // A participant rejected the query itself: that is the answer, and no
    // participant is scored for it.
    if (query->answers[p].rejected != StatusCode::kOk) {
      response.status =
          Status(query->answers[p].rejected, "participant rejected the query");
      response.snapshot_version = query->basis.snapshot_version;
      Complete(query, std::move(response));
      return;
    }
  }
  // Disjoint user partition: SO(U, f) = Σ_p SO(U_p, f), summed in ascending
  // participant order so the merge is deterministic.
  double sum = 0.0;
  bool all_hit = !query->parts.empty();
  for (const size_t p : query->parts) {
    sum += query->answers[p].value;
    all_hit = all_hit && query->answers[p].cache_hit;
  }
  response.value = sum;
  response.cache_hit = all_hit;
  Merge(query, &response.snapshot_version, &response.stats, &response.status);
  if (t0 != 0) query->trace->AddSpan("merge", -1, t0, NowNs());
  Complete(query, std::move(response));
}

void Coordinator::AnswerTopK(CoordinatedQuery* query) {
  const uint64_t t0 = query->trace ? NowNs() : 0;
  const size_t num_fac = query->basis.num_facilities;
  QueryResponse response;
  response.kind = QueryKind::kTopK;
  if (query->parts.empty()) {
    response.status = Status::Unavailable("no participant left for top-k");
  } else {
    // Rank the facilities every survivor settled: they include the settled
    // window, and every other facility provably ranks after it.
    response.ranked = Rank(CompleteFacilities(query->parts, query->exact,
                                              query->known, num_fac),
                           query->k);
  }
  Merge(query, &response.snapshot_version, &response.stats, &response.status);
  const uint64_t slots = static_cast<uint64_t>(num_fac) * query->initial_parts;
  metrics_->AddTopKPruneWork(query->evaluated, slots - query->evaluated,
                             query->rounds);
  if (t0 != 0) query->trace->AddSpan("merge", -1, t0, NowNs());
  Complete(query, std::move(response));
}

void Coordinator::AnswerSweep(CoordinatedQuery* query) {
  BoundSweepResult result;
  result.bounds =
      SumBounds(query->parts, query->bounds, query->basis.num_facilities);
  QueryStats total;
  Merge(query, &result.snapshot_version, &total, &result.status);
  metrics_->RecordLatency(OpFamily::kTopKQuery, NowNs() - query->start_ns);
  query->sweep_done(std::move(result));
}

void Coordinator::Merge(CoordinatedQuery* query, uint64_t* version,
                        QueryStats* total, Status* status) {
  uint64_t newest = 0;
  for (const size_t p : query->parts) {
    newest = std::max(newest, query->answers[p].snapshot_version);
    total->Add(query->answers[p].stats);
  }
  *version = newest != 0 ? newest : query->basis.snapshot_version;
  metrics_->RecordQueryStats(*total);
  const size_t expected = transport_->num_participants();
  if (query->parts.size() < expected) {
    metrics_->AddCoordPartial();
    if (status->ok()) {
      *status = Status::Unavailable(
          "partial result: answered by " +
          std::to_string(query->parts.size()) + " of " +
          std::to_string(expected) + " participants");
    }
  }
}

void Coordinator::Complete(CoordinatedQuery* query, QueryResponse response) {
  if (query->owns_trace) {
    sampled_traces_->Finish(*query->trace, response.snapshot_version);
  }
  metrics_->RecordLatency(query->kind == Kind::kTopK ? OpFamily::kTopKQuery
                                                     : OpFamily::kServiceQuery,
                          NowNs() - query->start_ns);
  query->done(std::move(response));
}

}  // namespace tq::runtime
