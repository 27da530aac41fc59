// Tests for the serving protocol's one coordinator (runtime/coordinator.h)
// over a fake ShardTransport — no shards, no sockets. Random per-participant
// bound/value matrices with ties stand in for the participants:
//   * sums and top-k (k ∈ {0, 1, |F|/2, |F|, |F|+3}) equal brute force over
//     the same matrices, summed in ascending participant order;
//   * no participant is asked for a slot it already settled or whose own
//     bound is 0, and the prune counters account every slot;
//   * a participant failing in the bound wave or in the second evaluate
//     wave leaves a survivors-only answer marked kUnavailable, and with no
//     survivor the answer is kUnavailable with no ranking;
//   * a sum's per-participant rejection is the answer and drops nobody.
// Waves run on a side thread, as a real transport's would; TSan runs this
// binary in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "runtime/coordinator.h"

namespace tq {
namespace {

using runtime::CoordinatedQuery;
using runtime::CoordinatedQueryPtr;
using runtime::Coordinator;
using runtime::MetricsRegistry;
using runtime::QueryBasis;
using runtime::QueryRequest;
using runtime::QueryResponse;

/// Participants answering from fixed matrices: bound[p][f] ≥ value[p][f].
class FakeTransport : public runtime::ShardTransport {
 public:
  FakeTransport(std::vector<std::vector<double>> bound,
                std::vector<std::vector<double>> value)
      : bound_(std::move(bound)), value_(std::move(value)) {}
  ~FakeTransport() override {
    // A wave thread may still be returning from the wave that completed
    // the last query, or be starting the next one's thread.
    for (;;) {
      std::vector<std::thread> waves;
      {
        std::lock_guard<std::mutex> lock(mu_);
        waves.swap(waves_);
      }
      if (waves.empty()) return;
      for (std::thread& t : waves) t.join();
    }
  }

  /// Participant `p` fails in wave `wave` (0 = the first wave a query
  /// issues) and stays failed for the rest of the query.
  void FailIn(size_t p, size_t wave) { failures_.emplace_back(p, wave); }
  /// Participant `p` rejects every sum.
  void Reject(size_t p) { rejecting_.insert(p); }

  std::vector<size_t> Participants() const override {
    std::vector<size_t> parts(bound_.size());
    for (size_t p = 0; p < parts.size(); ++p) parts[p] = p;
    return parts;
  }
  size_t num_participants() const override { return bound_.size(); }

  void Bound(const CoordinatedQueryPtr& query) override {
    Run(query, [this, query](size_t p) {
      query->bounds[p] = bound_[p];
    });
  }
  void Evaluate(const CoordinatedQueryPtr& query) override {
    Run(query, [this, query](size_t p) {
      if (rejecting_.count(p) != 0) {
        query->answers[p].rejected = StatusCode::kOutOfRange;
        return;
      }
      const bool topk = query->kind == CoordinatedQuery::Kind::kTopK;
      for (const FacilityId f : query->window) {
        if (!query->Owes(p, f)) continue;
        // A top-k never asks for a slot this participant settled or whose
        // own bound is 0 (a sum asks every participant).
        if (topk) {
          EXPECT_TRUE(asked_.insert({p, f}).second)
              << "participant " << p << " asked twice for facility " << f;
          EXPECT_GT(bound_[p][f], 0.0) << "participant " << p
                                       << " asked for zero-bound facility "
                                       << f;
        }
        query->Settle(p, f, value_[p][f]);
      }
    });
  }

  /// Resets the per-query wave counter and asked slots.
  void NewQuery() {
    wave_ = 0;
    asked_.clear();
  }
  size_t asked() const { return asked_.size(); }

 private:
  /// Answers the wave on a side thread, then continues the query there.
  template <typename Fn>
  void Run(const CoordinatedQueryPtr& query, Fn answer) {
    const size_t wave = wave_++;
    std::vector<size_t> failing;
    for (const auto& [p, w] : failures_) {
      if (w == wave) failing.push_back(p);
    }
    // The new thread may finish the query, and start further waves,
    // before emplace_back returns.
    std::lock_guard<std::mutex> lock(mu_);
    waves_.emplace_back([query, answer, failing]() {
      for (const size_t p : query->wave) {
        if (std::find(failing.begin(), failing.end(), p) != failing.end()) {
          query->answers[p].failed = true;
        } else {
          answer(p);
        }
      }
      query->coordinator->Continue(query);
    });
  }

  std::vector<std::vector<double>> bound_;
  std::vector<std::vector<double>> value_;
  std::vector<std::pair<size_t, size_t>> failures_;
  std::set<size_t> rejecting_;
  // Written by the wave threads one at a time: each wave starts only after
  // the previous one continued the query.
  size_t wave_ = 0;
  std::set<std::pair<size_t, FacilityId>> asked_;
  std::mutex mu_;  // guards waves_
  std::vector<std::thread> waves_;
};

struct Matrices {
  std::vector<std::vector<double>> bound;
  std::vector<std::vector<double>> value;
};

/// Values on a coarse grid (many exact ties across facilities), bounds at
/// or above them, and whole zero-bound slots.
Matrices RandomMatrices(Rng* rng, size_t parts, size_t num_fac) {
  Matrices m;
  m.bound.assign(parts, std::vector<double>(num_fac, 0.0));
  m.value.assign(parts, std::vector<double>(num_fac, 0.0));
  for (size_t p = 0; p < parts; ++p) {
    for (size_t f = 0; f < num_fac; ++f) {
      if (rng->NextBernoulli(0.25)) continue;  // a zero-bound slot
      m.value[p][f] = 0.5 * static_cast<double>(rng->NextBelow(6));
      m.bound[p][f] =
          m.value[p][f] + 0.5 * static_cast<double>(rng->NextBelow(4));
      if (m.bound[p][f] == 0.0) m.bound[p][f] = 0.5;
    }
  }
  return m;
}

double BruteSum(const Matrices& m, const std::vector<size_t>& parts,
                size_t f) {
  double sum = 0.0;
  for (const size_t p : parts) sum += m.value[p][f];
  return sum;
}

std::vector<RankedFacility> BruteTopK(const Matrices& m,
                                      const std::vector<size_t>& parts,
                                      size_t k) {
  const size_t num_fac = m.value[0].size();
  std::vector<RankedFacility> all;
  for (size_t f = 0; f < num_fac; ++f) {
    all.push_back({static_cast<FacilityId>(f), BruteSum(m, parts, f)});
  }
  std::sort(all.begin(), all.end(), RankedBefore);
  all.resize(std::min(k, num_fac));
  return all;
}

QueryResponse Ask(Coordinator* coordinator, const QueryRequest& request,
                  size_t num_fac) {
  QueryBasis basis;
  basis.num_facilities = num_fac;
  basis.snapshot_version = 7;
  std::promise<QueryResponse> promise;
  coordinator->Submit(
      request, basis, nullptr,
      [&promise](QueryResponse r) { promise.set_value(std::move(r)); }, 0);
  return promise.get_future().get();
}

void ExpectRanking(const std::vector<RankedFacility>& got,
                   const std::vector<RankedFacility>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "rank " << i;
  }
}

TEST(Coordinator, SumAndTopKEqualBruteForce) {
  Rng rng(2022);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t parts = 1 + rng.NextBelow(4);
    const size_t num_fac = 1 + rng.NextBelow(24);
    const Matrices m = RandomMatrices(&rng, parts, num_fac);
    FakeTransport transport(m.bound, m.value);
    const std::vector<size_t> everyone = transport.Participants();
    MetricsRegistry metrics;
    Coordinator coordinator(&transport, &metrics, nullptr);
    SCOPED_TRACE("trial " + std::to_string(trial));

    for (size_t f = 0; f < num_fac; ++f) {
      transport.NewQuery();
      const QueryResponse r =
          Ask(&coordinator, QueryRequest::ServiceValue(f), num_fac);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.value, BruteSum(m, everyone, f));
      EXPECT_EQ(r.snapshot_version, 7u);
    }
    for (const size_t k : {size_t{0}, size_t{1}, num_fac / 2, num_fac,
                           num_fac + 3}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      transport.NewQuery();
      const runtime::MetricsView before = metrics.Read();
      const QueryResponse r = Ask(&coordinator, QueryRequest::TopK(k), num_fac);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ExpectRanking(r.ranked, BruteTopK(m, everyone, k));
      if (k == 0) continue;
      // Every slot is either asked for exactly or pruned.
      const runtime::MetricsView after = metrics.Read();
      const uint64_t evaluated =
          after.facilities_evaluated - before.facilities_evaluated;
      EXPECT_EQ(evaluated, transport.asked());
      EXPECT_EQ(evaluated + after.facilities_pruned - before.facilities_pruned,
                num_fac * parts);
    }
  }
}

TEST(Coordinator, RejectsOutOfRangeFacility) {
  const Matrices m{{{1.0, 2.0}}, {{1.0, 2.0}}};
  FakeTransport transport(m.bound, m.value);
  MetricsRegistry metrics;
  Coordinator coordinator(&transport, &metrics, nullptr);
  const QueryResponse r = Ask(&coordinator, QueryRequest::ServiceValue(2), 2);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(metrics.Read().service_queries, 1u);
}

// A participant that fails in the bound wave (wave 0) or in the second
// evaluate wave (wave 2) is dropped: the answer is brute force over the
// survivors, marked partial.
TEST(Coordinator, FailedParticipantLeavesSurvivorsOnlyAnswer) {
  Rng rng(77);
  int second_wave_failures = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t parts = 2 + rng.NextBelow(3);
    const size_t num_fac = 4 + rng.NextBelow(12);
    const Matrices m = RandomMatrices(&rng, parts, num_fac);
    const size_t victim = rng.NextBelow(parts);
    const size_t wave = trial % 2 == 0 ? 0 : 2;
    const size_t k = 1 + rng.NextBelow(num_fac);
    SCOPED_TRACE("trial " + std::to_string(trial) + " k=" +
                 std::to_string(k) + " wave=" + std::to_string(wave));

    FakeTransport transport(m.bound, m.value);
    transport.FailIn(victim, wave);
    MetricsRegistry metrics;
    Coordinator coordinator(&transport, &metrics, nullptr);
    transport.NewQuery();
    const QueryResponse r = Ask(&coordinator, QueryRequest::TopK(k), num_fac);

    std::vector<size_t> survivors;
    for (size_t p = 0; p < parts; ++p) {
      if (p != victim) survivors.push_back(p);
    }
    if (r.status.ok()) {
      // The victim owed nothing in the second evaluate wave, or the query
      // settled before it; a bound-wave failure always lands.
      ASSERT_EQ(wave, 2u);
      ExpectRanking(r.ranked, BruteTopK(m, transport.Participants(), k));
      continue;
    }
    if (wave == 2) ++second_wave_failures;
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    ExpectRanking(r.ranked, BruteTopK(m, survivors, k));
    EXPECT_EQ(metrics.Read().coord_partial, 1u);

    // A sum loses the victim in its only wave.
    FakeTransport sum_transport(m.bound, m.value);
    sum_transport.FailIn(victim, 0);
    Coordinator sum_coordinator(&sum_transport, &metrics, nullptr);
    const QueryResponse sum =
        Ask(&sum_coordinator, QueryRequest::ServiceValue(0), num_fac);
    EXPECT_EQ(sum.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(sum.value, BruteSum(m, survivors, 0));
  }
  EXPECT_GT(second_wave_failures, 0)
      << "no trial reached a second evaluate wave";
}

TEST(Coordinator, NoSurvivorMeansUnavailableWithoutRanking) {
  // Every slot positive: the first evaluate wave asks both participants.
  const Matrices m{std::vector<std::vector<double>>(2, {2, 2, 2, 2, 2, 2}),
                   std::vector<std::vector<double>>(2, {1, 1, 1, 1, 1, 1})};
  for (const size_t wave : {size_t{0}, size_t{1}}) {
    FakeTransport transport(m.bound, m.value);
    transport.FailIn(0, wave);
    transport.FailIn(1, wave);
    MetricsRegistry metrics;
    Coordinator coordinator(&transport, &metrics, nullptr);
    transport.NewQuery();
    const QueryResponse r = Ask(&coordinator, QueryRequest::TopK(6), 6);
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(r.ranked.empty());
  }
  FakeTransport transport(m.bound, m.value);
  transport.FailIn(0, 0);
  transport.FailIn(1, 0);
  MetricsRegistry metrics;
  Coordinator coordinator(&transport, &metrics, nullptr);
  const QueryResponse sum = Ask(&coordinator, QueryRequest::ServiceValue(1), 6);
  EXPECT_EQ(sum.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(sum.value, 0.0);
}

// A participant's rejection of a sum is the sum's answer, not a failure.
TEST(Coordinator, RejectedSumPropagatesWithoutPartialMarker) {
  const Matrices m{{{1.0}, {1.0}}, {{1.0}, {1.0}}};
  FakeTransport transport(m.bound, m.value);
  transport.Reject(1);
  MetricsRegistry metrics;
  Coordinator coordinator(&transport, &metrics, nullptr);
  const QueryResponse r = Ask(&coordinator, QueryRequest::ServiceValue(0), 1);
  EXPECT_EQ(r.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(metrics.Read().coord_partial, 0u);
}

}  // namespace
}  // namespace tq
