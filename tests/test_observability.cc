// Tests for the observability layer (src/runtime/histogram.h, trace.h,
// metrics.h): log-bucket math stays within its advertised relative error,
// percentiles and merges are exact over the bucket grid, overflow saturates
// instead of corrupting, the MetricsView JSON key set cannot drift from the
// counter declarations, spans record wait-free with bounded drop-counting,
// and the recent-trace ring survives concurrent writers and readers. Run
// under -fsanitize=thread (cmake -DTQ_SANITIZE=thread) to check the striped
// histogram and the ring's per-slot locking for races; CI does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/histogram.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"
#include "test_util.h"

namespace tq::runtime {
namespace {

// ------------------------------------------------------------ histogram

TEST(Histogram, BucketsAreMonotoneAndSelfConsistent) {
  // Every bucket's lower bound must be where BucketFor sends it, and the
  // bounds must strictly increase — otherwise percentiles are meaningless.
  uint64_t prev = 0;
  for (size_t b = 0; b < kHistNumBuckets; ++b) {
    const uint64_t lo = HistBucketLowerBound(b);
    if (b > 0) {
      ASSERT_GT(lo, prev) << "bucket " << b;
      ASSERT_EQ(HistBucketFor(lo - 1), b - 1) << "bucket " << b;
    }
    ASSERT_EQ(HistBucketFor(lo), b) << "bucket " << b;
    prev = lo;
  }
}

TEST(Histogram, BucketRelativeErrorIsBounded) {
  // The log bucketing promises ≤ 12.5% relative error: a value lands in a
  // bucket whose midpoint is within width/2 ≤ v/8 of the value itself
  // (checked over three orders of magnitude of pseudo-random values).
  uint64_t v = 12345;
  for (int i = 0; i < 20000; ++i) {
    v = v * 2862933555777941757ull + 3037000493ull;  // LCG, full period
    const uint64_t ns = (v >> 20) % 4000000000ull;
    const size_t b = HistBucketFor(ns);
    if (b >= kHistOverflowBucket) continue;
    const uint64_t lo = HistBucketLowerBound(b);
    const uint64_t hi = lo + HistBucketWidth(b);
    ASSERT_GE(ns, lo);
    ASSERT_LT(ns, hi);
    if (ns >= 16) {
      // Midpoint error ≤ half a bucket width ≤ lo/8 ≤ ns/8.
      EXPECT_LE(HistBucketWidth(b), lo / 4) << "ns=" << ns;
    }
  }
}

TEST(Histogram, RecordsAndReportsExactSmallValues) {
  LatencyHistogram h;
  // Values below 16 ns land in exact unit buckets: percentile midpoints
  // reproduce them precisely.
  for (int i = 0; i < 100; ++i) h.Record(7);
  const HistogramSnapshot s = h.Read();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum_ns, 700u);
  EXPECT_EQ(s.Percentile(0.50), 7u);
  EXPECT_EQ(s.Percentile(0.99), 7u);
  EXPECT_EQ(s.MaxNs(), 8u);  // upper edge of the unit bucket [7, 8)
}

TEST(Histogram, PercentilesSplitAMixedDistribution) {
  LatencyHistogram h;
  // 90 fast samples at ~1us, 10 slow at ~50ms: p50 must sit on the fast
  // mode, p99 on the slow one, each within the 12.5% bucket error.
  for (int i = 0; i < 90; ++i) h.Record(1000);
  for (int i = 0; i < 10; ++i) h.Record(50000000);
  const HistogramSnapshot s = h.Read();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(static_cast<double>(s.Percentile(0.50)), 1000.0, 125.0);
  EXPECT_NEAR(static_cast<double>(s.Percentile(0.99)), 50000000.0,
              50000000.0 * 0.125);
  EXPECT_GE(s.MaxNs(), 50000000u);
}

TEST(Histogram, OverflowBucketSaturatesAtTheCap) {
  LatencyHistogram h;
  h.Record(UINT64_MAX);
  h.Record(uint64_t{1} << 45);
  const HistogramSnapshot s = h.Read();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[kHistOverflowBucket], 2u);
  // Overflow percentiles report the cap, not garbage midpoint arithmetic.
  constexpr uint64_t kCapNs = uint64_t{1} << kHistMaxOctave;
  EXPECT_EQ(s.Percentile(0.99), kCapNs);
  EXPECT_EQ(s.MaxNs(), kCapNs);
}

TEST(Histogram, MergeIsPointwiseAndCountPreserving) {
  LatencyHistogram a, b;
  for (int i = 0; i < 50; ++i) a.Record(500);
  for (int i = 0; i < 50; ++i) b.Record(2000000);
  HistogramSnapshot sa = a.Read();
  const HistogramSnapshot sb = b.Read();
  sa.Merge(sb);
  EXPECT_EQ(sa.count, 100u);
  EXPECT_EQ(sa.sum_ns, 50u * 500 + 50u * 2000000);
  EXPECT_NEAR(static_cast<double>(sa.Percentile(0.25)), 500.0, 500.0 * .125);
  EXPECT_NEAR(static_cast<double>(sa.Percentile(0.75)), 2000000.0,
              2000000.0 * .125);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  const HistogramSnapshot s = LatencyHistogram().Read();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(0.50), 0u);
  EXPECT_EQ(s.MaxNs(), 0u);
  EXPECT_EQ(s.MeanNs(), 0u);
}

TEST(Histogram, ConcurrentRecordersLoseNothing) {
  // The striped wait-free Record path: N threads hammer one histogram;
  // every sample must be visible in the merged read. TSan checks the
  // stripe handoff; the count checks the arithmetic.
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot s = h.Read();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
}

// -------------------------------------------------------------- metrics

TEST(Metrics, ToJsonContainsEveryCounterAndHistogramFamily) {
  // Drift guard: the JSON rendering, the ForEachCounter visitor, and the
  // struct fields are all generated from TQ_METRICS_COUNTERS, so every
  // visited name must appear as a key — and every op family must have a
  // histogram section. A counter added to the macro passes automatically;
  // one added by hand anywhere else fails here.
  MetricsRegistry registry;
  registry.AddQuery(false);
  registry.RecordLatency(OpFamily::kServiceQuery, 12345);
  const MetricsView view = registry.Read();
  const std::string json = view.ToJson();
  size_t counters = 0;
  view.ForEachCounter([&](const char* name, uint64_t) {
    ++counters;
    std::string key = "\"";
    key += name;
    key += "\":";
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << name;
  });
  EXPECT_GE(counters, 27u);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  for (size_t f = 0; f < kNumOpFamilies; ++f) {
    std::string key = "\"";
    key += OpFamilyName(static_cast<OpFamily>(f));
    key += "\":{";
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing histogram family " << key;
  }
  // Spot-check the recorded sample surfaced in the right family.
  EXPECT_EQ(view.op_histograms[static_cast<size_t>(OpFamily::kServiceQuery)]
                .count,
            1u);
  EXPECT_EQ(view.queries_total, 1u);
}

// --------------------------------------------------------------- traces

TEST(Trace, SpansRecordAndRebaseRelativeToStart) {
  Tracer tracer;
  TraceContextPtr ctx = tracer.Start("topk", 8, 1000);
  ctx->AddSpan("queue_wait", 2, 1500, 2500);
  ctx->AddSpan("merge", -1, 2600, 3600);
  tracer.Finish(*ctx, 7);
  const std::vector<Trace> recent = tracer.Recent(4);
  ASSERT_EQ(recent.size(), 1u);
  const Trace& t = recent[0];
  EXPECT_EQ(t.op, "topk");
  EXPECT_EQ(t.detail, 8u);
  EXPECT_EQ(t.snapshot_version, 7u);
  ASSERT_EQ(t.spans.size(), 2u);
  // Finish sorts chronologically and re-bases to trace-relative offsets.
  EXPECT_EQ(t.spans[0].name, "queue_wait");
  EXPECT_EQ(t.spans[0].shard, 2);
  EXPECT_EQ(t.spans[0].start_ns, 500u);
  EXPECT_EQ(t.spans[0].end_ns, 1500u);
  EXPECT_EQ(t.spans[1].name, "merge");
  EXPECT_EQ(t.spans[1].shard, -1);
  EXPECT_EQ(t.spans[1].start_ns, 1600u);
  // JSON line carries the op and every span name.
  const std::string json = TraceToJson(t);
  EXPECT_NE(json.find("\"op\":\"topk\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"merge\""), std::string::npos);
}

TEST(Trace, OverBudgetSpansAreCountedNotRecorded) {
  TraceContext ctx("sum", 1);
  for (size_t i = 0; i < TraceContext::kMaxSpans + 10; ++i) {
    ctx.AddSpan("s", -1, i, i + 1);
  }
  EXPECT_EQ(ctx.num_spans(), TraceContext::kMaxSpans);
  EXPECT_EQ(ctx.dropped_spans(), 10u);
}

TEST(Trace, SlowLogFiresOnlyAtOrAboveThreshold) {
  Tracer tracer;
  std::vector<std::string> lines;
  tracer.SetSlowLogSink([&lines](const std::string& l) {
    lines.push_back(l);
  });
  tracer.set_slow_threshold_ns(1000000);  // 1 ms
  {
    TraceContext fast("sum", 1, NowNs());
    tracer.Finish(fast, 1);  // ~0 ns total: below threshold
  }
  EXPECT_TRUE(lines.empty());
  {
    TraceContext slow("topk", 8, NowNs() - 5000000);
    tracer.Finish(slow, 1);  // 5 ms total: logged
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"op\":\"topk\""), std::string::npos);
  // Sentinel disables logging entirely.
  tracer.set_slow_threshold_ns(Tracer::kSlowLogDisabled);
  TraceContext slow2("topk", 8, NowNs() - 5000000);
  tracer.Finish(slow2, 1);
  EXPECT_EQ(lines.size(), 1u);
}

TEST(Trace, RingKeepsNewestAndBoundsRecent) {
  Tracer tracer(/*ring_size=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceContextPtr ctx = tracer.Start("sum", i);
    tracer.Finish(*ctx, i);
  }
  EXPECT_EQ(tracer.finished(), 20u);
  const std::vector<Trace> recent = tracer.Recent(64);
  ASSERT_LE(recent.size(), 8u);
  ASSERT_FALSE(recent.empty());
  // Newest first; the oldest surviving entries are the most recent ring's.
  EXPECT_EQ(recent.front().detail, 19u);
  for (const Trace& t : recent) EXPECT_GE(t.detail, 12u);
  EXPECT_EQ(tracer.Recent(3).size(), 3u);
  EXPECT_TRUE(tracer.Recent(0).empty());
}

TEST(Trace, RingSurvivesConcurrentWritersAndReaders) {
  // The lock-free ring contract under contention: writer threads finish
  // traces (atomic cursor claim + per-slot try_lock, dropping on
  // contention) while reader threads snapshot Recent(). Nothing may tear
  // or race (TSan-checked); accounting must balance exactly.
  Tracer tracer(/*ring_size=*/16);
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      size_t seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (const Trace& t : tracer.Recent(16)) {
          // Touch the payload so TSan sees the read side.
          seen += t.spans.size() + (t.op == "w" ? 1 : 0);
          EXPECT_EQ(t.op, "w");
        }
      }
      (void)seen;
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w]() {
      for (int i = 0; i < kPerWriter; ++i) {
        TraceContext ctx("w", static_cast<uint64_t>(w));
        ctx.AddSpan("span", w, ctx.start_ns(), ctx.start_ns() + 10);
        tracer.Finish(ctx, 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(tracer.finished(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  // Every finish either landed in a slot or was counted as dropped; with
  // 5000 attempts per slot the ring cannot plausibly end up empty.
  EXPECT_LE(tracer.ring_dropped(), tracer.finished());
  EXPECT_GE(tracer.Recent(16).size(), 1u);
}

}  // namespace
}  // namespace tq::runtime
