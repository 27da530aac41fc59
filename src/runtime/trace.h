// Per-query tracing: named spans recorded into a fixed-size ring of recent
// traces, plus a threshold-gated slow-query log of structured JSON lines.
//
// Ownership model (who starts and who finishes a trace):
//   * The net server starts one sampled TraceContext per decoded frame
//     (decode span), hands it to every sub-query of the frame via the
//     ShardedEngine::SubmitAsync(request, trace, done) overload, appends
//     the encode span, and calls Tracer::Finish when the frame's last
//     response is staged.
//   * For in-process scatter queries submitted WITHOUT a caller trace, the
//     sharded engine starts its own context (sampled 1-in-kTraceSample,
//     or every query while the slow log is armed) and finishes it right
//     before invoking the completion callback — so slow queries are traced
//     even when no front-end asked for it.
// Shard tasks only ever APPEND spans to whatever context the GatherState
// carries; they never finish it.
//
// Concurrency: TraceContext::AddSpan is wait-free (atomic slot claim into a
// fixed array; over-budget spans are counted as dropped, never reallocated).
// Span slots are plain writes — the query's completion edge (the gather
// barrier's release/acquire on the remaining-counter, or a thread join)
// must order all AddSpan calls before Finish reads them, which holds for
// every engine path by construction. The Tracer ring serializes per slot
// with a try_lock so a publishing writer never blocks: on contention the
// trace is counted dropped and the writer moves on.
#ifndef TQCOVER_RUNTIME_TRACE_H_
#define TQCOVER_RUNTIME_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/histogram.h"

namespace tq::runtime {

/// One timed, named region inside a query. `name` must point at a string
/// with static storage duration (span recording never copies it).
struct TraceSpan {
  const char* name = nullptr;
  int32_t shard = -1;  // -1 = not shard-specific (decode, merge, encode)
  uint64_t start_ns = 0;  // NowNs() timestamps; made trace-relative on Finish
  uint64_t end_ns = 0;
};

/// Mutable in-flight trace. Created via Tracer::Start (or directly for
/// tests); shared by pointer across the scatter tasks of one query/frame.
class TraceContext {
 public:
  static constexpr size_t kMaxSpans = 48;

  /// `op` must be a static-storage string ("sum", "topk", "net_sum", ...);
  /// `detail` is op-defined (facility id for sums, k for top-k, sub-query
  /// count for net frames). `start_ns` = 0 means "now"; the net server
  /// passes the frame arrival time so the decode span sits inside the trace.
  TraceContext(const char* op, uint64_t detail, uint64_t start_ns = 0)
      : op_(op), detail_(detail),
        start_ns_(start_ns != 0 ? start_ns : NowNs()) {}

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Wait-free append. Timestamps are absolute NowNs() values; spans beyond
  /// kMaxSpans are counted in dropped_spans() instead of recorded.
  void AddSpan(const char* name, int32_t shard, uint64_t start_ns,
               uint64_t end_ns) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSpans) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans_[i] = TraceSpan{name, shard, start_ns, end_ns};
  }

  const char* op() const { return op_; }
  uint64_t detail() const { return detail_; }
  uint64_t start_ns() const { return start_ns_; }
  size_t num_spans() const {
    const size_t n = next_.load(std::memory_order_relaxed);
    return n < kMaxSpans ? n : kMaxSpans;
  }
  uint32_t dropped_spans() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  const TraceSpan& span(size_t i) const { return spans_[i]; }

 private:
  const char* op_;
  uint64_t detail_;
  uint64_t start_ns_;
  std::atomic<size_t> next_{0};
  std::atomic<uint32_t> dropped_{0};
  TraceSpan spans_[kMaxSpans];
};

using TraceContextPtr = std::shared_ptr<TraceContext>;

/// A finished, self-contained trace as stored in the ring / sent on the
/// wire. Span timestamps are RELATIVE to the trace start (offsets in ns),
/// so they stay meaningful across processes and machines.
struct Trace {
  struct Span {
    std::string name;
    int32_t shard = -1;
    uint64_t start_ns = 0;  // offset from trace start
    uint64_t end_ns = 0;
  };
  std::string op;
  uint64_t detail = 0;
  uint64_t total_ns = 0;
  uint64_t snapshot_version = 0;
  int64_t unix_ms = 0;  // wall-clock completion time (system_clock)
  uint32_t dropped_spans = 0;
  std::vector<Span> spans;
};

/// One structured JSON line, the slow-query-log format:
/// {"op":..,"detail":..,"total_ms":..,"snapshot_version":..,"unix_ms":..,
///  "dropped_spans":..,"spans":[{"name":..,"shard":..,"start_us":..,
///  "end_us":..},...]}
std::string TraceToJson(const Trace& trace);

/// Ring of recently finished traces + slow-query log dispatch. One Tracer
/// per engine; Finish() is safe from any thread and never blocks on the
/// ring (contended slots drop the trace and count it).
class Tracer {
 public:
  static constexpr size_t kDefaultRingSize = 128;
  /// Threshold sentinel: slow-query logging disabled.
  static constexpr uint64_t kSlowLogDisabled = UINT64_MAX;

  explicit Tracer(size_t ring_size = kDefaultRingSize);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocates a fresh in-flight context (plain factory; the tracer only
  /// learns about the trace when Finish is called).
  TraceContextPtr Start(const char* op, uint64_t detail,
                        uint64_t start_ns = 0) const {
    return std::make_shared<TraceContext>(op, detail, start_ns);
  }

  /// Seals `ctx` into a Trace (total time, relative span offsets), stores
  /// it in the ring, and emits a slow-log line if total >= threshold.
  /// All AddSpan calls must happen-before this (see header comment).
  void Finish(const TraceContext& ctx, uint64_t snapshot_version);

  /// ms-to-ns helpers live with the callers; the threshold itself is ns.
  /// kSlowLogDisabled (the default) disables emission; 0 logs every trace.
  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Sink for slow-query JSON lines (e.g. writes to stderr or a log file).
  /// Called inline from Finish — keep it cheap and never re-enter the
  /// tracer from inside it.
  void SetSlowLogSink(std::function<void(const std::string&)> sink);

  /// Most-recent finished traces, newest first, at most `max_traces`.
  std::vector<Trace> Recent(size_t max_traces) const;

  uint64_t finished() const {
    return finished_.load(std::memory_order_relaxed);
  }
  /// Traces lost to ring-slot contention (writer try_lock failed).
  uint64_t ring_dropped() const {
    return ring_dropped_.load(std::memory_order_relaxed);
  }
  size_t ring_size() const { return ring_size_; }

 private:
  struct Slot {
    std::mutex mu;
    bool used = false;
    Trace trace;
  };

  const size_t ring_size_;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint64_t> slow_threshold_ns_{kSlowLogDisabled};
  std::atomic<uint64_t> finished_{0};
  std::atomic<uint64_t> ring_dropped_{0};

  mutable std::mutex sink_mu_;
  std::function<void(const std::string&)> sink_;
};

}  // namespace tq::runtime

#endif  // TQCOVER_RUNTIME_TRACE_H_
