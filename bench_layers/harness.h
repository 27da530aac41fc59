// Shared plumbing of the bench_layers program: run configuration, the
// closed-loop load, latency statistics, metric output, benchmark-side
// spans and answer bookkeeping. It reads the program's metric and trace
// types but calls none of its logic.
#ifndef TQCOVER_BENCH_LAYERS_HARNESS_H_
#define TQCOVER_BENCH_LAYERS_HARNESS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/histogram.h"
#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace tq::bl {

/// One process = one run of one workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  /// Every workload for 2 s with one set-up (the CI smoke).
  bool smoke = false;
  /// Perturbs one oracle value; the run must then fail its checks.
  bool self_test = false;
  /// Parent directory for the durable workload's data dir.
  std::string tmpdir = ".";
  /// Traced runs write their spans here ("" = nowhere).
  std::string trace_out;

  /// Measured window: traced runs measure half of it, then probe.
  double window_s() const { return traced ? seconds / 2.0 : seconds; }
  /// Set-up repetitions; set-up time is the median over them. Each takes
  /// 0.1-0.2 s, a scale at which a shared VM's speed can jitter by 2x.
  size_t setup_reps() const { return traced || smoke ? 1 : 11; }
  /// Independent seed for one of the run's random streams.
  uint64_t SubSeed(uint64_t stream) const {
    return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
  }
};

/// Operation kinds a workload issues.
enum Op : uint8_t { kSO = 0, kTopK, kCover, kUpdate, kNumOps };
const char* OpName(Op op);

/// Fixed-share op schedule: every block of `cards.size()` consecutive ops
/// holds each kind exactly its share, in a seeded shuffled order, so the mix
/// (and with it the mean latency) does not drift with the seed.
class Deck {
 public:
  Deck(std::vector<uint32_t> cards, uint64_t seed);
  uint32_t Next();
  /// True between blocks: stopping here keeps the shares exact.
  bool AtBoundary() const { return pos_ == cards_.size(); }

 private:
  std::vector<uint32_t> cards_;
  size_t pos_;
  Rng rng_;
};

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
double Median(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list rendered as the result line's "metrics" object.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// What one workload run measured.
struct WorkloadResult {
  std::vector<double> setup_s;  // one per set-up repetition
  double window_s = 0.0;        // measured window, as actually run
  uint64_t attempted = 0;       // ops issued in the window
  uint64_t failed = 0;          // non-OK, transport error, unanswered, shed
  uint64_t checked = 0;         // answer checks made (set-up included)
  uint64_t wrong = 0;           // checks that failed
  std::array<std::vector<double>, kNumOps> latency_ms;  // window samples
  /// Traced runs: SO latency of the requests recorded with spans and of
  /// those recorded without (they alternate), for trace.overhead_pct.
  std::vector<double> so_traced_ms, so_untraced_ms;
  /// Per-layer metrics read off the workload's own deployment.
  MetricList layer;
  /// Extra human-readable facts for the detail line (name, value).
  std::vector<std::pair<std::string, double>> facts;
};

/// Benchmark-side spans: one per call into a public entry point, kept in
/// memory and written out as JSON when the run ends. Spans past kMaxSpans
/// are counted, not kept, so a fast workload's file stays a few MB.
class SpanLog {
 public:
  static constexpr size_t kMaxSpans = 20000;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Returns the span id (-1 when disabled). `parent` is a span id or -1.
  int64_t Add(const char* op, uint64_t request, int64_t parent,
              uint64_t start_ns, uint64_t end_ns);
  /// Engine-side traces and counters to include in the written file.
  void AddEngineJson(const std::string& key, const std::string& json);
  bool Write(const std::string& path, const RunConfig& config) const;

 private:
  struct Span {
    const char* op;
    uint64_t request;
    int64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::vector<std::pair<std::string, std::string>> engine_json_;
};

/// Records the spans an engine appended to a caller-owned trace context as
/// children of benchmark span `parent`.
void AddEngineSpans(SpanLog* spans, int64_t parent, uint64_t request,
                    const runtime::TraceContext& trace);

/// What one closed-loop op reports back: the trace context it passed to
/// the engine (or null), and when the answer was handed over (0 = when the
/// call returned).
struct Answered {
  runtime::TraceContextPtr trace;
  uint64_t done_ns = 0;
};

/// Closed loop, one caller: `exec(op, traced)` runs one op and returns an
/// Answered; `on_window()` runs once, between warm-up and window. Both
/// phases end on a deck boundary, so the window holds exact mix shares.
/// Traced runs record every other request with spans.
template <typename Exec, typename OnWindow>
void ClosedLoop(double warmup_s, double window_s, Deck* mix, SpanLog* spans,
                WorkloadResult* result, Exec&& exec, OnWindow&& on_window) {
  uint64_t request = 0;
  const auto phase = [&](double seconds, bool measure) {
    const uint64_t begin = runtime::NowNs();
    const uint64_t end = begin + static_cast<uint64_t>(seconds * 1e9);
    while (runtime::NowNs() < end || !mix->AtBoundary()) {
      const auto op = static_cast<Op>(mix->Next());
      const bool traced = spans->enabled() && request % 2 == 0;
      const uint64_t t0 = runtime::NowNs();
      const Answered a = exec(op, traced);
      const uint64_t t1 = a.done_ns != 0 ? a.done_ns : runtime::NowNs();
      if (traced) {
        const int64_t id = spans->Add(OpName(op), request, -1, t0, t1);
        if (a.trace) AddEngineSpans(spans, id, request, *a.trace);
      }
      if (measure) {
        const double ms = static_cast<double>(t1 - t0) / 1e6;
        result->latency_ms[op].push_back(ms);
        if (op == kSO && spans->enabled()) {
          (traced ? result->so_traced_ms : result->so_untraced_ms)
              .push_back(ms);
        }
        ++result->attempted;
      }
      ++request;
    }
    if (measure) {
      result->window_s = static_cast<double>(runtime::NowNs() - begin) / 1e9;
    }
  };
  phase(warmup_s, false);
  on_window();
  phase(window_s, true);
}

/// What a deployment did between two registry reads: counter deltas, looked
/// up by counter name so that a counter a later change removes reads as
/// missing instead of breaking the build, and the latency histograms of
/// just that interval.
class WindowDelta {
 public:
  WindowDelta(const runtime::MetricsView& before,
              const runtime::MetricsView& after);
  /// Delta of `name`; -1 when the registry has no such counter.
  double Get(const char* name) const;
  const runtime::HistogramSnapshot& histogram(runtime::OpFamily f) const {
    return histograms_[static_cast<size_t>(f)];
  }
  /// Sums another deployment's deltas in (a coordinator and its workers).
  void Add(const WindowDelta& other);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::array<runtime::HistogramSnapshot, runtime::kNumOpFamilies> histograms_;
};

/// Adds one deployment's recent engine traces, window deltas and latency
/// histograms to the span file under `name`.
void RecordEngine(SpanLog* spans, const std::string& name,
                  const std::vector<runtime::Trace>& traces,
                  const WindowDelta& delta,
                  const runtime::MetricsView& at_end);

/// `num / den`, or 0 when nothing was counted (an idle layer).
double Ratio(double num, double den);

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

/// Counts wrong answers; prints the first few. A run with any wrong answer
/// exits non-zero and posts no numbers.
class Checker {
 public:
  void Expect(bool ok, const char* what, double got, double want);
  /// |got - want| <= 1e-9 * max(1, |want|).
  static bool Close(double got, double want);
  uint64_t checked() const { return checked_; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t checked_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace tq::bl

#endif  // TQCOVER_BENCH_LAYERS_HARNESS_H_
