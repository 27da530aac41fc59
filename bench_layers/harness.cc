#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

namespace tq::bl {

const char* OpName(Op op) {
  switch (op) {
    case kSO:
      return "so";
    case kTopK:
      return "topk";
    case kCover:
      return "cover";
    case kUpdate:
      return "update";
    case kNumOps:
      break;
  }
  return "unknown";
}

Deck::Deck(std::vector<uint32_t> cards, uint64_t seed)
    : cards_(std::move(cards)), pos_(cards_.size()), rng_(seed) {}

uint32_t Deck::Next() {
  if (pos_ == cards_.size()) {
    for (size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[rng_.NextBelow(i)]);
    }
    pos_ = 0;
  }
  return cards_[pos_++];
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  items_.push_back(Metric{name, value, unit});
}

std::string MetricList::ToJson() const {
  std::string s = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    // Full precision: the value as measured, never rounded to a grid.
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(m.value) ? m.value : 0.0);
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

int64_t SpanLog::Add(const char* op, uint64_t request, int64_t parent,
                     uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{op, request, parent, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::AddEngineJson(const std::string& key, const std::string& json) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  engine_json_.emplace_back(key, json);
}

bool SpanLog::Write(const std::string& path, const RunConfig& config) const {
  if (!enabled_ || path.empty()) return true;
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"workload\": \"" << config.workload << "\", \"seed\": "
      << config.seed << ", \"spans_dropped\": " << dropped_
      << ", \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Offsets from the first span, so files from two runs line up.
    const auto rel = [t0](uint64_t ns) {
      return static_cast<double>(static_cast<int64_t>(ns - t0)) / 1e3;
    };
    out << (i == 0 ? "" : ",") << "\n{\"id\": " << i << ", \"parent\": "
        << s.parent << ", \"op\": \"" << s.op << "\", \"request\": "
        << s.request << ", \"start_us\": " << rel(s.start_ns)
        << ", \"end_us\": " << rel(s.end_ns) << "}";
  }
  out << "]";
  for (const auto& [key, json] : engine_json_) {
    out << ",\n\"" << key << "\": " << json;
  }
  out << "}\n";
  return static_cast<bool>(out);
}

void AddEngineSpans(SpanLog* spans, int64_t parent, uint64_t request,
                    const runtime::TraceContext& trace) {
  if (parent < 0) return;  // the parent span was dropped
  for (size_t i = 0; i < trace.num_spans(); ++i) {
    const runtime::TraceSpan& s = trace.span(i);
    spans->Add(s.name, request, parent, s.start_ns, s.end_ns);
  }
}

WindowDelta::WindowDelta(const runtime::MetricsView& before,
                         const runtime::MetricsView& after) {
  std::vector<std::pair<std::string, uint64_t>> first;
  before.ForEachCounter(
      [&first](const char* name, uint64_t v) { first.emplace_back(name, v); });
  size_t i = 0;
  after.ForEachCounter([&](const char* name, uint64_t v) {
    const uint64_t b = i < first.size() ? first[i].second : 0;
    ++i;
    // Gauges (net_outbox_bytes) may shrink; deltas are signed doubles.
    values_.emplace_back(name,
                         static_cast<double>(v) - static_cast<double>(b));
  });
  // Histograms only grow, so the interval's distribution is the bucket-wise
  // difference.
  for (size_t f = 0; f < histograms_.size(); ++f) {
    const runtime::HistogramSnapshot& a = after.op_histograms[f];
    const runtime::HistogramSnapshot& b = before.op_histograms[f];
    histograms_[f].count = a.count - b.count;
    histograms_[f].sum_ns = a.sum_ns - b.sum_ns;
    for (size_t k = 0; k < a.buckets.size(); ++k) {
      histograms_[f].buckets[k] = a.buckets[k] - b.buckets[k];
    }
  }
}

double WindowDelta::Get(const char* name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return -1.0;
}

void WindowDelta::Add(const WindowDelta& other) {
  for (size_t i = 0; i < values_.size() && i < other.values_.size(); ++i) {
    values_[i].second += other.values_[i].second;
  }
  for (size_t f = 0; f < histograms_.size(); ++f) {
    histograms_[f].Merge(other.histograms_[f]);
  }
}

std::string WindowDelta::ToJson() const {
  std::string s = "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.0f", values_[i].second);
    s += (i == 0 ? "\"" : ", \"") + values_[i].first + "\": " + buf;
  }
  return s + "}";
}

void RecordEngine(SpanLog* spans, const std::string& name,
                  const std::vector<runtime::Trace>& traces,
                  const WindowDelta& delta,
                  const runtime::MetricsView& at_end) {
  if (!spans->enabled()) return;
  std::string json = "{\"traces\": [";
  for (size_t i = 0; i < traces.size(); ++i) {
    json += (i == 0 ? "" : ",\n") + runtime::TraceToJson(traces[i]);
  }
  json += "],\n\"counter_deltas\": " + delta.ToJson() +
          ",\n\"metrics\": " + at_end.ToJson() + "}";
  spans->AddEngineJson(name, json);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Checker::Expect(bool ok, const char* what, double got, double want) {
  ++checked_;
  if (ok) return;
  if (++failures_ <= 10) {
    std::fprintf(stderr, "WRONG ANSWER: %s: got %.17g, want %.17g\n", what,
                 got, want);
  }
}

bool Checker::Close(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

}  // namespace tq::bl
