// bench_layers: the repository's end-to-end and per-layer benchmark. One
// process runs one workload once (see README.md for the workloads, metrics
// and how to compare runs):
//
//   bench_layers --workload lib_nyt --seed 1 --seconds 20 --trace 0
//   bench_layers --smoke       every workload for 2 s, same answer checks
//   bench_layers --self-test   perturbs one oracle value; must exit non-zero
//
// stdout ends with a "# detail:" line (sample counts, every op's
// percentiles, informational fields) and then the result line:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// carrying the end-to-end metrics, or with --trace 1 the per-layer ones.
// A wrong answer exits 1 and posts no numbers.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace tq::bl {
namespace {

struct WorkloadDef {
  const char* name;
  WorkloadResult (*run)(const RunConfig&, SpanLog*);
  std::unique_ptr<Dataset> (*data)();  // what the library probes run on
};

const WorkloadDef kWorkloads[] = {
    {"lib_nyt", RunLibNyt, [] { return NytDataset(kRoutes); }},
    {"engine_zipf", RunEngineZipf, [] { return NyfDataset(kZipfRoutes); }},
    {"net_mixed", RunNetMixed, [] { return NyfDataset(kRoutes); }},
    {"cluster_topk", RunClusterTopK, [] { return NyfDataset(kRoutes); }},
};

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// A percentile is reported only with at least this many samples beyond it.
constexpr double kMinTail = 10.0;

std::vector<double> AllLatencies(const WorkloadResult& r) {
  std::vector<double> all;
  for (const auto& ms : r.latency_ms) {
    all.insert(all.end(), ms.begin(), ms.end());
  }
  return all;
}

// Percentiles are over the whole mix. The mixes are fixed-share decks, so
// p50 and p99 fall inside one op type's latency band in every workload,
// never on the border between two. Every load is a closed loop, so
// throughput already carries the mean latency. The percentiles of each op
// type are in the detail line; compare.py judges them.
MetricList EndToEnd(const WorkloadResult& r) {
  const std::vector<double> all = AllLatencies(r);
  MetricList m;
  m.Add("setup_s", Median(r.setup_s), "s");
  m.Add("throughput_ops",
        Ratio(static_cast<double>(r.attempted - r.failed), r.window_s),
        "ops/s");
  m.Add("p50_ms", Quantile(all, 0.50), "ms");
  m.Add("p99_ms", Quantile(all, 0.99), "ms");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  return m;
}

// Layer metrics a reader may look for under another name, or not at all.
constexpr const char* kNotReported =
    "{\"net.wire_us\": \"see ladder.net.so_self_us, the loopback rung's SO "
    "latency over the 4-shard engine's\", \"loadgen.late_p99_ms\": \"every "
    "load is a closed loop: no request has a due time\", "
    "\"runtime.sweep_us\": \"see ladder.engine4.{sweep,refine,coordinate,"
    "merge}_us\", \"coord.round1_us\": \"see ladder.cluster.{round1,round2,"
    "coordinate,merge}_us, rpcs_per_topk, bytes_per_topk, worker_rtt_us, "
    "worker_eval_fraction\"}";

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// The "# detail:" object: sample counts and percentiles of every op,
/// validity, and the informational fields.
std::string Detail(const RunConfig& config, const WorkloadResult& r,
                   std::vector<std::string>* invalid) {
  std::string ops;
  for (size_t op = 0; op < kNumOps; ++op) {
    const std::vector<double>& ms = r.latency_ms[op];
    if (ms.empty()) continue;
    ops += std::string(ops.empty() ? "" : ", ") + "\"" +
           OpName(static_cast<Op>(op)) + "\": {\"n\": " +
           std::to_string(ms.size()) + ", \"p50_ms\": " +
           Num(Quantile(ms, 0.5)) + ", \"p90_ms\": " + Num(Quantile(ms, 0.9)) +
           ", \"p95_ms\": " + Num(Quantile(ms, 0.95)) + ", \"p99_ms\": " +
           Num(Quantile(ms, 0.99)) + ", \"mean_ms\": " + Num(Mean(ms)) + "}";
  }
  const double beyond_p99 = 0.01 * static_cast<double>(AllLatencies(r).size());
  if (!config.smoke && !config.traced && beyond_p99 < kMinTail) {
    invalid->push_back("fewer than 10 samples beyond p99");
  }
  std::string reasons;
  for (const std::string& s : *invalid) {
    reasons += std::string(reasons.empty() ? "" : ", ") + "\"" + s + "\"";
  }
  std::string setups;
  for (const double s : r.setup_s) {
    setups += (setups.empty() ? "" : ", ") + Num(s);
  }
  std::string facts;
  for (const auto& [k, v] : r.facts) facts += ", \"" + k + "\": " + Num(v);
  if (config.traced) {
    facts += std::string(", \"not_reported\": ") + kNotReported;
  }
  return "{\"workload\": \"" + config.workload + "\", \"seed\": " +
         std::to_string(config.seed) + ", \"seconds\": " +
         Num(config.seconds) + ", \"trace\": " +
         (config.traced ? "1" : "0") + ", \"window_s\": " + Num(r.window_s) +
         ", \"valid\": " +
         (invalid->empty() ? "true" : "false") + ", \"invalid\": [" +
         reasons + "], \"ops\": {" + ops + "}, \"setup_s\": [" + setups +
         "], \"checked\": " + std::to_string(r.checked) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + __VERSION__ + "\"" + facts + "}";
}

int RunOne(const RunConfig& config, const WorkloadDef& def) {
  SpanLog spans(config.traced);
  WorkloadResult r = def.run(config, &spans);
  if (r.wrong > 0) {
    std::fprintf(stderr, "%s: %llu of %llu answer checks failed\n", def.name,
                 static_cast<unsigned long long>(r.wrong),
                 static_cast<unsigned long long>(r.checked));
    return 1;
  }
  MetricList metrics;
  if (config.traced) {
    metrics = r.layer;
    metrics.Add("trace.overhead_pct",
                100.0 * (Ratio(Median(r.so_traced_ms),
                               Median(r.so_untraced_ms)) -
                         1.0),
                "%");
    AddLibraryProbes(*def.data(), config, &metrics);
    const uint64_t ladder_failures = AddLadder(config, &metrics);
    if (ladder_failures > 0) {
      std::fprintf(stderr, "%s: %llu ladder steps failed\n", def.name,
                   static_cast<unsigned long long>(ladder_failures));
      return 1;
    }
    if (!spans.Write(config.trace_out, config)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config.trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(r);
  }
  std::vector<std::string> invalid;
  std::printf("# detail: %s\n", Detail(config, r, &invalid).c_str());
  for (const std::string& s : invalid) {
    std::fprintf(stderr, "%s: run invalid: %s\n", def.name, s.c_str());
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

int Smoke(RunConfig config) {
  config.smoke = true;
  config.traced = false;
  config.seconds = 2.0;
  const uint64_t t0 = runtime::NowNs();
  uint64_t attempted = 0, failed = 0;
  for (const WorkloadDef& def : kWorkloads) {
    config.workload = def.name;
    SpanLog spans(false);
    const WorkloadResult r = def.run(config, &spans);
    std::fprintf(stderr,
                 "smoke %-12s %6llu ops  %7llu checks  %llu wrong  %llu "
                 "failed\n",
                 def.name, static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.checked),
                 static_cast<unsigned long long>(r.wrong),
                 static_cast<unsigned long long>(r.failed));
    if (r.wrong > 0) return 1;
    attempted += r.attempted;
    failed += r.failed;
  }
  const double seconds = static_cast<double>(runtime::NowNs() - t0) / 1e9;
  MetricList m;
  m.Add("smoke_s", seconds, "s");
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.ToJson().c_str());
  return failed > 0 ? 1 : 0;
}

int SelfTest(RunConfig config) {
  config.smoke = true;
  config.self_test = true;
  config.traced = false;
  config.seconds = 1.0;
  config.workload = "lib_nyt";
  SpanLog spans(false);
  const WorkloadResult r = RunLibNyt(config, &spans);
  if (r.wrong == 0) {
    std::fprintf(stderr, "self-test FAILED: the perturbed oracle value was "
                         "not caught\n");
    return 0;
  }
  std::fprintf(stderr, "self-test: the checker rejected %llu answers against "
                       "the perturbed oracle, as it must\n",
               static_cast<unsigned long long>(r.wrong));
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_layers --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                    [--trace-out FILE] [--tmpdir DIR]\n"
               "       bench_layers --smoke | --self-test\n"
               "workloads: lib_nyt engine_zipf net_mixed cluster_topk\n");
  return 2;
}

}  // namespace
}  // namespace tq::bl

int main(int argc, char** argv) {
  using namespace tq::bl;  // NOLINT(build/namespaces)
  RunConfig config;
  bool smoke = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      config.trace_out = argv[++i];
    } else if (arg == "--tmpdir" && has_value) {
      config.tmpdir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (smoke) return Smoke(config);
  if (self_test) return SelfTest(config);
  const WorkloadDef* def = FindWorkload(config.workload);
  if (def == nullptr || config.seconds <= 0.0) return Usage();
  return RunOne(config, *def);
}
