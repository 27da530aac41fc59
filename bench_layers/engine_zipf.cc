// engine_zipf — point lookups on the sharded engine: SO queries with the
// facility drawn from Zipf(s = 0.9) over 2,024 routes, 4 shards, 2 threads,
// default result cache. The working set, 2,024 x 4 = 8,096 (facility,
// shard) entries, is twice the cache's 4,096, so most queries hit while the
// rest scatter and gather for real. runtime/ and the cache do the work;
// net/, storage/ and the coordinator do none.
//
// Load: one client thread keeps 2 requests in flight (a closed loop of 2
// callers), one per engine thread: the fewest that keep both threads busy.
// Measured on a 2-vCPU host: 1 in flight served 2.5-3.2k SO/s, 2 served
// 4.7-5.7k, and 4, 8 or 16 no more (5.1-5.5k) while the median cache hit
// rose from 9 us to 0.3, 1.3 and 2.8 ms of pure queueing. An open
// loop at a fixed rate was tried first; on 2 cores the generator shares the
// CPUs with the engine, so a hit timed from its due time mostly measured
// the generator's wake-up delay (so_p50 spread across seeds: 132 %).
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/sharded_engine.h"
#include "workloads.h"

namespace tq::bl {
namespace {

constexpr size_t kInFlight = 2;
constexpr double kZipfS = 0.9;

struct Slot {
  FacilityId facility = 0;
  bool in_window = false;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  double value = 0.0;
  bool ok = false;
  runtime::TraceContextPtr trace;
};

}  // namespace

WorkloadResult RunEngineZipf(const RunConfig& config, SpanLog* spans) {
  WorkloadResult result;
  const std::unique_ptr<Dataset> data = NyfDataset(kZipfRoutes);
  const size_t nf = data->facilities.size();
  const ServiceOracle oracle(data->facilities, kPsi, data->oracle_model);
  const std::vector<double> want_so = oracle.ServiceValues(data->users);
  Checker checker;

  runtime::ShardedEngineOptions options;
  options.num_shards = 4;
  options.num_threads = 2;
  options.tree = TreeOptions(data->model);

  std::unique_ptr<runtime::ShardedEngine> engine;
  for (size_t rep = 0; rep < config.setup_reps(); ++rep) {
    engine.reset();
    const uint64_t t0 = runtime::NowNs();
    engine = std::make_unique<runtime::ShardedEngine>(
        data->users, data->facilities, options);
    const uint64_t t1 = runtime::NowNs();
    const runtime::QueryResponse r =
        Call(*engine, runtime::QueryRequest::ServiceValue(0));
    const uint64_t t2 = runtime::NowNs();
    result.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    const int64_t root = spans->Add("setup", rep, -1, t0, t2);
    spans->Add("build", rep, root, t0, t1);
    spans->Add("first_so", rep, root, t1, t2);
    checker.Expect(r.status.ok() && Checker::Close(r.value, want_so[0]),
                   "engine_zipf set-up SO", r.value, want_so[0]);
  }

  // Closed loop: submit whenever fewer than kInFlight are outstanding. Hits
  // complete inline on this thread, misses on the engine's pool threads.
  std::deque<Slot> slots;  // stable references while appending
  Rng zipf(config.SubSeed(1));
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;
  runtime::MetricsView at_window;
  const uint64_t t_start = runtime::NowNs();
  const uint64_t t_window =
      t_start + static_cast<uint64_t>((config.smoke ? 0.5 : 3.0) * 1e9);
  const uint64_t t_end =
      t_window + static_cast<uint64_t>(config.window_s() * 1e9);
  bool measuring = false;
  for (uint64_t now = t_start; now < t_end; now = runtime::NowNs()) {
    if (!measuring && now >= t_window) {
      measuring = true;
      at_window = engine->metrics().Read();
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < kInFlight; });
      ++outstanding;
    }
    Slot& s = slots.emplace_back();
    s.facility = static_cast<FacilityId>(zipf.NextZipf(nf, kZipfS));
    s.in_window = measuring;
    if (spans->enabled() && slots.size() % 2 == 0) {
      s.trace = std::make_shared<runtime::TraceContext>("so", s.facility);
    }
    s.sent_ns = runtime::NowNs();
    engine->SubmitAsync(runtime::QueryRequest::ServiceValue(s.facility),
                        s.trace,
                        [&s, &mu, &cv, &outstanding](runtime::QueryResponse r) {
                          s.value = r.value;
                          s.ok = r.status.ok();
                          s.done_ns = runtime::NowNs();
                          {
                            std::lock_guard<std::mutex> lock(mu);
                            --outstanding;
                          }
                          cv.notify_one();
                        },
                        /*start_ns=*/0);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  const uint64_t t_done = runtime::NowNs();
  const runtime::MetricsView at_end = engine->metrics().Read();
  const std::vector<runtime::Trace> engine_traces =
      engine->tracer().Recent(128);
  // Joins the pool: no callback can still touch `mu`, `cv` or the slots.
  engine.reset();

  uint64_t i = 0;
  for (const Slot& s : slots) {
    if (s.ok) {
      checker.Expect(Checker::Close(s.value, want_so[s.facility]),
                     "engine_zipf SO", s.value, want_so[s.facility]);
    }
    if (s.trace) {
      const int64_t id = spans->Add("so", i, -1, s.sent_ns, s.done_ns);
      AddEngineSpans(spans, id, i, *s.trace);
    }
    ++i;
    if (!s.in_window) continue;
    ++result.attempted;
    if (!s.ok) {
      ++result.failed;
      continue;
    }
    const double ms = static_cast<double>(s.done_ns - s.sent_ns) / 1e6;
    result.latency_ms[kSO].push_back(ms);
    if (spans->enabled()) {
      (s.trace ? result.so_traced_ms : result.so_untraced_ms).push_back(ms);
    }
  }
  result.window_s = static_cast<double>(t_done - t_window) / 1e9;
  result.checked = checker.checked();
  result.wrong = checker.failures();

  const WindowDelta delta(at_window, at_end);
  AddDeploymentLayerMetrics(delta, engine_traces,
                            static_cast<double>(result.attempted),
                            &result.layer);
  RecordEngine(spans, "engine", engine_traces, delta, at_end);
  return result;
}

}  // namespace tq::bl
