#include <future>
#include <utility>

#include "datagen/presets.h"
#include "workloads.h"

namespace tq::bl {

std::unique_ptr<Dataset> NytDataset(size_t routes) {
  auto data = std::make_unique<Dataset>();
  data->users = presets::NytTrips(kNytUsers);
  data->facilities = presets::NyBusRoutes(routes, kStops);
  data->model = ServiceModel::Endpoints(kPsi);
  data->oracle_model = OracleModel::kEndpoints;
  return data;
}

std::unique_ptr<Dataset> NyfDataset(size_t routes) {
  auto data = std::make_unique<Dataset>();
  data->users = presets::NyfCheckins(kNyfUsers);
  data->facilities = presets::NyBusRoutes(routes, kStops);
  data->model = ServiceModel::PointCount(kPsi, Normalization::kPerUser);
  data->oracle_model = OracleModel::kPointsPerUser;
  return data;
}

TQTreeOptions TreeOptions(const ServiceModel& model) {
  TQTreeOptions options;
  options.beta = kBeta;
  options.mode = TrajMode::kWhole;
  options.variant = IndexVariant::kZOrder;
  options.model = model;
  return options;
}

runtime::QueryResponse Call(runtime::ServingEngine& engine,
                            runtime::QueryRequest request,
                            runtime::TraceContextPtr trace,
                            uint64_t* done_ns) {
  std::promise<runtime::QueryResponse> promise;
  std::future<runtime::QueryResponse> future = promise.get_future();
  engine.SubmitAsync(
      request, std::move(trace),
      [&promise, done_ns](runtime::QueryResponse r) {
        if (done_ns != nullptr) *done_ns = runtime::NowNs();
        promise.set_value(std::move(r));
      },
      /*start_ns=*/0);
  return future.get();
}

void AddDeploymentLayerMetrics(const WindowDelta& d,
                               const std::vector<runtime::Trace>& traces,
                               double ops, MetricList* out) {
  const auto get = [&d](const char* name) {
    const double v = d.Get(name);
    return v < 0.0 ? 0.0 : v;  // a removed counter reads as idle here
  };
  const auto us_at = [&d](runtime::OpFamily f, double p) {
    return static_cast<double>(d.histogram(f).Percentile(p)) / 1e3;
  };
  // Mean duration of the server's decode / encode spans (1 frame in 32).
  const auto span_us = [&traces](const char* name) {
    double total = 0.0, n = 0.0;
    for (const runtime::Trace& t : traces) {
      for (const runtime::Trace::Span& s : t.spans) {
        if (s.name != name) continue;
        total += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
        ++n;
      }
    }
    return Ratio(total, n);
  };
  const double publishes = get("snapshots_published");
  const double checkpoints = get("checkpoints");
  const double frames = get("net_requests_decoded");
  const double evaluated = get("facilities_evaluated");
  out->Add("cache.hit_rate",
           Ratio(get("cache_hits"), get("cache_hits") + get("cache_misses")),
           "ratio");
  out->Add("cache.evictions_per_query", Ratio(get("cache_evictions"), ops),
           "count");
  out->Add("cache.invalidated_per_publish",
           Ratio(get("cache_invalidated"), publishes), "count");
  out->Add("runtime.shard_tasks_per_query", Ratio(get("shard_tasks"), ops),
           "count");
  out->Add("runtime.exact_checks_per_query", Ratio(get("exact_checks"), ops),
           "count");
  out->Add("runtime.topk_eval_fraction",
           Ratio(evaluated, evaluated + get("facilities_pruned")), "ratio");
  out->Add("runtime.topk_prune_rounds",
           Ratio(get("prune_rounds"), get("topk_queries")), "count");
  out->Add("runtime.shards_per_publish",
           Ratio(get("shard_publishes"), publishes), "count");
  // Queue wait and shard tasks are sampled 1 in 32 by the engine.
  out->Add("runtime.queue_wait_p50_us",
           us_at(runtime::OpFamily::kQueueWait, 0.5), "us");
  out->Add("runtime.queue_wait_p99_us",
           us_at(runtime::OpFamily::kQueueWait, 0.99), "us");
  out->Add("runtime.shard_task_us",
           d.histogram(runtime::OpFamily::kShardTask).MeanNs() / 1e3, "us");
  out->Add("runtime.publish_ms",
           d.histogram(runtime::OpFamily::kPublish).MeanNs() / 1e6, "ms");
  out->Add("tqtree.nodes_copied_per_publish",
           Ratio(get("nodes_copied"), publishes), "count");
  out->Add("tqtree.pages_shared_per_publish",
           Ratio(get("pages_shared"), publishes), "count");
  out->Add("net.bytes_in_per_frame", Ratio(get("net_bytes_in"), frames), "B");
  out->Add("net.bytes_out_per_frame", Ratio(get("net_bytes_out"), frames),
           "B");
  out->Add("net.paused", get("net_paused_connections"), "count");
  out->Add("net.frame_p50_us", us_at(runtime::OpFamily::kNetFrame, 0.5), "us");
  out->Add("net.frame_p99_us", us_at(runtime::OpFamily::kNetFrame, 0.99),
           "us");
  out->Add("net.decode_us", span_us("decode"), "us");
  out->Add("net.encode_us", span_us("encode"), "us");
  out->Add("storage.checkpoints", checkpoints, "count");
  out->Add("storage.pages_reclaimed_per_checkpoint",
           Ratio(get("pages_reclaimed"), checkpoints), "count");
}

}  // namespace tq::bl
