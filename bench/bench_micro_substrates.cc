// Substrate micro-benchmarks (google-benchmark): the primitive operations
// whose costs the index-level results decompose into.
//
// Besides the google-benchmark table, the binary ends with one
// "# json: {"bench":"kernel_micro",...}" line measuring each vectorized
// kernel against its in-binary scalar reference (same pairs the agreement
// suite holds bit-identical). CI's kernel-regression gate parses that line:
// it fails on a ≥20% per-kernel slowdown against the committed baseline, and
// the AVX2 cell additionally asserts the ≥2× speedup acceptance bar.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

#include "common/rng.h"
#include "geom/distance.h"
#include "common/simd.h"
#include "common/timer.h"
#include "datagen/presets.h"
#include "quadtree/point_quadtree.h"
#include "service/evaluator.h"
#include "service/stop_grid.h"
#include "tqtree/aggregates.h"
#include "tqtree/tq_tree.h"
#include "zorder/cell_tree.h"
#include "zorder/zid.h"

namespace tq {
namespace {

void BM_MortonKey(benchmark::State& state) {
  const Rect w = Rect::Of(0, 0, 40000, 40000);
  Rng rng(1);
  std::vector<Point> pts;
  for (int i = 0; i < 1024; ++i) {
    pts.push_back({rng.NextUniform(0, 40000), rng.NextUniform(0, 40000)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MortonKey(w, pts[i++ & 1023]));
  }
}
BENCHMARK(BM_MortonKey);

void BM_CellTreeLocate(benchmark::State& state) {
  const Rect w = Rect::Of(0, 0, 40000, 40000);
  Rng rng(2);
  std::vector<Point> pts;
  for (int i = 0; i < 100000; ++i) {
    pts.push_back({rng.NextGaussian(20000, 4000),
                   rng.NextGaussian(20000, 4000)});
  }
  const CellTree tree(w, pts, 64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Locate(pts[i++ % pts.size()]));
  }
}
BENCHMARK(BM_CellTreeLocate);

void BM_CellTreeCoverRanges(benchmark::State& state) {
  const Rect w = Rect::Of(0, 0, 40000, 40000);
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 100000; ++i) {
    pts.push_back({rng.NextGaussian(20000, 4000),
                   rng.NextGaussian(20000, 4000)});
  }
  const CellTree tree(w, pts, 64);
  const Rect query = Rect::Of(18000, 18000, 22000, 22000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CoverRanges(query));
  }
}
BENCHMARK(BM_CellTreeCoverRanges);

// Bench-local replica of the PRE-vectorization StopGrid (the growth seed's
// implementation, verbatim modulo naming): unordered_map cell buckets, one
// hash find per 3×3 probe cell, scalar distance loop. This is the honest
// "before" of the kernel table — the per-kernel speedups CI asserts are
// measured against it, in the same binary on the same workload.
class SeedStopGrid {
 public:
  SeedStopGrid(std::span<const Point> stops, double psi)
      : stops_(stops.begin(), stops.end()), psi_(psi), inv_cell_(1.0 / psi) {
    embr_ = Rect::BoundingBox(stops_).Expanded(psi_);
    cells_.reserve(stops_.size() * 2);
    for (uint32_t i = 0; i < stops_.size(); ++i) {
      cells_[CellKey(stops_[i].x, stops_[i].y)].push_back(i);
    }
  }

  bool Serves(const Point& p) const {
    if (!embr_.Contains(p)) return false;
    const double psi2 = psi_ * psi_;
    const auto cx = static_cast<int64_t>(std::floor(p.x * inv_cell_));
    const auto cy = static_cast<int64_t>(std::floor(p.y * inv_cell_));
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const int64_t key = ((cx + dx) << 32) ^ ((cy + dy) & 0xFFFFFFFFLL);
        const auto it = cells_.find(key);
        if (it == cells_.end()) continue;
        for (const uint32_t si : it->second) {
          if (DistanceSquared(p, stops_[si]) <= psi2) return true;
        }
      }
    }
    return false;
  }

 private:
  int64_t CellKey(double x, double y) const {
    const auto cx = static_cast<int64_t>(std::floor(x * inv_cell_));
    const auto cy = static_cast<int64_t>(std::floor(y * inv_cell_));
    return (cx << 32) ^ (cy & 0xFFFFFFFFLL);
  }

  std::vector<Point> stops_;
  double psi_;
  double inv_cell_;
  Rect embr_;
  std::unordered_map<int64_t, std::vector<uint32_t>> cells_;
};

// Shared probe workload for the StopGrid kernel pair: points concentrated in
// the route's serving corridor (uniform over the EMBR) — the regime the
// kernels exist for. Candidates that reach the exact check have already
// passed index pruning, so they cluster near the facility; far-away points
// die in the 4-wide rect prefilter and cost almost nothing either way.
struct ServesWorkload {
  TrajectorySet routes = presets::NyBusRoutes(1, 64);
  StopGrid grid{routes.points(0), 200.0};
  SeedStopGrid seed_grid{routes.points(0), 200.0};
  std::vector<Point> probes;

  ServesWorkload() {
    Rng rng(4);
    const Rect embr = grid.embr();
    for (int i = 0; i < 4096; ++i) {
      probes.push_back({rng.NextUniform(embr.min_x, embr.max_x),
                        rng.NextUniform(embr.min_y, embr.max_y)});
    }
  }
};

void BM_StopGridServesScalar(benchmark::State& state) {
  const ServesWorkload w;
  for (auto _ : state) {
    size_t served = 0;
    for (const Point& p : w.probes) served += w.grid.ServesScalar(p);
    benchmark::DoNotOptimize(served);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.probes.size()));
}
BENCHMARK(BM_StopGridServesScalar);

void BM_StopGridServesBatch(benchmark::State& state) {
  const ServesWorkload w;
  std::vector<uint64_t> mask((w.probes.size() + 63) / 64);
  for (auto _ : state) {
    w.grid.ServesBatch(w.probes, mask.data());
    benchmark::DoNotOptimize(mask.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.probes.size()));
}
BENCHMARK(BM_StopGridServesBatch);

// Exact service evaluation per scenario, NYF users vs one route grid — the
// inner loop of every query algorithm. Scenario 1 = endpoint probes,
// 2 = point count, 3 = served length.
template <int kScenario>
void BM_EvaluateScenario(benchmark::State& state) {
  const TrajectorySet users = presets::NyfCheckins(2000);
  const TrajectorySet routes = presets::NyBusRoutes(1, 64);
  const ServiceModel model = kScenario == 1   ? ServiceModel::Endpoints(400.0)
                             : kScenario == 2 ? ServiceModel::PointCount(400.0)
                                              : ServiceModel::Length(400.0);
  const ServiceEvaluator eval(&users, model);
  const StopGrid grid(routes.points(0), model.psi);
  for (auto _ : state) {
    double total = 0.0;
    for (uint32_t u = 0; u < users.size(); ++u) {
      total += eval.Evaluate(u, grid);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(users.size()));
}
void BM_EvaluateScenario1(benchmark::State& state) {
  BM_EvaluateScenario<1>(state);
}
void BM_EvaluateScenario2(benchmark::State& state) {
  BM_EvaluateScenario<2>(state);
}
void BM_EvaluateScenario3(benchmark::State& state) {
  BM_EvaluateScenario<3>(state);
}
BENCHMARK(BM_EvaluateScenario1);
BENCHMARK(BM_EvaluateScenario2);
BENCHMARK(BM_EvaluateScenario3);

void BM_PointQuadtreeDiskQuery(benchmark::State& state) {
  const TrajectorySet users = presets::NytTrips(50000);
  PointQuadtree pq(users.BoundingBox().Expanded(1.0), 128);
  pq.InsertAll(users);
  Rng rng(5);
  std::vector<Point> centers;
  for (int i = 0; i < 256; ++i) {
    centers.push_back({rng.NextUniform(0, 40000), rng.NextUniform(0, 40000)});
  }
  size_t i = 0;
  for (auto _ : state) {
    size_t count = 0;
    pq.ForEachInDisk(centers[i++ & 255], 200.0,
                     [&count](const PointEntry&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PointQuadtreeDiskQuery);

void BM_TQTreeInsert(benchmark::State& state) {
  const TrajectorySet users = presets::NytTrips(50000);
  TQTreeOptions opt;
  opt.beta = 64;
  opt.model = ServiceModel::Endpoints(200.0);
  TQTree tree(&users, opt);
  uint32_t u = 0;
  for (auto _ : state) {
    // Steady-state churn: remove + re-insert keeps the tree size constant.
    tree.Remove(u % users.size());
    tree.Insert(u % users.size());
    ++u;
  }
}
BENCHMARK(BM_TQTreeInsert);

void BM_ZIndexRebuild(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const TrajectorySet users = presets::NytTrips(n);
  std::vector<TrajEntry> entries;
  const ServiceModel model = ServiceModel::Endpoints(200.0);
  for (uint32_t i = 0; i < users.size(); ++i) {
    entries.push_back(MakeWholeEntry(users, i, model));
  }
  const Rect w = users.BoundingBox().Expanded(1.0);
  for (auto _ : state) {
    const ZIndex zi(w, entries, 64, ZPruneMode::kStartEnd);
    benchmark::DoNotOptimize(zi.num_buckets());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ZIndexRebuild)->Arg(1000)->Arg(10000);

// ------------------------------------------------------------------------
// kernel_micro series: fixed-workload wall-clock timing of each vectorized
// kernel against its scalar reference, emitted as one machine-readable line.
// Deliberately independent of google-benchmark's reporter so the CI gate
// parses a stable format (same "# json:" convention as the other binaries).

// Best-of-3 timing of `fn`, each rep running `fn` until ≥ 50 ms elapsed.
// Returns nanoseconds per work unit.
template <typename Fn>
double TimeNsPerUnit(size_t units_per_call, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    fn();  // warm caches, fault pages
    size_t calls = 0;
    Timer t;
    do {
      fn();
      ++calls;
    } while (t.ElapsedSeconds() < 0.05);
    const double ns =
        t.ElapsedSeconds() * 1e9 / (static_cast<double>(calls) * units_per_call);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

struct KernelRow {
  const char* kernel;
  double seed_ns;    // pre-vectorization implementation (bench-local replica);
                     // 0 when no faithful seed replica exists for the kernel
  double scalar_ns;  // retained scalar reference on the NEW data layout
  double vector_ns;  // active (vectorized or forced-scalar) path
};

// Seed-replica evaluation loop: the pre-PR ServiceEvaluator bodies called
// grid.Serves(p) per point on the unordered_map grid.
double SeedEvaluate(const SeedStopGrid& grid, const TrajectorySet& users,
                    uint32_t user, const ServiceModel& model) {
  const auto pts = users.points(user);
  switch (model.scenario) {
    case Scenario::kEndpoints:
      return grid.Serves(pts.front()) && grid.Serves(pts.back()) ? 1.0 : 0.0;
    case Scenario::kPointCount: {
      size_t count = 0;
      for (const Point& p : pts) count += grid.Serves(p);
      const auto n = static_cast<double>(pts.size());
      return model.normalization == Normalization::kPerUser
                 ? static_cast<double>(count) / n
                 : static_cast<double>(count);
    }
    case Scenario::kLength: {
      double served = 0.0;
      for (size_t i = 0; i + 1 < pts.size(); ++i) {
        if (grid.Serves(pts[i]) && grid.Serves(pts[i + 1])) {
          served += Distance(pts[i], pts[i + 1]);
        }
      }
      if (model.normalization == Normalization::kPerUser) {
        const double len = users.length(user);
        return len > 0.0 ? served / len : 0.0;
      }
      return served;
    }
  }
  return 0.0;
}

void EmitKernelMicroJson() {
  std::vector<KernelRow> rows;

  {  // StopGrid point-serve: seed map-probe vs scalar-reference vs batch.
    const ServesWorkload w;
    std::vector<uint64_t> mask((w.probes.size() + 63) / 64);
    volatile size_t sink = 0;
    const double seed_ns = TimeNsPerUnit(w.probes.size(), [&] {
      size_t served = 0;
      for (const Point& p : w.probes) served += w.seed_grid.Serves(p);
      sink = served;
    });
    const double scalar_ns = TimeNsPerUnit(w.probes.size(), [&] {
      size_t served = 0;
      for (const Point& p : w.probes) served += w.grid.ServesScalar(p);
      sink = served;
    });
    const double vector_ns = TimeNsPerUnit(w.probes.size(), [&] {
      w.grid.ServesBatch(w.probes, mask.data());
      sink = mask[0];
    });
    rows.push_back({"stopgrid_serves", seed_ns, scalar_ns, vector_ns});
  }

  {  // Exact evaluation, all three scenarios over the same NYF users.
    const TrajectorySet users = presets::NyfCheckins(2000);
    const TrajectorySet routes = presets::NyBusRoutes(1, 64);
    const ServiceModel models[3] = {ServiceModel::Endpoints(400.0),
                                    ServiceModel::PointCount(400.0),
                                    ServiceModel::Length(400.0)};
    const char* names[3] = {"evaluate_s1", "evaluate_s2", "evaluate_s3"};
    volatile double sink = 0.0;
    for (int s = 0; s < 3; ++s) {
      const ServiceEvaluator eval(&users, models[s]);
      const StopGrid grid(routes.points(0), models[s].psi);
      const SeedStopGrid seed_grid(routes.points(0), models[s].psi);
      const double seed_ns = TimeNsPerUnit(users.size(), [&] {
        double total = 0.0;
        for (uint32_t u = 0; u < users.size(); ++u) {
          total += SeedEvaluate(seed_grid, users, u, models[s]);
        }
        sink = total;
      });
      const double scalar_ns = TimeNsPerUnit(users.size(), [&] {
        double total = 0.0;
        for (uint32_t u = 0; u < users.size(); ++u) {
          total += eval.EvaluateScalar(u, grid);
        }
        sink = total;
      });
      const double vector_ns = TimeNsPerUnit(users.size(), [&] {
        double total = 0.0;
        for (uint32_t u = 0; u < users.size(); ++u) {
          total += eval.Evaluate(u, grid);
        }
        sink = total;
      });
      rows.push_back({names[s], seed_ns, scalar_ns, vector_ns});
    }
  }

#if defined(TQ_SIMD_FORCE_SCALAR)
  const char* simd_path = "scalar";
#else
  const char* simd_path = "vector";
#endif
  std::printf("\nkernel_micro (ns/unit, best of 3; active path: %s)\n",
              simd_path);
  std::printf("  %-20s %10s %10s %10s %9s %9s\n", "kernel", "seed", "scalar",
              "active", "vs_seed", "vs_scalar");
  for (const KernelRow& r : rows) {
    std::printf("  %-20s %10.2f %10.2f %10.2f %8.2fx %8.2fx\n", r.kernel,
                r.seed_ns, r.scalar_ns, r.vector_ns,
                r.vector_ns > 0 ? r.seed_ns / r.vector_ns : 0.0,
                r.vector_ns > 0 ? r.scalar_ns / r.vector_ns : 0.0);
  }
  std::printf("# json: {\"bench\":\"kernel_micro\",\"simd\":\"%s\","
              "\"kernels\":[",
              simd_path);
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::printf("%s{\"kernel\":\"%s\",\"seed_ns\":%.3f,\"scalar_ns\":%.3f,"
                "\"vector_ns\":%.3f,\"speedup_vs_seed\":%.3f,"
                "\"speedup_vs_scalar\":%.3f}",
                i == 0 ? "" : ",", r.kernel, r.seed_ns, r.scalar_ns,
                r.vector_ns, r.vector_ns > 0 ? r.seed_ns / r.vector_ns : 0.0,
                r.vector_ns > 0 ? r.scalar_ns / r.vector_ns : 0.0);
  }
  std::printf("]}\n");
}

}  // namespace
}  // namespace tq

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tq::EmitKernelMicroJson();
  return 0;
}
