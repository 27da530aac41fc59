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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geom/distance.h"
#include "common/simd.h"
#include "common/timer.h"
#include "datagen/presets.h"
#include "quadtree/point_quadtree.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
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

// Catalog-scale probe: NYT endpoints against the 2,024-route NY bus catalog
// (64 stops a route, ψ = 200 m), route by route as an SO query probes one
// facility for many users: each route's grid against every endpoint its
// EMBR holds. Unlike the single-grid pair above, whose grid stays
// cache-resident, the grids come and go from cache over a catalog far larger
// than it. Not part of the kernel_micro series.
void BM_StopGridServesCatalog(benchmark::State& state) {
  const TrajectorySet routes = presets::NyBusRoutes(2024, 64);
  const FacilityCatalog catalog(&routes, 200.0);
  const TrajectorySet trips = presets::NytTrips(1000);
  std::vector<std::pair<const StopGrid*, Point>> probes;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    for (uint32_t t = 0; t < trips.size(); ++t) {
      for (const Point& p : {trips.points(t).front(), trips.points(t).back()}) {
        if (catalog.embr(f).Contains(p)) {
          probes.push_back({&catalog.grid(f), p});
        }
      }
    }
  }
  for (auto _ : state) {
    size_t served = 0;
    for (const auto& [grid, p] : probes) served += grid->Serves(p);
    benchmark::DoNotOptimize(served);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_StopGridServesCatalog)->Unit(benchmark::kMillisecond);

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

// Interleaved timing of one kernel's three implementations: kReps rounds,
// each timing scalar and active back to back (which goes first alternates
// per round), then seed, ~20 ms apiece. A round is
// a paired sample: its times come from the same few tens of milliseconds, so
// a ratio taken within a round cancels drift (frequency steps, a
// neighbour's burst) that separately timed best-of-N runs pick up.
constexpr int kReps = 9;

// Nanoseconds per work unit of `fn` over one ~20 ms sample, after one warm
// call (the previous sample ran another implementation).
double SampleNsPerUnit(size_t units_per_call, const std::function<void()>& fn) {
  fn();
  size_t calls = 0;
  Timer t;
  do {
    fn();
    ++calls;
  } while (t.ElapsedSeconds() < 0.02);
  return t.ElapsedSeconds() * 1e9 /
         (static_cast<double>(calls) * static_cast<double>(units_per_call));
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct KernelRow {
  const char* kernel;
  // Medians of the rounds' ns per unit:
  double seed_ns;    // pre-vectorization implementation (bench-local replica)
  double scalar_ns;  // retained scalar reference on the NEW data layout
  double vector_ns;  // active (vectorized or forced-scalar) path
  // Medians of the per-round ratios (the gated numbers):
  double vector_vs_scalar;  // vector_ns / scalar_ns
  double speedup_vs_seed;   // seed_ns / vector_ns
};

KernelRow TimeKernel(const char* kernel, size_t units_per_call,
                     const std::function<void()>& seed,
                     const std::function<void()>& scalar,
                     const std::function<void()>& vector) {
  const std::function<void()>* fns[3] = {&seed, &scalar, &vector};
  std::vector<double> ns[3];
  std::vector<double> vs_scalar;
  std::vector<double> vs_seed;
  for (int rep = 0; rep < kReps; ++rep) {
    const int order[2][3] = {{1, 2, 0}, {2, 1, 0}};
    double round[3];
    for (const int which : order[rep % 2]) {
      round[which] = SampleNsPerUnit(units_per_call, *fns[which]);
    }
    for (int i = 0; i < 3; ++i) ns[i].push_back(round[i]);
    vs_scalar.push_back(round[2] / round[1]);
    vs_seed.push_back(round[0] / round[2]);
  }
  return KernelRow{kernel,        Median(ns[0]),     Median(ns[1]),
                   Median(ns[2]), Median(vs_scalar), Median(vs_seed)};
}

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
    rows.push_back(TimeKernel(
        "stopgrid_serves", w.probes.size(),
        [&] {
          size_t served = 0;
          for (const Point& p : w.probes) served += w.seed_grid.Serves(p);
          sink = served;
        },
        [&] {
          size_t served = 0;
          for (const Point& p : w.probes) served += w.grid.ServesScalar(p);
          sink = served;
        },
        [&] {
          w.grid.ServesBatch(w.probes, mask.data());
          sink = mask[0];
        }));
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
      rows.push_back(TimeKernel(
          names[s], users.size(),
          [&] {
            double total = 0.0;
            for (uint32_t u = 0; u < users.size(); ++u) {
              total += SeedEvaluate(seed_grid, users, u, models[s]);
            }
            sink = total;
          },
          [&] {
            double total = 0.0;
            for (uint32_t u = 0; u < users.size(); ++u) {
              total += eval.EvaluateScalar(u, grid);
            }
            sink = total;
          },
          [&] {
            double total = 0.0;
            for (uint32_t u = 0; u < users.size(); ++u) {
              total += eval.Evaluate(u, grid);
            }
            sink = total;
          }));
    }
  }

#if defined(TQ_SIMD_FORCE_SCALAR)
  const char* simd_path = "scalar";
#else
  const char* simd_path = "vector";
#endif
  std::printf(
      "\nkernel_micro (ns/unit, medians of %d interleaved rounds; ratios are "
      "medians of per-round ratios; active path: %s)\n",
      kReps, simd_path);
  std::printf("  %-20s %10s %10s %10s %9s %9s\n", "kernel", "seed", "scalar",
              "active", "vs_seed", "vs_scalar");
  for (const KernelRow& r : rows) {
    std::printf("  %-20s %10.2f %10.2f %10.2f %8.2fx %8.2fx\n", r.kernel,
                r.seed_ns, r.scalar_ns, r.vector_ns, r.speedup_vs_seed,
                1.0 / r.vector_vs_scalar);
  }
  std::printf("# json: {\"bench\":\"kernel_micro\",\"simd\":\"%s\","
              "\"kernels\":[",
              simd_path);
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::printf("%s{\"kernel\":\"%s\",\"seed_ns\":%.3f,\"scalar_ns\":%.3f,"
                "\"vector_ns\":%.3f,\"vector_vs_scalar_ratio\":%.4f,"
                "\"speedup_vs_seed\":%.3f,\"speedup_vs_scalar\":%.3f}",
                i == 0 ? "" : ",", r.kernel, r.seed_ns, r.scalar_ns,
                r.vector_ns, r.vector_vs_scalar, r.speedup_vs_seed,
                1.0 / r.vector_vs_scalar);
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
