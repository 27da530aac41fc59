// Shared harness utilities for the per-figure benchmark binaries.
//
// Every binary prints (a) an aligned human-readable table mirroring the
// paper's figure series and (b) machine-readable "# csv:" lines.
//
// Environment knobs:
//   REPRO_FULL=1    — run at the paper's full workload sizes (Table III).
//   REPRO_SCALE=x   — explicit workload scale factor (default 0.1).
//   REPRO_REPS=n    — query repetitions per measurement (default 5; the
//                     paper averages 100 query sets).
#ifndef TQCOVER_BENCH_BENCH_UTIL_H_
#define TQCOVER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/presets.h"
#include "quadtree/point_quadtree.h"
#include "query/baseline.h"
#include "query/topk.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "tqtree/tq_tree.h"

namespace tq::bench {

/// Global benchmark configuration from the environment.
struct BenchEnv {
  double scale = 0.1;
  size_t reps = 5;
  bool full = false;

  static BenchEnv FromEnv() {
    BenchEnv env;
    if (const char* f = std::getenv("REPRO_FULL"); f && f[0] == '1') {
      env.full = true;
      env.scale = 1.0;
    }
    if (const char* s = std::getenv("REPRO_SCALE")) {
      env.scale = std::atof(s);
      if (env.scale <= 0) env.scale = 0.1;
    }
    if (const char* r = std::getenv("REPRO_REPS")) {
      env.reps = static_cast<size_t>(std::atoi(r));
      if (env.reps == 0) env.reps = 1;
    }
    return env;
  }

  /// Table III defaults (bold values), scaled.
  size_t DefaultUsers() const {
    return static_cast<size_t>(357139 * scale);  // NYT, 1 day
  }
  size_t DefaultFacilities() const { return 128; }
  size_t DefaultStops() const { return 64; }
  size_t DefaultK() const { return 8; }
  double DefaultPsi() const { return 200.0; }
  size_t DefaultBeta() const { return 64; }
};

/// One fully-built workload: users + facilities + all three indexes.
/// The trajectory sets live behind unique_ptr so the evaluator/catalog/tree
/// pointers into them stay valid when a Workload itself is moved.
struct Workload {
  std::unique_ptr<TrajectorySet> users;
  std::unique_ptr<TrajectorySet> facilities;
  ServiceModel model;
  std::unique_ptr<ServiceEvaluator> eval;
  std::unique_ptr<FacilityCatalog> catalog;
  std::unique_ptr<PointQuadtree> bl_index;
  std::unique_ptr<TQTree> tq_basic;
  std::unique_ptr<TQTree> tq_z;
  double build_bl_s = 0, build_basic_s = 0, build_z_s = 0;
};

enum class BuildWhat : unsigned {
  kBaseline = 1,
  kBasic = 2,
  kZOrder = 4,
  kAll = 7,
};
inline bool Has(BuildWhat set, BuildWhat bit) {
  return (static_cast<unsigned>(set) & static_cast<unsigned>(bit)) != 0;
}

/// Builds the indexes for a given user/facility pair.
inline Workload BuildWorkload(TrajectorySet users, TrajectorySet facilities,
                              const ServiceModel& model, size_t beta,
                              TrajMode mode = TrajMode::kWhole,
                              BuildWhat what = BuildWhat::kAll) {
  Workload w;
  w.users = std::make_unique<TrajectorySet>(std::move(users));
  w.facilities = std::make_unique<TrajectorySet>(std::move(facilities));
  w.model = model;
  w.eval = std::make_unique<ServiceEvaluator>(w.users.get(), model);
  w.catalog =
      std::make_unique<FacilityCatalog>(w.facilities.get(), model.psi);
  if (Has(what, BuildWhat::kBaseline)) {
    Timer t;
    w.bl_index = std::make_unique<PointQuadtree>(
        w.users->BoundingBox().Expanded(1.0), 128);
    w.bl_index->InsertAll(*w.users);
    w.build_bl_s = t.ElapsedSeconds();
  }
  TQTreeOptions opt;
  opt.beta = beta;
  opt.mode = mode;
  opt.model = model;
  if (Has(what, BuildWhat::kBasic)) {
    Timer t;
    opt.variant = IndexVariant::kBasic;
    w.tq_basic = std::make_unique<TQTree>(w.users.get(), opt);
    w.build_basic_s = t.ElapsedSeconds();
  }
  if (Has(what, BuildWhat::kZOrder)) {
    Timer t;
    opt.variant = IndexVariant::kZOrder;
    w.tq_z = std::make_unique<TQTree>(w.users.get(), opt);
    w.build_z_s = t.ElapsedSeconds();
  }
  return w;
}

/// Average seconds over `reps` runs of `fn`.
template <typename Fn>
double TimeAvgSeconds(size_t reps, Fn&& fn) {
  Timer t;
  for (size_t i = 0; i < reps; ++i) fn();
  return t.ElapsedSeconds() / static_cast<double>(reps);
}

/// Section banner.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Aligned row of label + seconds columns, mirrored as a csv comment.
inline void PrintTimeRow(const std::string& x_label,
                         const std::vector<std::string>& series,
                         const std::vector<double>& seconds) {
  std::printf("%-14s", x_label.c_str());
  for (const double s : seconds) std::printf(" %12.6f", s);
  std::printf("\n");
  std::printf("# csv:%s", x_label.c_str());
  for (size_t i = 0; i < series.size(); ++i) {
    std::printf(",%s=%.9f", series[i].c_str(), seconds[i]);
  }
  std::printf("\n");
}

inline void PrintSeriesHeader(const std::vector<std::string>& series) {
  std::printf("%-14s", "x");
  for (const auto& s : series) std::printf(" %12s", s.c_str());
  std::printf("\n");
}

}  // namespace tq::bench

#endif  // TQCOVER_BENCH_BENCH_UTIL_H_
