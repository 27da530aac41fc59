// Bit-identity agreement suite for the vectorized service-value kernels
// (common/simd.h and everything built on it).
//
// Every vectorized path in the engine retains its scalar reference in the
// same binary: simd::* vs simd::scalar::*, StopGrid::Serves/ServesBatch vs
// ServesScalar, and ServiceEvaluator::Evaluate/EvaluateDetail vs the *Scalar
// twins. These tests hold each pair bit-for-bit equal — EXPECT_EQ on the raw
// double bits, never a tolerance —
// across scenarios × normalizations × edge shapes (1-point and 2-point
// trajectories, segment scenarios on length-<2 inputs, spans crossing and
// not crossing 64-bit mask words, exact ψ-threshold distances). The suite runs in every CI cell: baseline,
// -march=x86-64-v3, forced-scalar (-DTQ_SIMD=scalar), ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "datagen/presets.h"
#include "geom/distance.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "service/facility_index.h"
#include "service/evaluator.h"
#include "service/models.h"
#include "service/stop_grid.h"
#include "tqtree/tq_tree.h"

namespace tq {
namespace {

#define EXPECT_BIT_EQ(a, b)                        \
  EXPECT_EQ(std::bit_cast<uint64_t>(double{(a)}),  \
            std::bit_cast<uint64_t>(double{(b)}))  \
      << "values: " << (a) << " vs " << (b)

std::vector<ServiceModel> AllModels(double psi) {
  std::vector<ServiceModel> models;
  models.push_back(ServiceModel::Endpoints(psi));
  for (const auto norm : {Normalization::kPerUser, Normalization::kNone}) {
    models.push_back(ServiceModel::PointCount(psi, norm));
    models.push_back(ServiceModel::Length(psi, norm));
  }
  return models;
}

// Users with deliberately awkward shapes: 1 point (MaskSize 0 under
// kLength), 2 points, a few dozen, exactly 64, 65 (mask spills into a second
// word), and 130 (tail bits past 64-alignment in the third word).
TrajectorySet EdgeShapeUsers(uint64_t seed) {
  Rng rng(seed);
  TrajectorySet users;
  for (const size_t n : {1u, 2u, 3u, 5u, 31u, 64u, 65u, 130u}) {
    std::vector<Point> pts;
    Point p{rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)};
    for (size_t i = 0; i < n; ++i) {
      pts.push_back(p);
      p.x += rng.NextUniform(-120, 120);
      p.y += rng.NextUniform(-120, 120);
    }
    users.Add(pts);
  }
  return users;
}

std::vector<Point> RandomStops(Rng& rng, size_t n) {
  std::vector<Point> stops;
  for (size_t i = 0; i < n; ++i) {
    stops.push_back({rng.NextUniform(0, 5000), rng.NextUniform(0, 5000)});
  }
  return stops;
}

TEST(SimdKernels, LanePredicatesAgreeWithScalarReference) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    double pts[8];
    for (int i = 0; i < 4; ++i) {
      pts[2 * i] = rng.NextUniform(-100, 100);
      pts[2 * i + 1] = rng.NextUniform(-100, 100);
    }
    const double min_x = rng.NextUniform(-100, 50);
    const double min_y = rng.NextUniform(-100, 50);
    const double max_x = min_x + rng.NextUniform(0, 100);
    const double max_y = min_y + rng.NextUniform(0, 100);
    EXPECT_EQ(simd::LanesInRect(pts, min_x, min_y, max_x, max_y),
              simd::scalar::LanesInRect(pts, min_x, min_y, max_x, max_y));
  }
}

TEST(SimdKernels, LanePredicatesAgreeAtExactThreshold) {
  // Points on the closed rect's edges are in; one ulp outside is out.
  const double edge[8] = {0.0, 5.0, 10.0, 5.0, std::nextafter(0.0, -1.0),
                          5.0, 5.0, std::nextafter(10.0, 11.0)};
  EXPECT_EQ(simd::LanesInRect(edge, 0.0, 0.0, 10.0, 10.0), 0b0011u);
  EXPECT_EQ(simd::scalar::LanesInRect(edge, 0.0, 0.0, 10.0, 10.0), 0b0011u);
}

TEST(SimdKernels, ServesAndBatchAgreeWithScalarAcrossShapes) {
  Rng rng(11);
  for (const double psi : {40.0, 150.0, 600.0}) {
    const StopGrid grid(RandomStops(rng, 80), psi);
    // Span lengths around every boundary the mask code cares about: lane
    // remainders (mod 4) and word boundaries (mod 64).
    for (const size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 130u}) {
      std::vector<Point> probes;
      for (size_t i = 0; i < n; ++i) {
        probes.push_back(
            {rng.NextUniform(-200, 5200), rng.NextUniform(-200, 5200)});
      }
      std::vector<uint64_t> mask((n + 63) / 64 + 1, ~uint64_t{0});
      grid.ServesBatch(probes, mask.data());
      for (size_t i = 0; i < n; ++i) {
        const bool batch_bit = (mask[i >> 6] >> (i & 63)) & 1;
        EXPECT_EQ(grid.Serves(probes[i]), grid.ServesScalar(probes[i]));
        EXPECT_EQ(batch_bit, grid.ServesScalar(probes[i]))
            << "point " << i << " of " << n;
      }
      // Tail bits at and beyond n must be zeroed, not leaked.
      for (size_t i = n; i < ((n + 63) / 64) * 64; ++i) {
        EXPECT_EQ((mask[i >> 6] >> (i & 63)) & 1, 0u) << "tail bit " << i;
      }
    }
  }
}

TEST(SimdKernels, ServesBatchExactThresholdPoint) {
  // A probe exactly ψ from the only stop: served under <=, and every path
  // must agree on it.
  const std::vector<Point> stops = {{1000.0, 1000.0}};
  const StopGrid grid(stops, 5.0);
  const std::vector<Point> probes = {
      {1003.0, 1004.0},                            // d² = 25 = ψ² exactly
      {std::nextafter(1003.0, 1004.0), 1004.0},    // one ulp outside
      {1003.0, std::nextafter(1004.0, 1000.0)},    // inside
      {1000.0, 1000.0},
  };
  uint64_t mask = ~uint64_t{0};
  grid.ServesBatch(probes, &mask);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(((mask >> i) & 1) != 0, grid.ServesScalar(probes[i])) << i;
    EXPECT_EQ(grid.Serves(probes[i]), grid.ServesScalar(probes[i])) << i;
  }
  EXPECT_TRUE(grid.ServesScalar(probes[0]));
  EXPECT_FALSE(grid.ServesScalar(probes[1]));
}

TEST(SimdKernels, EvaluateAgreesBitForBitAcrossModels) {
  const TrajectorySet users = EdgeShapeUsers(23);
  Rng rng(29);
  for (const double psi : {60.0, 200.0}) {
    const StopGrid grid(RandomStops(rng, 50), psi);
    for (const ServiceModel& model : AllModels(psi)) {
      const ServiceEvaluator eval(&users, model);
      for (uint32_t u = 0; u < users.size(); ++u) {
        EXPECT_BIT_EQ(eval.Evaluate(u, grid), eval.EvaluateScalar(u, grid))
            << "user " << u << " model " << model.ToString();
      }
    }
  }
}

TEST(SimdKernels, EvaluateDetailMasksIdenticalAndConsistent) {
  const TrajectorySet users = EdgeShapeUsers(31);
  Rng rng(37);
  for (const double psi : {60.0, 200.0}) {
    const StopGrid grid(RandomStops(rng, 50), psi);
    for (const ServiceModel& model : AllModels(psi)) {
      const ServiceEvaluator eval(&users, model);
      for (uint32_t u = 0; u < users.size(); ++u) {
        const ServeDetail batch = eval.EvaluateDetail(u, grid);
        const ServeDetail scalar = eval.EvaluateDetailScalar(u, grid);
        EXPECT_EQ(batch.mask, scalar.mask)
            << "user " << u << " model " << model.ToString();
        EXPECT_EQ(batch.mask.size(), eval.MaskSize(u));
        // The mask must reproduce the direct evaluation exactly.
        EXPECT_BIT_EQ(eval.ValueOfMask(u, batch.mask), eval.Evaluate(u, grid))
            << "user " << u << " model " << model.ToString();
      }
    }
  }
}

// The span forms write and read raw mask words in caller storage; they must
// reproduce the scalar detail and the per-bit mask valuation bit for bit.
TEST(SimdKernels, SpanDetailAndValueAgreeWithScalar) {
  const TrajectorySet users = EdgeShapeUsers(43);
  Rng rng(47);
  // Per-bit reference valuation: the ascending walk over every mask bit.
  const auto reference_value = [&users](const ServiceModel& model,
                                        uint32_t u, const DynamicBitset& m) {
    const auto pts = users.points(u);
    switch (model.scenario) {
      case Scenario::kEndpoints:
        return (m.Test(0) && m.Test(pts.size() - 1)) ? 1.0 : 0.0;
      case Scenario::kPointCount: {
        const auto served = static_cast<double>(m.Count());
        return model.normalization == Normalization::kPerUser
                   ? served / static_cast<double>(pts.size())
                   : served;
      }
      case Scenario::kLength: {
        double len = 0.0;
        for (size_t i = 0; i + 1 < pts.size(); ++i) {
          if (m.Test(i)) len += Distance(pts[i], pts[i + 1]);
        }
        if (model.normalization == Normalization::kNone) return len;
        const double total = users.length(u);
        return total > 0.0 ? len / total : 0.0;
      }
    }
    return -1.0;
  };
  for (const double psi : {60.0, 200.0}) {
    const StopGrid grid(RandomStops(rng, 50), psi);
    for (const ServiceModel& model : AllModels(psi)) {
      const ServiceEvaluator eval(&users, model);
      for (uint32_t u = 0; u < users.size(); ++u) {
        SCOPED_TRACE("user " + std::to_string(u) + " " + model.ToString());
        const ServeDetail scalar = eval.EvaluateDetailScalar(u, grid);
        ASSERT_EQ(eval.MaskWords(u), scalar.mask.NumWords());
        // Garbage in the caller's words must not leak into the detail.
        std::vector<uint64_t> words(eval.MaskWords(u), ~uint64_t{0});
        eval.EvaluateDetail(u, grid, words);
        EXPECT_TRUE(std::equal(words.begin(), words.end(),
                               scalar.mask.WordData()));
        EXPECT_BIT_EQ(eval.ValueOfMask(u, std::span<const uint64_t>(words)),
                      reference_value(model, u, scalar.mask));
        // Arbitrary masks, not only the ones a grid produces.
        for (int trial = 0; trial < 8; ++trial) {
          DynamicBitset m(eval.MaskSize(u));
          for (size_t i = 0; i < m.size(); ++i) {
            if (rng.NextBernoulli(0.5)) m.Set(i);
          }
          if (m.empty()) continue;
          const std::span<const uint64_t> raw(m.WordData(), m.NumWords());
          EXPECT_BIT_EQ(eval.ValueOfMask(u, raw),
                        reference_value(model, u, m));
          EXPECT_BIT_EQ(eval.ValueOfMask(u, m), eval.ValueOfMask(u, raw));
        }
      }
    }
  }
}

// Read-only concurrency over the shared frozen structures — the shape the
// sharded engine runs the kernels and its bound sweep in. TSan runs this
// suite in CI; any hidden shared mutable state in the batch paths or in the
// bound's scratch (cell lists, candidate masks) trips it.
// Everything a reader takes from one frozen cell index, as raw bits: per
// facility the cell bound, the candidate ids it lists and SO.
std::vector<uint64_t> CellDigest(const CellIndex& cells,
                                 const ServiceEvaluator& eval,
                                 const FacilityCatalog& catalog) {
  std::vector<uint64_t> out;
  std::vector<uint32_t> ids;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    const StopGrid& grid = catalog.grid(f);
    ids.clear();
    out.push_back(std::bit_cast<uint64_t>(cells.CellUpperBound(grid, &ids)));
    out.insert(out.end(), ids.begin(), ids.end());
    out.push_back(
        std::bit_cast<uint64_t>(EvaluateServiceCells(cells, eval, grid)));
  }
  return out;
}

// Everything a reader takes from one frozen whole tree: per facility the
// served set (users ascending, then their mask words), then the top-k ids
// and value bits.
std::vector<uint64_t> TreeDigest(TQTree* tree, const ServiceEvaluator& eval,
                                 const FacilityCatalog& catalog) {
  std::vector<uint64_t> out;
  ServedGather served;
  for (uint32_t f = 0; f < catalog.size(); ++f) {
    CollectServedTQ(tree, eval, catalog.grid(f), &served);
    std::vector<uint32_t> users = served.users();
    std::sort(users.begin(), users.end());
    for (const uint32_t u : users) {
      out.push_back(u);
      for (const uint64_t w : served.MaskOf(u)) out.push_back(w);
    }
  }
  for (const RankedFacility& r :
       TopKFacilitiesTQ(tree, catalog, eval, 3).ranked) {
    out.push_back(r.id);
    out.push_back(std::bit_cast<uint64_t>(r.value));
  }
  return out;
}

// Concurrent readers of frozen cell indexes and one frozen whole tree get a
// serial pass's bits while a writer forks an index and publishes
// Insert/Remove batches on the fork: the fork shares the index's tables,
// raster and indexed-ids bitmap and copies the raster and the bitmap on its
// first write. The indexes are per-user-normalised Scenario 2 ones, so every
// SO runs the point path (the all-points table's runs and the thread-local
// count scratch); one of them is a frozen fork with pending ids, one of them
// removed and re-inserted, so readers also evaluate pending ids in full.
TEST(SimdKernels, ConcurrentReadersAgree) {
  const TrajectorySet users = presets::NyfCheckins(200);
  const TrajectorySet routes = presets::NyBusRoutes(4, 16);
  const ServiceModel model = ServiceModel::PointCount(400.0);
  const ServiceEvaluator eval(&users, model);
  const FacilityCatalog catalog(&routes, model.psi);
  const CellIndex cells(&users, model, /*tables=*/true, AllIds(users));
  const std::unique_ptr<CellIndex> pending = cells.Fork(&users);
  for (const uint32_t u : {3u, 17u, 40u}) {
    ASSERT_TRUE(pending->Remove(u));
    pending->Insert(u);
  }
  ASSERT_TRUE(pending->Remove(41));
  pending->Freeze();
  ASSERT_EQ(pending->num_pending(), 3u);
  TQTreeOptions opt;
  opt.model = model;
  TQTree tree(&users, opt);
  ASSERT_TRUE(cells.has_tables());
  const std::vector<uint64_t> serial_cells = CellDigest(cells, eval, catalog);
  const std::vector<uint64_t> serial_pending =
      CellDigest(*pending, eval, catalog);
  const std::vector<uint64_t> serial_tree = TreeDigest(&tree, eval, catalog);
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 10; ++rep) {
        if (CellDigest(cells, eval, catalog) != serial_cells) failures[t]++;
        if (CellDigest(*pending, eval, catalog) != serial_pending) {
          failures[t]++;
        }
        if (TreeDigest(&tree, eval, catalog) != serial_tree) failures[t]++;
      }
      for (uint32_t f = 0; f < catalog.size(); ++f) {
        const StopGrid& grid = catalog.grid(f);
        for (uint32_t u = 0; u < users.size(); ++u) {
          if (std::bit_cast<uint64_t>(eval.Evaluate(u, grid)) !=
              std::bit_cast<uint64_t>(eval.EvaluateScalar(u, grid))) {
            failures[t]++;
          }
        }
      }
    });
  }
  // The writer: fork, remove, re-insert (a pending id), remove again, and
  // freeze, the way a publish does.
  for (uint32_t round = 0; round < 6; ++round) {
    std::unique_ptr<CellIndex> fork = cells.Fork(&users);
    for (uint32_t u = round; u < users.size(); u += 7) {
      EXPECT_TRUE(fork->Remove(u));
    }
    fork->Insert(round);
    EXPECT_TRUE(fork->Remove(round + 1));
    fork->Freeze();
    EXPECT_NE(CellDigest(*fork, eval, catalog), serial_cells);
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace tq
