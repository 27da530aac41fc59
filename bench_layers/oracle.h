// Brute-force service oracle for answer checks. It shares no code with
// service/, tqtree/, query/, cover/ or runtime/: who serves whom is derived
// again from the paper's definitions (a point is served by a facility when
// one of its stops lies within ψ), through a plain hash of 2ψ cells over
// every stop of every facility.
#ifndef TQCOVER_BENCH_LAYERS_ORACLE_H_
#define TQCOVER_BENCH_LAYERS_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "harness.h"
#include "traj/dataset.h"

namespace tq::bl {

/// The two service scenarios the workloads use.
enum class OracleModel {
  kEndpoints,      // Scenario 1: 1 when both endpoints are served
  kPointsPerUser,  // Scenario 2: served points / all points of the user
};

struct Contribution {
  uint32_t facility = 0;
  double value = 0.0;  // S(u, f) > 0
};

/// Every user's non-zero S(u, f) terms, in CSR layout.
struct ContributionTable {
  std::vector<uint32_t> begin{0};  // size = users + 1
  std::vector<Contribution> items;

  /// so[f] += sign * S(u, f) for every f serving trajectory `u`.
  void AddTo(uint32_t u, double sign, std::vector<double>* so) const;
};

class ServiceOracle {
 public:
  ServiceOracle(const TrajectorySet& facilities, double psi,
                OracleModel model);

  /// Facilities with a stop within ψ of `p`: ascending, no duplicates.
  void Serving(const Point& p, std::vector<uint32_t>* out) const;
  /// S(u, f) terms of every trajectory of `users`.
  ContributionTable Contributions(const TrajectorySet& users) const;
  /// SO(U, f) for every facility.
  std::vector<double> ServiceValues(const TrajectorySet& users) const;

 private:
  struct Stop {
    double x, y;
    uint32_t facility;
  };
  static int64_t CellKey(int64_t cx, int64_t cy) {
    return (cx << 32) ^ (cy & 0xFFFFFFFFLL);
  }

  double psi_;
  double cell_;
  OracleModel model_;
  size_t num_facilities_;
  std::unordered_map<int64_t, std::vector<Stop>> cells_;
};

struct OracleRank {
  uint32_t id = 0;
  double value = 0.0;
};

/// The k best facilities by (value desc, id asc).
std::vector<OracleRank> RankTopK(const std::vector<double>& so, size_t k);

/// Scenario 1 MaxkCovRST by the paper's two-step greedy: the pool is the
/// top k' = min(|F|, max(4k, 2k + 8)) facilities by SO, then k rounds each
/// add the pool member of largest marginal gain (ties to the lower id).
struct OracleCover {
  std::vector<uint32_t> chosen;
  double total = 0.0;
  size_t users_served = 0;
};
OracleCover GreedyCoverOracle(const ServiceOracle& oracle,
                              const TrajectorySet& users,
                              const std::vector<double>& so, size_t k);

/// Checks one ranked answer (elements with .id and .value) against the
/// oracle's values. `exact` for integer-valued models; otherwise values
/// must agree within 1e-9 and near-tied facilities may swap places.
template <typename Ranked>
void CheckTopK(const std::vector<Ranked>& got, const std::vector<double>& so,
               size_t k, bool exact, Checker* checker) {
  const std::vector<OracleRank> want = RankTopK(so, k);
  checker->Expect(got.size() == want.size(), "top-k answer size",
                  static_cast<double>(got.size()),
                  static_cast<double>(want.size()));
  if (got.size() != want.size()) return;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < got.size(); ++i) {
    const uint32_t id = got[i].id;
    ids.push_back(id);
    if (exact) {
      checker->Expect(id == want[i].id, "top-k facility at rank", id,
                      want[i].id);
      checker->Expect(got[i].value == want[i].value, "top-k value at rank",
                      got[i].value, want[i].value);
      continue;
    }
    const bool in_range = id < so.size();
    checker->Expect(in_range, "top-k facility id in range", id,
                    static_cast<double>(so.size()));
    if (!in_range) continue;
    checker->Expect(Checker::Close(got[i].value, so[id]),
                    "top-k value of its facility", got[i].value, so[id]);
    checker->Expect(Checker::Close(got[i].value, want[i].value),
                    "top-k value at rank", got[i].value, want[i].value);
  }
  std::sort(ids.begin(), ids.end());
  checker->Expect(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                  "top-k facilities distinct", 0, 0);
}

}  // namespace tq::bl

#endif  // TQCOVER_BENCH_LAYERS_ORACLE_H_
