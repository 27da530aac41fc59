// Service value models (§II of the paper).
//
// Scenario 1: S(u,f) = 1 iff both the source and the destination of u lie
//             within ψ of some stop point of f (binary service).
// Scenario 2: S(u,f) = scount(u,f) / |u| — fraction of u's points within ψ
//             of a stop of f (e.g. POIs a tourist can visit).
// Scenario 3: S(u,f) = slength(u,f) / length(u) — fraction of u's length
//             served; a segment is served iff both of its endpoints are
//             within ψ of a stop of f.
//
// The paper normalises scenarios 2/3 per user (S ≤ 1) but stores raw point
// counts / lengths as node upper bounds; we support both normalisations.
// The per-unit bounds behind a node's "sub" are UnitUpperBound
// (tqtree/aggregates.h); the facility bound is CellIndex::CellUpperBound.
#ifndef TQCOVER_SERVICE_MODELS_H_
#define TQCOVER_SERVICE_MODELS_H_

#include <string>

#include "geom/rect.h"
#include "traj/trajectory.h"

namespace tq {

/// Which service scenario of §II-A is being computed.
enum class Scenario {
  kEndpoints = 0,   // Scenario 1: binary source+destination service
  kPointCount = 1,  // Scenario 2: number of served points
  kLength = 2,      // Scenario 3: served trajectory length
};

/// Whether S(u,f) is divided by |u| / length(u) (paper default) or left raw.
enum class Normalization {
  kPerUser = 0,
  kNone = 1,
};

/// Immutable description of the service function in use.
struct ServiceModel {
  Scenario scenario = Scenario::kEndpoints;
  Normalization normalization = Normalization::kPerUser;
  /// Serving distance threshold ψ in metres (§II-A, Scenario 1).
  double psi = 200.0;

  static ServiceModel Endpoints(double psi) {
    return ServiceModel{Scenario::kEndpoints, Normalization::kPerUser, psi};
  }
  static ServiceModel PointCount(
      double psi, Normalization norm = Normalization::kPerUser) {
    return ServiceModel{Scenario::kPointCount, norm, psi};
  }
  static ServiceModel Length(double psi,
                             Normalization norm = Normalization::kPerUser) {
    return ServiceModel{Scenario::kLength, norm, psi};
  }

  /// True when the model only inspects a trajectory's first and last points.
  bool EndpointsOnly() const { return scenario == Scenario::kEndpoints; }

  std::string ToString() const;
};

}  // namespace tq

#endif  // TQCOVER_SERVICE_MODELS_H_
