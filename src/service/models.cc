#include "service/models.h"

#include <cstdio>

namespace tq {

std::string ServiceModel::ToString() const {
  const char* sc = scenario == Scenario::kEndpoints     ? "endpoints"
                   : scenario == Scenario::kPointCount ? "point-count"
                                                        : "length";
  const char* norm =
      normalization == Normalization::kPerUser ? "per-user" : "raw";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ServiceModel{%s, %s, psi=%.1fm}", sc, norm,
                psi);
  return buf;
}

}  // namespace tq
