#include "oracle.h"

#include <cmath>

namespace tq::bl {

void ContributionTable::AddTo(uint32_t u, double sign,
                              std::vector<double>* so) const {
  for (uint32_t i = begin[u]; i < begin[u + 1]; ++i) {
    (*so)[items[i].facility] += sign * items[i].value;
  }
}

ServiceOracle::ServiceOracle(const TrajectorySet& facilities, double psi,
                             OracleModel model)
    : psi_(psi),
      // 2ψ cells: a stop within ψ of a point is always in the point's 3×3
      // cell window, with a full cell of slack against floor() rounding.
      cell_(2.0 * psi),
      model_(model),
      num_facilities_(facilities.size()) {
  for (uint32_t f = 0; f < facilities.size(); ++f) {
    for (const Point& s : facilities.points(f)) {
      const auto cx = static_cast<int64_t>(std::floor(s.x / cell_));
      const auto cy = static_cast<int64_t>(std::floor(s.y / cell_));
      cells_[CellKey(cx, cy)].push_back(Stop{s.x, s.y, f});
    }
  }
}

void ServiceOracle::Serving(const Point& p, std::vector<uint32_t>* out) const {
  out->clear();
  const double psi2 = psi_ * psi_;
  const auto cx = static_cast<int64_t>(std::floor(p.x / cell_));
  const auto cy = static_cast<int64_t>(std::floor(p.y / cell_));
  for (int64_t dx = -1; dx <= 1; ++dx) {
    for (int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = cells_.find(CellKey(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (const Stop& s : it->second) {
        const double ex = p.x - s.x;
        const double ey = p.y - s.y;
        if (ex * ex + ey * ey <= psi2) out->push_back(s.facility);
      }
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

ContributionTable ServiceOracle::Contributions(
    const TrajectorySet& users) const {
  ContributionTable table;
  table.begin.reserve(users.size() + 1);
  std::vector<uint32_t> serving, first, all;
  for (uint32_t u = 0; u < users.size(); ++u) {
    const auto pts = users.points(u);
    if (model_ == OracleModel::kEndpoints) {
      Serving(pts.front(), &first);
      Serving(pts.back(), &serving);
      for (const uint32_t f : first) {
        if (std::binary_search(serving.begin(), serving.end(), f)) {
          table.items.push_back(Contribution{f, 1.0});
        }
      }
    } else {
      all.clear();
      for (const Point& p : pts) {
        Serving(p, &serving);
        all.insert(all.end(), serving.begin(), serving.end());
      }
      std::sort(all.begin(), all.end());
      for (size_t i = 0; i < all.size();) {
        size_t j = i;
        while (j < all.size() && all[j] == all[i]) ++j;
        table.items.push_back(
            Contribution{all[i], static_cast<double>(j - i) /
                                     static_cast<double>(pts.size())});
        i = j;
      }
    }
    table.begin.push_back(static_cast<uint32_t>(table.items.size()));
  }
  return table;
}

std::vector<double> ServiceOracle::ServiceValues(
    const TrajectorySet& users) const {
  const ContributionTable table = Contributions(users);
  std::vector<double> so(num_facilities_, 0.0);
  for (uint32_t u = 0; u < users.size(); ++u) table.AddTo(u, 1.0, &so);
  return so;
}

std::vector<OracleRank> RankTopK(const std::vector<double>& so, size_t k) {
  std::vector<OracleRank> all(so.size());
  for (uint32_t f = 0; f < so.size(); ++f) all[f] = OracleRank{f, so[f]};
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end(), [](const OracleRank& a, const OracleRank& b) {
                      return a.value != b.value ? a.value > b.value
                                                : a.id < b.id;
                    });
  all.resize(k);
  return all;
}

OracleCover GreedyCoverOracle(const ServiceOracle& oracle,
                              const TrajectorySet& users,
                              const std::vector<double>& so, size_t k) {
  const size_t nf = so.size();
  const size_t pool_size = std::min(nf, std::max(4 * k, 2 * k + 8));
  const std::vector<OracleRank> pool = RankTopK(so, pool_size);

  // Per user: which pool members serve its source / its destination.
  std::vector<std::vector<uint32_t>> src(users.size()), dst(users.size());
  std::vector<uint32_t> serving;
  std::vector<char> in_pool(nf, 0);
  for (const OracleRank& r : pool) in_pool[r.id] = 1;
  for (uint32_t u = 0; u < users.size(); ++u) {
    const auto pts = users.points(u);
    oracle.Serving(pts.front(), &serving);
    for (const uint32_t f : serving) {
      if (in_pool[f]) src[u].push_back(f);
    }
    oracle.Serving(pts.back(), &serving);
    for (const uint32_t f : serving) {
      if (in_pool[f]) dst[u].push_back(f);
    }
  }
  const auto has = [](const std::vector<uint32_t>& v, uint32_t f) {
    return std::binary_search(v.begin(), v.end(), f);
  };

  OracleCover cover;
  std::vector<char> src_cov(users.size(), 0), dst_cov(users.size(), 0);
  std::vector<char> used(nf, 0);
  for (size_t round = 0; round < std::min(k, pool.size()); ++round) {
    int64_t best_gain = -1;
    uint32_t best = 0;
    for (const OracleRank& r : pool) {
      if (used[r.id]) continue;
      int64_t gain = 0;
      for (uint32_t u = 0; u < users.size(); ++u) {
        if (src_cov[u] && dst_cov[u]) continue;
        if ((src_cov[u] || has(src[u], r.id)) &&
            (dst_cov[u] || has(dst[u], r.id))) {
          ++gain;
        }
      }
      if (gain > best_gain || (gain == best_gain && r.id < best)) {
        best_gain = gain;
        best = r.id;
      }
    }
    used[best] = 1;
    cover.chosen.push_back(best);
    for (uint32_t u = 0; u < users.size(); ++u) {
      if (has(src[u], best)) src_cov[u] = 1;
      if (has(dst[u], best)) dst_cov[u] = 1;
    }
  }
  for (uint32_t u = 0; u < users.size(); ++u) {
    if (src_cov[u] && dst_cov[u]) ++cover.users_served;
  }
  cover.total = static_cast<double>(cover.users_served);
  return cover;
}

}  // namespace tq::bl
