// lib_nyt — the paper's own default setting, library only: SO, kMaxRRST and
// MaxkCovRST on one TQ(Z) tree over NYT taxi trips (Scenario 1). service/,
// tqtree/, query/ and cover/ do all the work; runtime/, net/ and storage/
// none, so a runtime-only change must read unchanged here.
#include <memory>
#include <vector>

#include "cover/greedy.h"
#include "query/eval_service.h"
#include "query/topk.h"
#include "service/evaluator.h"
#include "service/facility_index.h"
#include "workloads.h"

namespace tq::bl {
namespace {

constexpr size_t kCoverK = 8;

struct Library {
  std::unique_ptr<TQTree> tree;
  std::unique_ptr<FacilityCatalog> catalog;
  std::unique_ptr<ServiceEvaluator> eval;
};

}  // namespace

WorkloadResult RunLibNyt(const RunConfig& config, SpanLog* spans) {
  WorkloadResult result;
  const std::unique_ptr<Dataset> data = NytDataset(kRoutes);
  const size_t nf = data->facilities.size();
  const ServiceOracle oracle(data->facilities, kPsi, data->oracle_model);
  std::vector<double> want_so = oracle.ServiceValues(data->users);
  // Set-up always asks facility 0 first, so the perturbation is always hit.
  if (config.self_test) want_so[0] += 1.0;
  const OracleCover want_cover =
      GreedyCoverOracle(oracle, data->users, want_so, kCoverK);

  Checker checker;
  const auto check_so = [&](FacilityId f, double got) {
    checker.Expect(got == want_so[f], "lib_nyt SO", got, want_so[f]);
  };
  const auto check_cover = [&](const CoverResult& got) {
    checker.Expect(got.chosen == want_cover.chosen, "lib_nyt cover choice",
                   got.chosen.empty() ? -1.0 : got.chosen.front(),
                   want_cover.chosen.front());
    checker.Expect(got.total == want_cover.total, "lib_nyt cover total",
                   got.total, want_cover.total);
    checker.Expect(got.users_served == want_cover.users_served,
                   "lib_nyt cover users served",
                   static_cast<double>(got.users_served),
                   static_cast<double>(want_cover.users_served));
  };

  // Set-up: index and catalog construction, then the first answer of each
  // op type (lazy z-index builds land there).
  Library lib;
  for (size_t rep = 0; rep < config.setup_reps(); ++rep) {
    lib = Library{};
    const uint64_t t0 = runtime::NowNs();
    lib.tree = std::make_unique<TQTree>(&data->users, TreeOptions(data->model));
    lib.catalog = std::make_unique<FacilityCatalog>(&data->facilities, kPsi);
    lib.eval = std::make_unique<ServiceEvaluator>(&data->users, data->model);
    const uint64_t t1 = runtime::NowNs();
    const double so = EvaluateServiceTQ(lib.tree.get(), *lib.eval,
                                        lib.catalog->grid(0));
    const uint64_t t2 = runtime::NowNs();
    const TopKResult top =
        TopKFacilitiesTQ(lib.tree.get(), *lib.catalog, *lib.eval, kCoverK);
    const uint64_t t3 = runtime::NowNs();
    const CoverResult cover =
        GreedyCoverTQ(lib.tree.get(), *lib.catalog, *lib.eval, kCoverK);
    const uint64_t t4 = runtime::NowNs();
    result.setup_s.push_back(static_cast<double>(t4 - t0) / 1e9);
    const int64_t root = spans->Add("setup", rep, -1, t0, t4);
    spans->Add("build", rep, root, t0, t1);
    spans->Add("first_so", rep, root, t1, t2);
    spans->Add("first_topk", rep, root, t2, t3);
    spans->Add("first_cover", rep, root, t3, t4);
    check_so(0, so);
    CheckTopK(top.ranked, want_so, kCoverK, /*exact=*/true, &checker);
    check_cover(cover);
  }

  // 80 % SO (f uniform), 15 % kMaxRRST (k in {1, 8, 32}), 5 % MaxkCovRST.
  std::vector<uint32_t> cards(16, kSO);
  cards.insert(cards.end(), 3, kTopK);
  cards.push_back(kCover);
  Deck mix(cards, config.SubSeed(1));
  Deck ks({1, 8, 32}, config.SubSeed(2));
  Rng facilities(config.SubSeed(3));

  std::vector<std::pair<FacilityId, double>> so_answers;
  std::vector<std::pair<size_t, std::vector<RankedFacility>>> topk_answers;
  std::vector<CoverResult> cover_answers;
  ClosedLoop(config.smoke ? 0.3 : 1.0, config.window_s(), &mix, spans,
             &result, [&](Op op, bool) -> Answered {
               if (op == kSO) {
                 const auto f =
                     static_cast<FacilityId>(facilities.NextBelow(nf));
                 so_answers.emplace_back(
                     f, EvaluateServiceTQ(lib.tree.get(), *lib.eval,
                                          lib.catalog->grid(f)));
               } else if (op == kTopK) {
                 const size_t k = ks.Next();
                 topk_answers.emplace_back(
                     k, TopKFacilitiesTQ(lib.tree.get(), *lib.catalog,
                                         *lib.eval, k)
                            .ranked);
               } else {
                 cover_answers.push_back(GreedyCoverTQ(
                     lib.tree.get(), *lib.catalog, *lib.eval, kCoverK));
               }
               return {};
             },
             [] {});

  for (const auto& [f, v] : so_answers) check_so(f, v);
  for (const auto& [k, ranked] : topk_answers) {
    CheckTopK(ranked, want_so, k, /*exact=*/true, &checker);
  }
  for (const CoverResult& c : cover_answers) check_cover(c);
  result.checked = checker.checked();
  result.wrong = checker.failures();

  // A library has no registry: every deployment ratio reads idle.
  const runtime::MetricsView none;
  AddDeploymentLayerMetrics(WindowDelta(none, none), {}, 0.0, &result.layer);
  result.facts.emplace_back("cover_served_users",
                            static_cast<double>(want_cover.users_served));
  return result;
}

}  // namespace tq::bl
