#include "cover/genetic.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/rng.h"

namespace tq {

namespace {

using Chromosome = std::vector<FacilityId>;  // k distinct facility ids

// SO of chromosome `c`, through `state`, which is empty on entry and on
// return.
double Fitness(const Chromosome& c, ServedSetCache* cache,
               CoverageState* state) {
  for (const FacilityId f : c) state->Add(cache->Get(f));
  const double total = state->total();
  state->Clear();
  return total;
}

Chromosome RandomChromosome(size_t num_facilities, size_t k, Rng* rng) {
  std::unordered_set<FacilityId> picked;
  while (picked.size() < k) {
    picked.insert(static_cast<FacilityId>(rng->NextBelow(num_facilities)));
  }
  Chromosome c(picked.begin(), picked.end());
  std::sort(c.begin(), c.end());
  return c;
}

// Uniform set crossover: child = k distinct genes sampled from both parents.
Chromosome Crossover(const Chromosome& a, const Chromosome& b, size_t k,
                     Rng* rng) {
  std::vector<FacilityId> genes(a.begin(), a.end());
  genes.insert(genes.end(), b.begin(), b.end());
  std::sort(genes.begin(), genes.end());
  genes.erase(std::unique(genes.begin(), genes.end()), genes.end());
  // Fisher-Yates prefix shuffle for the first k picks.
  for (size_t i = 0; i < k && i < genes.size(); ++i) {
    const size_t j = i + rng->NextBelow(genes.size() - i);
    std::swap(genes[i], genes[j]);
  }
  genes.resize(std::min(k, genes.size()));
  std::sort(genes.begin(), genes.end());
  return genes;
}

void Mutate(Chromosome* c, size_t num_facilities, double rate, Rng* rng) {
  if (!rng->NextBernoulli(rate) || c->empty()) return;
  const size_t victim = rng->NextBelow(c->size());
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto gene = static_cast<FacilityId>(rng->NextBelow(num_facilities));
    if (std::find(c->begin(), c->end(), gene) == c->end()) {
      (*c)[victim] = gene;
      break;
    }
  }
  std::sort(c->begin(), c->end());
}

}  // namespace

CoverResult GeneticCover(ServedSetCache* cache, size_t num_facilities,
                         size_t k, const ServiceEvaluator& eval,
                         const GeneticOptions& options) {
  TQ_CHECK(cache != nullptr);
  CoverResult result;
  k = std::min(k, num_facilities);
  if (k == 0) return result;
  result.pool_size = num_facilities;

  Rng rng(options.seed);
  std::vector<Chromosome> population;
  population.reserve(options.population);
  for (size_t i = 0; i < options.population; ++i) {
    population.push_back(RandomChromosome(num_facilities, k, &rng));
  }
  std::vector<double> fitness(population.size());
  CoverageState state(&eval);
  auto evaluate_all = [&]() {
    for (size_t i = 0; i < population.size(); ++i) {
      fitness[i] = Fitness(population[i], cache, &state);
    }
  };
  evaluate_all();

  auto tournament_pick = [&]() -> size_t {
    size_t best = rng.NextBelow(population.size());
    for (size_t t = 1; t < options.tournament; ++t) {
      const size_t challenger = rng.NextBelow(population.size());
      if (fitness[challenger] > fitness[best]) best = challenger;
    }
    return best;
  };

  for (size_t gen = 0; gen < options.generations; ++gen) {
    std::vector<Chromosome> next;
    next.reserve(population.size());
    // Elitism: carry the incumbent best forward unchanged.
    const size_t best_idx = static_cast<size_t>(
        std::max_element(fitness.begin(), fitness.end()) - fitness.begin());
    next.push_back(population[best_idx]);
    while (next.size() < population.size()) {
      const Chromosome& pa = population[tournament_pick()];
      const Chromosome& pb = population[tournament_pick()];
      Chromosome child = Crossover(pa, pb, k, &rng);
      // Top up if the parents shared too many genes.
      while (child.size() < k) {
        const auto gene =
            static_cast<FacilityId>(rng.NextBelow(num_facilities));
        if (std::find(child.begin(), child.end(), gene) == child.end()) {
          child.push_back(gene);
        }
      }
      std::sort(child.begin(), child.end());
      Mutate(&child, num_facilities, options.mutation_rate, &rng);
      next.push_back(std::move(child));
    }
    population = std::move(next);
    evaluate_all();
  }

  const size_t best_idx = static_cast<size_t>(
      std::max_element(fitness.begin(), fitness.end()) - fitness.begin());
  result.chosen = population[best_idx];
  for (const FacilityId f : result.chosen) state.Add(cache->Get(f));
  result.total = state.total();
  result.users_served = state.users_served();
  return result;
}

CoverResult GeneticCoverTQ(TQTree* tree, const FacilityCatalog& catalog,
                           const ServiceEvaluator& eval, size_t k,
                           const GeneticOptions& options) {
  ServedSetCache cache(tree, &catalog, &eval);
  return GeneticCover(&cache, catalog.size(), k, eval, options);
}

}  // namespace tq
