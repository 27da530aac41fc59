#include "service/facility_index.h"

#include <atomic>

#include "common/check.h"

namespace tq {

namespace {

std::atomic<uint64_t> next_catalog_serial{1};

}  // namespace

FacilityCatalog::FacilityCatalog(const TrajectorySet* facilities, double psi)
    : facilities_(facilities),
      psi_(psi),
      serial_(next_catalog_serial.fetch_add(1, std::memory_order_relaxed)) {
  TQ_CHECK(facilities != nullptr);
  grids_.reserve(facilities_->size());
  for (uint32_t f = 0; f < facilities_->size(); ++f) {
    grids_.push_back(std::make_unique<StopGrid>(facilities_->points(f), psi));
  }
}

}  // namespace tq
