#include "service/stop_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/simd.h"

namespace tq {
namespace {

// splitmix64 finalizer — mixes the packed cell key into table slots. The
// packed key's low 32 bits are the y cell, which cluster badly without this.
inline uint64_t MixKey(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Largest scratch table a thread keeps between grids (768 KiB: the 9·stops
// keys of a facility of up to ~1,800 stops).
constexpr size_t kKeptScratchSlots = size_t{1} << 15;

inline uint64_t NextPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

StopGrid::StopGrid(std::span<const Point> stops, double psi)
    : stops_(stops.begin(), stops.end()),
      psi_(psi),
      psi2_(psi * psi),
      inv_cell_(1.0 / psi) {
  TQ_CHECK_MSG(psi > 0.0, "psi must be positive");
  TQ_CHECK_MSG(!stops_.empty(), "facility must have at least one stop");
  mbr_ = Rect::BoundingBox(stops_);
  embr_ = mbr_.Expanded(psi_);

  // Dilated occupancy: stop i contributes itself to the neighborhood list of
  // each of the 9 cells around its own, so a probe later needs only its own
  // cell's list. Two passes: insert keys + count list sizes, then assign
  // padded ranges and scatter (counting-sort style, stable — stops appear in
  // each list in stop order).
  const uint32_t num_stops = static_cast<uint32_t>(stops_.size());
  std::vector<int64_t> keys(num_stops * 9);
  for (uint32_t i = 0; i < num_stops; ++i) {
    const auto cx = static_cast<int64_t>(std::floor(stops_[i].x * inv_cell_));
    const auto cy = static_cast<int64_t>(std::floor(stops_[i].y * inv_cell_));
    int64_t* k = &keys[i * 9];
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        *k++ = ((cx + dx) << 32) ^ ((cy + dy) & 0xFFFFFFFFLL);
      }
    }
  }

  // First pass inserts the keys into a scratch table reused across grids,
  // counting per-cell sizes and listing the occupied slots in first-insert
  // order. Capacity 2 × the 9·stops insertions bounds its load factor at 1/2
  // even if every neighborhood key were unique, so probe chains stay short.
  static thread_local std::vector<Cell> scratch;
  static thread_local std::vector<uint64_t> occupied;
  const uint64_t capacity =
      NextPow2(std::max<uint64_t>(8, uint64_t{num_stops} * 9 * 2));
  if (scratch.size() < capacity) scratch.assign(capacity, Cell{});
  const uint64_t scratch_mask = scratch.size() - 1;
  occupied.clear();
  for (const int64_t key : keys) {
    uint64_t slot = MixKey(key) & scratch_mask;
    while (scratch[slot].n != 0 && scratch[slot].key != key) {
      slot = (slot + 1) & scratch_mask;
    }
    if (scratch[slot].n == 0) occupied.push_back(slot);
    scratch[slot].key = key;
    ++scratch[slot].n;
  }

  // Neighborhoods of nearby stops share cells (a route's consecutive stops
  // are often closer than ψ), so the distinct cells are far fewer than the
  // insertions: the kept table is sized 2 × distinct, load factor ≤ 1/2.
  // Moving a cell assigns its padded [begin, begin+padded) range and leaves
  // the scratch table empty for the next grid.
  table_.assign(NextPow2(std::max<uint64_t>(8, occupied.size() * 2)), Cell{});
  table_mask_ = table_.size() - 1;
  uint32_t offset = 0;
  for (const uint64_t from : occupied) {
    Cell c = scratch[from];
    scratch[from] = Cell{};
    c.begin = offset;
    c.padded = (c.n + 3u) & ~3u;
    offset += c.padded;
    uint64_t slot = MixKey(c.key) & table_mask_;
    while (table_[slot].n != 0) slot = (slot + 1) & table_mask_;
    table_[slot] = c;
  }
  // A facility of thousands of stops leaves no scratch behind on its thread.
  if (scratch.size() > kKeptScratchSlots) std::vector<Cell>().swap(scratch);
  bucket_x_.assign(offset, 0.0);
  bucket_y_.assign(offset, 0.0);

  // Second pass scatters stops into their neighborhood runs, then pads each
  // run to a multiple of 4 lanes with copies of the run's first stop.
  std::vector<uint32_t> fill(table_.size(), 0);
  for (uint32_t i = 0; i < num_stops; ++i) {
    for (int j = 0; j < 9; ++j) {
      const int64_t key = keys[i * 9 + j];
      uint64_t slot = MixKey(key) & table_mask_;
      while (table_[slot].key != key || table_[slot].n == 0) {
        slot = (slot + 1) & table_mask_;
      }
      const uint32_t at = table_[slot].begin + fill[slot]++;
      bucket_x_[at] = stops_[i].x;
      bucket_y_[at] = stops_[i].y;
    }
  }
  for (const Cell& c : table_) {
    for (uint32_t j = c.n; j < c.padded; ++j) {
      bucket_x_[c.begin + j] = bucket_x_[c.begin];
      bucket_y_[c.begin + j] = bucket_y_[c.begin];
    }
  }
}

int64_t StopGrid::CellKey(double x, double y) const {
  const auto cx = static_cast<int64_t>(std::floor(x * inv_cell_));
  const auto cy = static_cast<int64_t>(std::floor(y * inv_cell_));
  // Pack two 32-bit cell coordinates; city extents are far below 2^31 cells.
  return (cx << 32) ^ (cy & 0xFFFFFFFFLL);
}

const StopGrid::Cell* StopGrid::FindCell(int64_t key) const {
  uint64_t slot = MixKey(key) & table_mask_;
  while (true) {
    const Cell& c = table_[slot];
    if (c.n == 0) return nullptr;
    if (c.key == key) return &c;
    slot = (slot + 1) & table_mask_;
  }
}

bool StopGrid::ProbeCell(const Point& p) const {
  const Cell* c = FindCell(CellKey(p.x, p.y));
  if (c == nullptr) return false;
  const double* xs = bucket_x_.data() + c->begin;
  const double* ys = bucket_y_.data() + c->begin;
  for (uint32_t k = 0; k < c->padded; k += 4) {
    // Padding lanes repeat a real neighborhood stop, so any lane hit is a
    // genuine within-ψ stop.
    if (simd::LanesWithinPsi2(xs + k, ys + k, p.x, p.y, psi2_) != 0) {
      return true;
    }
  }
  return false;
}

bool StopGrid::Serves(const Point& p) const {
  if (!embr_.Contains(p)) return false;
  return ProbeCell(p);
}

bool StopGrid::ServesScalar(const Point& p) const {
  if (!embr_.Contains(p)) return false;
  const Cell* c = FindCell(CellKey(p.x, p.y));
  if (c == nullptr) return false;
  for (uint32_t k = 0; k < c->n; ++k) {
    if (simd::scalar::WithinPsi2(bucket_x_[c->begin + k],
                                 bucket_y_[c->begin + k], p.x, p.y, psi2_)) {
      return true;
    }
  }
  return false;
}

void StopGrid::ServesBatch(std::span<const Point> pts,
                           uint64_t* out_mask) const {
  const size_t n = pts.size();
  const size_t words = (n + 63) / 64;
  std::fill(out_mask, out_mask + words, 0);
  static_assert(sizeof(Point) == 2 * sizeof(double),
                "batch kernels assume Point is two packed doubles");
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // 4-wide EMBR prefilter: most points of a far-away trajectory die here
    // without any cell probe.
    uint32_t in = simd::LanesInRect(&pts[i].x, embr_.min_x, embr_.min_y,
                                    embr_.max_x, embr_.max_y);
    while (in != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(in));
      in &= in - 1;
      const size_t pi = i + lane;
      if (ProbeCell(pts[pi])) {
        out_mask[pi >> 6] |= uint64_t{1} << (pi & 63);
      }
    }
  }
  for (; i < n; ++i) {
    if (Serves(pts[i])) {
      out_mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

double StopGrid::NearbyStopDistance(const Point& p) const {
  // The probe cell's neighborhood list IS the 3×3 stop set.
  double best = std::numeric_limits<double>::infinity();
  const Cell* c = FindCell(CellKey(p.x, p.y));
  if (c == nullptr) return best;
  for (uint32_t k = c->begin; k < c->begin + c->n; ++k) {
    best = std::min(best, DistanceSquared(p, Point{bucket_x_[k], bucket_y_[k]}));
  }
  return std::sqrt(best);
}

}  // namespace tq
