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

// Cells are ψ·(1 + 2^-20) wide, not ψ: a stop and a point the ψ² predicate
// accepts are at most ψ·(1 + 2^-51) apart per axis, and with exactly ψ-wide
// cells the rounding of `x * inv_cell_` can still put them two cells apart
// (a stop at x = -900 and a point at x = -1050, ψ = 150). The widening covers
// that rounding for every cell coordinate below 2^31, the packing's range.
constexpr double kCellNarrowing = 1.0 - 0x1p-20;

// Grows the EMBR by the same kind of margin for the probe prefilter: `p - s`
// rounds, so a point the ψ² predicate accepts can lie an ulp past the EMBR
// (a stop at x = -37.5 with ψ = 150 serves x = 112.5 + 1 ulp).
Rect PrefilterBox(const Rect& embr, double psi) {
  const double reach =
      psi + std::max({std::abs(embr.min_x), std::abs(embr.max_x),
                      std::abs(embr.min_y), std::abs(embr.max_y)});
  return embr.Expanded(reach * 0x1p-40);
}

// int64(floor(v)) without a libm call: truncate, then step down when the
// truncation rounded a negative non-integer up. Bit-identical to std::floor
// for every v in int64 range.
inline int64_t FloorToInt(double v) {
  int64_t t = static_cast<int64_t>(v);
  t -= static_cast<double>(t) > v;
  return t;
}

// Packs two 32-bit cell coordinates; city extents are far below 2^31 cells.
inline int64_t PackCell(int64_t cx, int64_t cy) {
  return (cx << 32) ^ (cy & 0xFFFFFFFFLL);
}

}  // namespace

StopGrid::StopGrid(std::span<const Point> stops, double psi)
    : stops_(stops.begin(), stops.end()),
      psi_(psi),
      psi2_(psi * psi),
      inv_cell_(1.0 / psi * kCellNarrowing) {
  TQ_CHECK_MSG(psi > 0.0, "psi must be positive");
  TQ_CHECK_MSG(!stops_.empty(), "facility must have at least one stop");
  mbr_ = Rect::BoundingBox(stops_);
  embr_ = mbr_.Expanded(psi_);
  box_ = PrefilterBox(embr_, psi_);

  // Dilated occupancy: stop i contributes itself to the neighborhood list of
  // each of the 9 cells around its own, so a probe later needs only its own
  // cell's list. Sorting the (key, stop) pairs groups each cell's list, in
  // stop order.
  struct Entry {
    int64_t key;
    uint32_t stop;
  };
  const auto num_stops = static_cast<uint32_t>(stops_.size());
  std::vector<Entry> entries;
  entries.reserve(size_t{num_stops} * 9);
  for (uint32_t i = 0; i < num_stops; ++i) {
    const int64_t cx = FloorToInt(stops_[i].x * inv_cell_);
    const int64_t cy = FloorToInt(stops_[i].y * inv_cell_);
    for (int64_t dx = -1; dx <= 1; ++dx) {
      for (int64_t dy = -1; dy <= 1; ++dy) {
        entries.push_back({PackCell(cx + dx, cy + dy), i});
      }
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.stop < b.stop;
  });

  // Neighborhoods of nearby stops share cells (a route's consecutive stops
  // are often closer than ψ), so the distinct cells are far fewer than the
  // pairs: the table is sized 2 × distinct, load factor 1/2.
  const auto run_end = [&entries](size_t b) {
    size_t e = b + 1;
    while (e < entries.size() && entries[e].key == entries[b].key) ++e;
    return e;
  };
  size_t cells = 0;
  size_t ids_listed = 0;
  for (size_t b = 0, e; b < entries.size(); b = e) {
    e = run_end(b);
    ++cells;
    if (e - b > 1) ids_listed += e - b;
  }
  table_.assign(std::max<size_t>(8, cells * 2), Slot{});
  ids_.reserve(ids_listed);
  for (size_t b = 0, e; b < entries.size(); b = e) {
    e = run_end(b);
    Slot s{entries[b].key, static_cast<uint32_t>(e - b), entries[b].stop};
    if (s.n > 1) {
      s.ref = static_cast<uint32_t>(ids_.size());
      for (size_t j = b; j < e; ++j) ids_.push_back(entries[j].stop);
    }
    size_t slot = HomeSlot(s.key);
    while (table_[slot].n != 0) slot = NextSlot(slot);
    table_[slot] = s;
  }
}

int64_t StopGrid::CellKey(double x, double y) const {
  return PackCell(FloorToInt(x * inv_cell_), FloorToInt(y * inv_cell_));
}

size_t StopGrid::HomeSlot(int64_t key) const {
  // Multiply-shift maps the mixed key onto [0, size) for any table size.
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(MixKey(key)) * table_.size()) >> 64);
}

size_t StopGrid::NextSlot(size_t slot) const {
  return slot + 1 == table_.size() ? 0 : slot + 1;
}

const StopGrid::Slot* StopGrid::FindSlot(int64_t key) const {
  size_t slot = HomeSlot(key);
  while (true) {
    const Slot& s = table_[slot];
    if (s.n == 0) return nullptr;
    if (s.key == key) return &s;
    slot = NextSlot(slot);
  }
}

std::span<const uint32_t> StopGrid::Listed(const Slot& s) const {
  // A one-stop slot's ref IS its one-element id list.
  return {s.n == 1 ? &s.ref : ids_.data() + s.ref, s.n};
}

bool StopGrid::ProbeCell(const Point& p) const {
  const Slot* s = FindSlot(CellKey(p.x, p.y));
  if (s == nullptr) return false;
  if (s->n == 1) {
    const Point& q = stops_[s->ref];
    return simd::scalar::WithinPsi2(q.x, q.y, p.x, p.y, psi2_);
  }
  const uint32_t* ids = ids_.data() + s->ref;
  for (uint32_t k = 0; k < s->n; ++k) {
    const Point& q = stops_[ids[k]];
    if (simd::scalar::WithinPsi2(q.x, q.y, p.x, p.y, psi2_)) return true;
  }
  return false;
}

bool StopGrid::Serves(const Point& p) const {
  if (!box_.Contains(p)) return false;
  return ProbeCell(p);
}

bool StopGrid::ServesScalar(const Point& p) const {
  if (!box_.Contains(p)) return false;
  const Slot* s = FindSlot(CellKey(p.x, p.y));
  if (s == nullptr) return false;
  for (const uint32_t id : Listed(*s)) {
    if (simd::scalar::WithinPsi2(stops_[id].x, stops_[id].y, p.x, p.y,
                                 psi2_)) {
      return true;
    }
  }
  return false;
}

void StopGrid::ServesBatch(std::span<const Point> pts,
                           uint64_t* out_mask) const {
  static_assert(sizeof(Point) == 2 * sizeof(double),
                "batch kernels assume Point is two packed doubles");
  // Each 64-point word is assembled in a register and stored once; a hit
  // ORs in its bit without a branch on the (unpredictable) answer.
  const size_t n = pts.size();
  uint64_t word = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // 4-wide EMBR prefilter: most points of a far-away trajectory die here
    // without any cell probe.
    uint32_t in = simd::LanesInRect(&pts[i].x, box_.min_x, box_.min_y,
                                    box_.max_x, box_.max_y);
    while (in != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(in));
      in &= in - 1;
      const size_t pi = i + lane;
      word |= uint64_t{ProbeCell(pts[pi])} << (pi & 63);
    }
    if (((i + 4) & 63) == 0) {
      out_mask[i >> 6] = word;
      word = 0;
    }
  }
  for (; i < n; ++i) word |= uint64_t{Serves(pts[i])} << (i & 63);
  if ((n & 63) != 0) out_mask[n >> 6] = word;
}

double StopGrid::NearbyStopDistance(const Point& p) const {
  // The probe cell's neighborhood list IS the 3×3 stop set.
  double best = std::numeric_limits<double>::infinity();
  const Slot* s = FindSlot(CellKey(p.x, p.y));
  if (s == nullptr) return best;
  for (const uint32_t id : Listed(*s)) {
    best = std::min(best, DistanceSquared(p, stops_[id]));
  }
  return std::sqrt(best);
}

size_t StopGrid::heap_bytes() const {
  return stops_.capacity() * sizeof(Point) + table_.capacity() * sizeof(Slot) +
         ids_.capacity() * sizeof(uint32_t);
}

}  // namespace tq
