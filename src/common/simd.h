// Portable SIMD layer for the exact service-value kernels.
//
// Two implementations of the same 4-wide f64 geometry primitives, both
// compiled into every binary:
//
//   * the *active* path (`tq::simd`) — GNU vector extensions on GCC/Clang,
//     which lower to SSE2 pairs on baseline x86-64 and to single 256-bit AVX
//     ops under -march=x86-64-v3; a pure-scalar loop otherwise, or when the
//     build pins -DTQ_SIMD_FORCE_SCALAR (CMake -DTQ_SIMD=scalar). Selection
//     is entirely compile-time: no runtime dispatch on the hot path.
//   * the *reference* path (`tq::simd::scalar`) — plain scalar loops with the
//     exact same per-lane expressions, always available so the agreement
//     suite (tests/test_simd_kernels.cc) can compare vectorized and scalar
//     results bit-for-bit within one binary.
//
// Bit-identity is by construction, not by tolerance: every lane performs the
// same IEEE-754 double operations, in the same expression shape, as the
// scalar reference. The build pins -ffp-contract=off (CMakeLists.txt) so a
// compiler with FMA available (the x86-64-v3 CI cell) cannot contract
// `dx*dx + dy*dy` differently in one path than the other. Kernels therefore
// vectorize only *predicates* and *lane-independent arithmetic* — never
// reductions whose accumulation order the evaluator's answers depend on.
#ifndef TQCOVER_COMMON_SIMD_H_
#define TQCOVER_COMMON_SIMD_H_

#include <cstdint>
#include <cstring>

#if !defined(TQ_SIMD_FORCE_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define TQ_SIMD_VECTOR_EXT 1
#else
#define TQ_SIMD_VECTOR_EXT 0
#endif

namespace tq::simd {

/// Lane count of the wide f64 type. The kernels are written against 4 lanes;
/// on AVX2 that is one 256-bit register, on SSE2 two 128-bit ones.
inline constexpr size_t kLanes = 4;

#if TQ_SIMD_VECTOR_EXT

typedef double F64x4 __attribute__((vector_size(32), aligned(8)));
typedef int64_t Mask64x4 __attribute__((vector_size(32), aligned(8)));

inline F64x4 Broadcast(double v) { return F64x4{v, v, v, v}; }
/// Gathers the x (or y) coordinates of 4 array-of-structs points laid out
/// with stride 2 doubles (struct Point).
inline F64x4 GatherStride2(const double* p) {
  return F64x4{p[0], p[2], p[4], p[6]};
}
inline F64x4 Add(F64x4 a, F64x4 b) { return a + b; }
inline F64x4 Sub(F64x4 a, F64x4 b) { return a - b; }
inline F64x4 Mul(F64x4 a, F64x4 b) { return a * b; }
/// Lanewise max. `a > b ? a : b` — for the kernels' clamp-to-zero uses the
/// NaN/-0.0 corner behaviour matches the scalar reference's ternary exactly.
inline F64x4 Max(F64x4 a, F64x4 b) { return a > b ? a : b; }
/// Bit i of the result is set iff lane i satisfies a <= b.
inline uint32_t LaneMaskLe(F64x4 a, F64x4 b) {
  const Mask64x4 m = a <= b;
  return static_cast<uint32_t>((m[0] & 1) | (m[1] & 2) | (m[2] & 4) |
                               (m[3] & 8));
}

typedef double F64x2 __attribute__((vector_size(16), aligned(8)));
typedef int64_t Mask64x2 __attribute__((vector_size(16), aligned(8)));
/// 1 iff the AoS point (p[0], p[1]) lies in the closed box [lo, hi], in one
/// 2-lane compare pair: no stride-2 gather, and no 4-lane double compare,
/// which baseline x86-64 lacks and GCC lowers one scalar lane at a time.
inline uint32_t PointInBox(const double* p, F64x2 lo, F64x2 hi) {
  F64x2 v;
  std::memcpy(&v, p, sizeof(v));
  const Mask64x2 m = (lo <= v) & (v <= hi);
  return static_cast<uint32_t>(m[0] & m[1] & 1);
}

#else  // pure-scalar fallback with the identical API

struct F64x4 {
  double v[4];
};

inline F64x4 Broadcast(double x) { return F64x4{{x, x, x, x}}; }
inline F64x4 GatherStride2(const double* p) {
  return F64x4{{p[0], p[2], p[4], p[6]}};
}
inline F64x4 Add(F64x4 a, F64x4 b) {
  return F64x4{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2],
                a.v[3] + b.v[3]}};
}
inline F64x4 Sub(F64x4 a, F64x4 b) {
  return F64x4{{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2],
                a.v[3] - b.v[3]}};
}
inline F64x4 Mul(F64x4 a, F64x4 b) {
  return F64x4{{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2],
                a.v[3] * b.v[3]}};
}
inline F64x4 Max(F64x4 a, F64x4 b) {
  F64x4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return r;
}
inline uint32_t LaneMaskLe(F64x4 a, F64x4 b) {
  uint32_t m = 0;
  for (int i = 0; i < 4; ++i) m |= (a.v[i] <= b.v[i] ? 1u : 0u) << i;
  return m;
}
struct F64x2 {
  double v[2];
};
inline uint32_t PointInBox(const double* p, F64x2 lo, F64x2 hi) {
  return lo.v[0] <= p[0] && p[0] <= hi.v[0] && lo.v[1] <= p[1] &&
         p[1] <= hi.v[1];
}

#endif  // TQ_SIMD_VECTOR_EXT

// ------------------------------------------------------------------ kernels
// The two 4-wide predicate kernels of the service-value hot paths.
// Each has a scalar reference twin in tq::simd::scalar below; the agreement
// suite asserts lane-for-lane equality between the two.

/// Lanes of 4 consecutive AoS points (stride-2 doubles at `pts`) inside the
/// closed rectangle [min_x, max_x] x [min_y, max_y].
inline uint32_t LanesInRect(const double* pts, double min_x, double min_y,
                            double max_x, double max_y) {
  const F64x2 lo{min_x, min_y};
  const F64x2 hi{max_x, max_y};
  uint32_t m = 0;
  for (int i = 0; i < 4; ++i) m |= PointInBox(pts + 2 * i, lo, hi) << i;
  return m;
}

/// Lanes of 4 consecutive AoS points whose squared min-distance to the
/// rectangle is <= psi2 — the reachability predicate of zReduce's bucket
/// filter (ψ-disk of the point intersects the rectangle, in squared form).
inline uint32_t LanesDiskReachRect(const double* pts, double min_x,
                                   double min_y, double max_x, double max_y,
                                   double psi2) {
  const F64x4 xs = GatherStride2(pts);
  const F64x4 ys = GatherStride2(pts + 1);
  const F64x4 zero = Broadcast(0.0);
  const F64x4 dx = Max(Max(Sub(Broadcast(min_x), xs), Sub(xs, Broadcast(max_x))), zero);
  const F64x4 dy = Max(Max(Sub(Broadcast(min_y), ys), Sub(ys, Broadcast(max_y))), zero);
  const F64x4 d2 = Add(Mul(dx, dx), Mul(dy, dy));
  return LaneMaskLe(d2, Broadcast(psi2));
}

namespace scalar {

// The retained scalar references: same expressions, one lane at a time.
// These are the ground truth the vector kernels must agree with bit-for-bit
// (and the implementation the TQ_SIMD=scalar build effectively runs).

/// The per-stop ψ² predicate of StopGrid's probe. Expression shape matches
/// Point DistanceSquared: dx*dx + dy*dy.
inline bool WithinPsi2(double sx, double sy, double px, double py,
                       double psi2) {
  const double dx = px - sx;
  const double dy = py - sy;
  return dx * dx + dy * dy <= psi2;
}

inline bool InRect(double x, double y, double min_x, double min_y,
                   double max_x, double max_y) {
  return x >= min_x && x <= max_x && y >= min_y && y <= max_y;
}

inline uint32_t LanesInRect(const double* pts, double min_x, double min_y,
                            double max_x, double max_y) {
  uint32_t m = 0;
  for (int i = 0; i < 4; ++i) {
    m |= (InRect(pts[2 * i], pts[2 * i + 1], min_x, min_y, max_x, max_y)
              ? 1u
              : 0u)
         << i;
  }
  return m;
}

inline bool DiskReachRect(double x, double y, double min_x, double min_y,
                          double max_x, double max_y, double psi2) {
  const double cx1 = min_x - x;
  const double cx2 = x - max_x;
  const double dx0 = cx1 > cx2 ? cx1 : cx2;
  const double dx = dx0 > 0.0 ? dx0 : 0.0;
  const double cy1 = min_y - y;
  const double cy2 = y - max_y;
  const double dy0 = cy1 > cy2 ? cy1 : cy2;
  const double dy = dy0 > 0.0 ? dy0 : 0.0;
  return dx * dx + dy * dy <= psi2;
}

inline uint32_t LanesDiskReachRect(const double* pts, double min_x,
                                   double min_y, double max_x, double max_y,
                                   double psi2) {
  uint32_t m = 0;
  for (int i = 0; i < 4; ++i) {
    m |= (DiskReachRect(pts[2 * i], pts[2 * i + 1], min_x, min_y, max_x,
                        max_y, psi2)
              ? 1u
              : 0u)
         << i;
  }
  return m;
}

}  // namespace scalar

}  // namespace tq::simd

#endif  // TQCOVER_COMMON_SIMD_H_
