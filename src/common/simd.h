// Portable SIMD layer for the exact service-value kernels.
//
// Two implementations of the same lane predicate, both compiled into every
// binary:
//
//   * the *active* path (`tq::simd`) — GNU vector extensions on GCC/Clang
//     (one 2-lane compare pair per point); a pure-scalar loop otherwise, or
//     when the build pins -DTQ_SIMD_FORCE_SCALAR (CMake -DTQ_SIMD=scalar).
//     Selection is entirely compile-time: no runtime dispatch on the hot
//     path.
//   * the *reference* path (`tq::simd::scalar`) — plain scalar loops with the
//     exact same per-lane comparisons, always available so the agreement
//     suite (tests/test_simd_kernels.cc) can compare vectorized and scalar
//     results bit-for-bit within one binary.
//
// Bit-identity is by construction, not by tolerance: the vector path only
// computes *predicates*, the same IEEE-754 comparisons as the scalar
// reference, never a sum whose accumulation order the evaluator's answers
// depend on.
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

#if TQ_SIMD_VECTOR_EXT

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

struct F64x2 {
  double v[2];
};
inline uint32_t PointInBox(const double* p, F64x2 lo, F64x2 hi) {
  return lo.v[0] <= p[0] && p[0] <= hi.v[0] && lo.v[1] <= p[1] &&
         p[1] <= hi.v[1];
}

#endif  // TQ_SIMD_VECTOR_EXT

// ------------------------------------------------------------------ kernels
// The 4-wide predicate kernel of the stop grid's EMBR prefilter. It has a
// scalar reference twin in tq::simd::scalar below; the agreement suite
// asserts lane-for-lane equality between the two.

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

}  // namespace scalar

}  // namespace tq::simd

#endif  // TQCOVER_COMMON_SIMD_H_
