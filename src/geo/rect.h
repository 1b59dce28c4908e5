// Axis-aligned rectangles in D dimensions with the min/max distance
// computations required for spatial pruning (Section 6 of the paper).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "geo/point.h"

namespace ust {

/// \brief Axis-aligned box in D dimensions: [lo[i], hi[i]] per axis.
///
/// An empty box (default constructed) has lo > hi on every axis and acts as
/// the identity for Extend.
template <int D>
struct Rect {
  std::array<double, D> lo;
  std::array<double, D> hi;

  Rect() {
    lo.fill(std::numeric_limits<double>::infinity());
    hi.fill(-std::numeric_limits<double>::infinity());
  }

  bool empty() const {
    for (int i = 0; i < D; ++i) {
      if (lo[i] > hi[i]) return true;
    }
    return false;
  }

  /// Grow to cover the point `p`.
  void Extend(const std::array<double, D>& p) {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }

  bool Contains(const std::array<double, D>& p) const {
    for (int i = 0; i < D; ++i) {
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    }
    return true;
  }

  bool Contains(const Rect& other) const {
    for (int i = 0; i < D; ++i) {
      if (other.lo[i] < lo[i] || other.hi[i] > hi[i]) return false;
    }
    return true;
  }
};

using Rect2 = Rect<2>;

/// Build a 2-D rectangle from explicit bounds.
inline Rect2 MakeRect2(double x_lo, double y_lo, double x_hi, double y_hi) {
  Rect2 r;
  r.lo = {x_lo, y_lo};
  r.hi = {x_hi, y_hi};
  return r;
}

/// Minimum Euclidean distance from point `p` to rectangle `r` (0 if inside).
double MinDistance(const Point2& p, const Rect2& r);

/// Maximum Euclidean distance from point `p` to any point of rectangle `r`.
double MaxDistance(const Point2& p, const Rect2& r);

/// Minimum distance between two rectangles (0 when intersecting).
double MinDistance(const Rect2& a, const Rect2& b);

/// Maximum distance between two rectangles.
double MaxDistance(const Rect2& a, const Rect2& b);

}  // namespace ust
