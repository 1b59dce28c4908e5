#include <gtest/gtest.h>

#include "geo/point.h"
#include "geo/rect.h"
#include "util/rng.h"

namespace ust {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {2, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(RectTest, EmptyRectBehaviour) {
  Rect2 r;
  EXPECT_TRUE(r.empty());
  r.Extend({1.0, 2.0});
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.Contains({1.0, 2.0}));
}

TEST(RectTest, Contains) {
  Rect2 a = MakeRect2(0, 0, 2, 2);
  Rect2 b = MakeRect2(1, 1, 3, 3);
  EXPECT_FALSE(a.Contains(b));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_TRUE(MakeRect2(-1, -1, 4, 4).Contains(a));
}

TEST(DistanceTest, PointToRectKnownValues) {
  Rect2 r = MakeRect2(1, 1, 3, 3);
  // Inside: dmin 0.
  EXPECT_DOUBLE_EQ(MinDistance(Point2{2, 2}, r), 0.0);
  // Left of box.
  EXPECT_DOUBLE_EQ(MinDistance(Point2{0, 2}, r), 1.0);
  // Diagonal corner.
  EXPECT_DOUBLE_EQ(MinDistance(Point2{0, 0}, r), std::sqrt(2.0));
  // Max distance from origin is the far corner (3,3).
  EXPECT_DOUBLE_EQ(MaxDistance(Point2{0, 0}, r), std::sqrt(18.0));
  // Max from center is any corner.
  EXPECT_DOUBLE_EQ(MaxDistance(Point2{2, 2}, r), std::sqrt(2.0));
}

TEST(DistanceTest, RectToRectKnownValues) {
  Rect2 a = MakeRect2(0, 0, 1, 1);
  Rect2 b = MakeRect2(3, 0, 4, 1);
  EXPECT_DOUBLE_EQ(MinDistance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(MaxDistance(a, b), std::sqrt(16.0 + 1.0));
  // Overlapping rects: dmin 0.
  EXPECT_DOUBLE_EQ(MinDistance(a, MakeRect2(0.5, 0.5, 2, 2)), 0.0);
}

// Property sweep: dmin <= d(p, x) <= dmax for any x inside the rectangle.
class PointRectDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(PointRectDistanceProperty, BoundsHoldForRandomInteriorPoints) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    double x0 = rng.Uniform(-5, 5), y0 = rng.Uniform(-5, 5);
    Rect2 r = MakeRect2(x0, y0, x0 + rng.Uniform(0, 3), y0 + rng.Uniform(0, 3));
    Point2 p{rng.Uniform(-8, 8), rng.Uniform(-8, 8)};
    double dmin = MinDistance(p, r);
    double dmax = MaxDistance(p, r);
    EXPECT_LE(dmin, dmax + 1e-12);
    for (int k = 0; k < 20; ++k) {
      Point2 inside{rng.Uniform(r.lo[0], r.hi[0]),
                    rng.Uniform(r.lo[1], r.hi[1])};
      double d = Distance(p, inside);
      EXPECT_LE(dmin, d + 1e-9);
      EXPECT_GE(dmax, d - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointRectDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// Property sweep: rect-rect bounds sandwich distances of contained points.
class RectRectDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(RectRectDistanceProperty, BoundsHoldForRandomPointPairs) {
  Rng rng(GetParam() * 77);
  for (int iter = 0; iter < 100; ++iter) {
    auto random_rect = [&rng]() {
      double x0 = rng.Uniform(-5, 5), y0 = rng.Uniform(-5, 5);
      return MakeRect2(x0, y0, x0 + rng.Uniform(0, 4), y0 + rng.Uniform(0, 4));
    };
    Rect2 a = random_rect(), b = random_rect();
    double dmin = MinDistance(a, b);
    double dmax = MaxDistance(a, b);
    for (int k = 0; k < 20; ++k) {
      Point2 pa{rng.Uniform(a.lo[0], a.hi[0]), rng.Uniform(a.lo[1], a.hi[1])};
      Point2 pb{rng.Uniform(b.lo[0], b.hi[0]), rng.Uniform(b.lo[1], b.hi[1])};
      double d = Distance(pa, pb);
      EXPECT_LE(dmin, d + 1e-9);
      EXPECT_GE(dmax, d - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectRectDistanceProperty,
                         ::testing::Values(1, 2, 3));

TEST(DistanceTest, SymmetricRectToRect) {
  Rng rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    double x0 = rng.Uniform(-5, 5), y0 = rng.Uniform(-5, 5);
    Rect2 a = MakeRect2(x0, y0, x0 + 1, y0 + 2);
    double x1 = rng.Uniform(-5, 5), y1 = rng.Uniform(-5, 5);
    Rect2 b = MakeRect2(x1, y1, x1 + 2, y1 + 1);
    EXPECT_DOUBLE_EQ(MinDistance(a, b), MinDistance(b, a));
    EXPECT_DOUBLE_EQ(MaxDistance(a, b), MaxDistance(b, a));
  }
}

}  // namespace
}  // namespace ust
