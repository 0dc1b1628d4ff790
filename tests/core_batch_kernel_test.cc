// Batch geometry kernels (src/core/geometry/batch.*) against the scalar
// predicates: every ContainsBatch / AnyLegIntersects verdict is
// bit-identical to Polygon::Contains / Polygon::IntersectsSegment,
// boundary and vertex points included.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/geometry/batch.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/segment.h"

namespace piet::core::batch {
namespace {

using geometry::Point;
using geometry::Polygon;
using geometry::Ring;
using geometry::Segment;

// A deliberately nasty polygon: nonconvex L-shaped shell with horizontal
// and vertical edges plus a square hole, so the grid probes below hit
// interior, exterior, hole interior, edges, and vertices exactly.
Polygon MakeLWithHole() {
  Ring shell(std::vector<Point>{{0, 0},
                                {10, 0},
                                {10, 4},
                                {6, 4},
                                {6, 10},
                                {0, 10}});
  Ring hole(std::vector<Point>{{1, 1}, {3, 1}, {3, 3}, {1, 3}});
  return Polygon(std::move(shell), {std::move(hole)});
}

TEST(BatchKernelTest, ContainsBatchMatchesScalarOnAlignedGrid) {
  const Polygon poly = MakeLWithHole();
  PolygonBatcher batcher(&poly);
  std::vector<double> xs;
  std::vector<double> ys;
  // Half-unit grid spanning past the bbox: lands on every edge, every
  // vertex, hole corners, and plenty of strict interior/exterior points.
  for (double y = -1.0; y <= 11.0; y += 0.5) {
    for (double x = -1.0; x <= 11.0; x += 0.5) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  BatchScratch scratch;
  std::vector<uint8_t> out;
  batcher.ContainsBatch(xs, ys, &scratch, &out);
  ASSERT_EQ(out.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i] != 0, poly.Contains(Point(xs[i], ys[i])))
        << "(" << xs[i] << ", " << ys[i] << ")";
  }
}

TEST(BatchKernelTest, ContainsBatchMatchesScalarOnRandomPoints) {
  std::mt19937 rng(20260809);
  std::uniform_real_distribution<double> coord(-2.0, 12.0);
  std::uniform_int_distribution<int> sides(3, 9);
  for (int round = 0; round < 8; ++round) {
    Polygon poly =
        round % 2 == 0
            ? MakeLWithHole()
            : geometry::MakeRegularPolygon(Point(coord(rng), coord(rng)),
                                           1.0 + round, sides(rng));
    PolygonBatcher batcher(&poly);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < 500; ++i) {
      xs.push_back(coord(rng));
      ys.push_back(coord(rng));
    }
    // Also replay the polygon's own vertices: exact boundary hits.
    for (const Point& v : poly.shell().vertices()) {
      xs.push_back(v.x);
      ys.push_back(v.y);
    }
    BatchScratch scratch;
    std::vector<uint8_t> out;
    batcher.ContainsBatch(xs, ys, &scratch, &out);
    ASSERT_EQ(out.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(out[i] != 0, poly.Contains(Point(xs[i], ys[i])))
          << "round " << round << " (" << xs[i] << ", " << ys[i] << ")";
    }
  }
}

TEST(BatchKernelTest, AnyLegIntersectsMatchesScalarSegments) {
  const Polygon poly = MakeLWithHole();
  PolygonBatcher batcher(&poly);
  std::mt19937 rng(424242);
  std::uniform_real_distribution<double> coord(-4.0, 14.0);
  std::uniform_int_distribution<int> len(1, 12);
  for (int walk = 0; walk < 200; ++walk) {
    const int n = len(rng);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < n; ++i) {
      xs.push_back(coord(rng));
      ys.push_back(coord(rng));
    }
    bool scalar = false;
    for (int i = 0; i + 1 < n; ++i) {
      if (poly.IntersectsSegment(Segment(Point(xs[i], ys[i]),
                                         Point(xs[i + 1], ys[i + 1])))) {
        scalar = true;
        break;
      }
    }
    EXPECT_EQ(batcher.AnyLegIntersects(xs, ys), scalar) << "walk " << walk;
  }
  // Fewer than two points can have no leg.
  std::vector<double> one{5.0};
  EXPECT_FALSE(batcher.AnyLegIntersects(one, one));
  // A leg that only grazes a vertex still counts (closed polygon).
  std::vector<double> gx{-1.0, 1.0};
  std::vector<double> gy{1.0, -1.0};
  EXPECT_EQ(batcher.AnyLegIntersects(gx, gy),
            poly.IntersectsSegment(Segment(Point(-1, 1), Point(1, -1))));
}

}  // namespace
}  // namespace piet::core::batch
