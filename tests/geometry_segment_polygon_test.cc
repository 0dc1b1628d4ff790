#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "corner_leg.h"
#include "geometry/predicates.h"
#include "geometry/segment_polygon.h"

namespace piet::geometry {
namespace {

double TotalLength(const std::vector<ParamInterval>& ivs) {
  double total = 0.0;
  for (const ParamInterval& iv : ivs) {
    total += iv.Length();
  }
  return total;
}

TEST(SegmentInsideIntervalsTest, FullyInside) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  auto ivs = SegmentInsideIntervals({{2, 2}, {8, 8}}, sq);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(ivs[0].t1, 1.0);
}

TEST(SegmentInsideIntervalsTest, FullyOutside) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  EXPECT_TRUE(SegmentInsideIntervals({{20, 20}, {30, 30}}, sq).empty());
}

TEST(SegmentInsideIntervalsTest, CrossingThrough) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  auto ivs = SegmentInsideIntervals({{-5, 5}, {15, 5}}, sq);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].t0, 0.25);
  EXPECT_DOUBLE_EQ(ivs[0].t1, 0.75);
}

TEST(SegmentInsideIntervalsTest, EnteringOnly) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  auto ivs = SegmentInsideIntervals({{-10, 5}, {10, 5}}, sq);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].t0, 0.5);
  EXPECT_DOUBLE_EQ(ivs[0].t1, 1.0);
}

TEST(SegmentInsideIntervalsTest, GrazingCornerIsPointContact) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  // Diagonal line touching the corner (10, 10) only... actually passes
  // through corner (0,10)-(10,0)? Use a line tangent at one corner:
  auto ivs = SegmentInsideIntervals({{-5, 15}, {15, -5}}, sq);
  // This segment passes through (0,10) and (10,0): the chord along the
  // anti-diagonal — fully inside between those points.
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].t0, 0.25, 1e-12);
  EXPECT_NEAR(ivs[0].t1, 0.75, 1e-12);

  // A true graze: touches only the corner (0, 10).
  auto graze = SegmentInsideIntervals({{-5, 5}, {5, 15}}, sq);
  ASSERT_EQ(graze.size(), 1u);
  EXPECT_DOUBLE_EQ(graze[0].t0, graze[0].t1);
  EXPECT_DOUBLE_EQ(graze[0].t0, 0.5);
}

TEST(SegmentInsideIntervalsTest, AlongEdge) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  // Runs exactly along the bottom edge: closed polygon => inside throughout.
  auto ivs = SegmentInsideIntervals({{0, 0}, {10, 0}}, sq);
  EXPECT_NEAR(TotalLength(ivs), 1.0, 1e-12);
}

TEST(SegmentInsideIntervalsTest, HoleSplitsInterval) {
  Ring shell({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  Ring hole({{4, 4}, {6, 4}, {6, 6}, {4, 6}});
  Polygon pg(shell, {hole});
  auto ivs = SegmentInsideIntervals({{0, 5}, {10, 5}}, pg);
  // Inside [0,0.4], hole (excluded) (0.4,0.6), inside [0.6,1] — the hole
  // boundary itself belongs to the polygon, interior of the hole does not.
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_NEAR(ivs[0].t0, 0.0, 1e-12);
  EXPECT_NEAR(ivs[0].t1, 0.4, 1e-12);
  EXPECT_NEAR(ivs[1].t0, 0.6, 1e-12);
  EXPECT_NEAR(ivs[1].t1, 1.0, 1e-12);
}

TEST(SegmentInsideIntervalsTest, ConcavePolygonMultipleIntervals) {
  // U-shape: crossing the opening yields two disjoint intervals.
  Ring u({{0, 0}, {10, 0}, {10, 10}, {7, 10}, {7, 3}, {3, 3}, {3, 10},
          {0, 10}});
  Polygon pg(u);
  auto ivs = SegmentInsideIntervals({{-2, 8}, {12, 8}}, pg);
  ASSERT_EQ(ivs.size(), 2u);
  // Inside x in [0,3] => t in [2/14, 5/14]; x in [7,10] => [9/14, 12/14].
  EXPECT_NEAR(ivs[0].t0, 2.0 / 14.0, 1e-12);
  EXPECT_NEAR(ivs[0].t1, 5.0 / 14.0, 1e-12);
  EXPECT_NEAR(ivs[1].t0, 9.0 / 14.0, 1e-12);
  EXPECT_NEAR(ivs[1].t1, 12.0 / 14.0, 1e-12);
}

TEST(SegmentInsideIntervalsTest, DegenerateSegment) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  auto in = SegmentInsideIntervals({{5, 5}, {5, 5}}, sq);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_DOUBLE_EQ(in[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(in[0].t1, 1.0);
  EXPECT_TRUE(SegmentInsideIntervals({{50, 5}, {50, 5}}, sq).empty());
}

TEST(SegmentIntersectsPolygonTest, Basic) {
  Polygon sq = MakeRectangle(0, 0, 10, 10);
  EXPECT_TRUE(SegmentIntersectsPolygon({{-5, 5}, {15, 5}}, sq));
  EXPECT_TRUE(SegmentIntersectsPolygon({{5, 5}, {6, 6}}, sq));
  EXPECT_FALSE(SegmentIntersectsPolygon({{-5, -5}, {-1, -1}}, sq));
  // Grazing a corner counts (closed semantics).
  EXPECT_TRUE(SegmentIntersectsPolygon({{-5, 5}, {5, 15}}, sq));
}

TEST(WithinDistanceTest, ChordThroughCircle) {
  // Segment through the center of a radius-5 ball.
  auto ivs = SegmentWithinDistanceIntervals({{-10, 0}, {10, 0}}, {0, 0}, 5);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].t0, 0.25, 1e-12);
  EXPECT_NEAR(ivs[0].t1, 0.75, 1e-12);
}

TEST(WithinDistanceTest, MissesBall) {
  EXPECT_TRUE(
      SegmentWithinDistanceIntervals({{-10, 6}, {10, 6}}, {0, 0}, 5).empty());
}

TEST(WithinDistanceTest, TangentTouch) {
  auto ivs = SegmentWithinDistanceIntervals({{-10, 5}, {10, 5}}, {0, 0}, 5);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_NEAR(ivs[0].t0, 0.5, 1e-9);
  EXPECT_NEAR(ivs[0].t1, 0.5, 1e-9);
}

TEST(WithinDistanceTest, StartsInside) {
  auto ivs = SegmentWithinDistanceIntervals({{0, 0}, {20, 0}}, {0, 0}, 5);
  ASSERT_EQ(ivs.size(), 1u);
  EXPECT_DOUBLE_EQ(ivs[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(ivs[0].t1, 0.25);
}

TEST(WithinDistanceTest, StationaryLeg) {
  auto in = SegmentWithinDistanceIntervals({{1, 1}, {1, 1}}, {0, 0}, 5);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_DOUBLE_EQ(in[0].t1, 1.0);
  EXPECT_TRUE(
      SegmentWithinDistanceIntervals({{9, 9}, {9, 9}}, {0, 0}, 5).empty());
}

// ---------------------------------------------------------------------------
// Property suite: interval results must agree with dense midpoint sampling
// against Polygon::Contains for randomized segments and polygons.
// ---------------------------------------------------------------------------

class SegmentPolygonProperty : public ::testing::TestWithParam<int> {};

TEST_P(SegmentPolygonProperty, IntervalsMatchSampledContainment) {
  Random rng(1000 + GetParam());
  // Random convex polygon.
  Polygon pg = MakeRegularPolygon(
      {rng.UniformDouble(-2, 2), rng.UniformDouble(-2, 2)},
      rng.UniformDouble(2, 5), static_cast<int>(rng.UniformInt(3, 10)),
      rng.UniformDouble(0, 1));
  for (int trial = 0; trial < 40; ++trial) {
    Segment seg({rng.UniformDouble(-8, 8), rng.UniformDouble(-8, 8)},
                {rng.UniformDouble(-8, 8), rng.UniformDouble(-8, 8)});
    auto ivs = SegmentInsideIntervals(seg, pg);
    auto covered = [&](double t) {
      for (const ParamInterval& iv : ivs) {
        if (t >= iv.t0 && t <= iv.t1) {
          return true;
        }
      }
      return false;
    };
    for (int k = 0; k < 200; ++k) {
      double t = (k + 0.5) / 200.0;
      bool inside = pg.Contains(seg.At(t));
      // Skip probes within epsilon of an interval endpoint (boundary
      // rounding makes the oracle itself ambiguous there).
      bool near_cut = false;
      for (const ParamInterval& iv : ivs) {
        if (std::abs(t - iv.t0) < 1e-9 || std::abs(t - iv.t1) < 1e-9) {
          near_cut = true;
        }
      }
      if (near_cut) {
        continue;
      }
      EXPECT_EQ(covered(t), inside)
          << "t=" << t << " seg=" << seg.a.ToString() << "-"
          << seg.b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SegmentPolygonProperty,
                         ::testing::Range(0, 10));

class WithinDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(WithinDistanceProperty, IntervalsMatchSampledDistance) {
  Random rng(2000 + GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    Point center(rng.UniformDouble(-5, 5), rng.UniformDouble(-5, 5));
    double radius = rng.UniformDouble(0.5, 4);
    Segment seg({rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)},
                {rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)});
    auto ivs = SegmentWithinDistanceIntervals(seg, center, radius);
    for (int k = 0; k < 100; ++k) {
      double t = (k + 0.5) / 100.0;
      bool within = Distance(seg.At(t), center) <= radius;
      bool covered = false;
      bool near_cut = false;
      for (const ParamInterval& iv : ivs) {
        if (t >= iv.t0 && t <= iv.t1) {
          covered = true;
        }
        if (std::abs(t - iv.t0) < 1e-9 || std::abs(t - iv.t1) < 1e-9) {
          near_cut = true;
        }
      }
      if (near_cut) {
        continue;
      }
      EXPECT_EQ(covered, within) << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WithinDistanceProperty,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Frozen-kernel oracle: the segment/polygon kernel as it was before the edge
// box test and the caller-owned buffers, copied verbatim. The live kernel
// must return ==-equal intervals (every endpoint bit-identical) on a seeded
// sweep of the shapes where skipping an edge could matter.
// ---------------------------------------------------------------------------

namespace frozen {

// Appends to `cuts` every parameter t in [0,1] at which segment `s`
// meets edge [a, b]. Collinear overlaps contribute both overlap endpoints.
void CollectEdgeCuts(const Segment& s, Point a, Point b,
                     std::vector<double>* cuts) {
  SegmentIntersection isect = IntersectSegments(s.a, s.b, a, b);
  if (isect.kind == SegmentIntersectionKind::kNone) {
    return;
  }
  Point d = s.b - s.a;
  double len2 = Dot(d, d);
  auto param_of = [&](Point p) {
    if (len2 == 0.0) {
      return 0.0;
    }
    return std::clamp(Dot(p - s.a, d) / len2, 0.0, 1.0);
  };
  cuts->push_back(param_of(isect.p0));
  if (isect.kind == SegmentIntersectionKind::kOverlap) {
    cuts->push_back(param_of(isect.p1));
  }
}

// Merges sorted candidate cut parameters into maximal inside intervals by
// midpoint testing each elementary sub-interval against the polygon.
std::vector<ParamInterval> BuildIntervals(const Segment& s,
                                          const Polygon& polygon,
                                          std::vector<double> cuts) {
  cuts.push_back(0.0);
  cuts.push_back(1.0);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<ParamInterval> out;
  auto push = [&out](double t0, double t1) {
    if (!out.empty() && out.back().t1 == t0) {
      out.back().t1 = t1;  // Coalesce adjacent intervals.
    } else {
      out.push_back({t0, t1});
    }
  };

  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    double t0 = cuts[i];
    double t1 = cuts[i + 1];
    Point mid = s.At((t0 + t1) / 2.0);
    if (polygon.Contains(mid)) {
      push(t0, t1);
    }
  }

  // Isolated touch points: a cut point inside the polygon that is not
  // covered by any interval contributes a zero-length interval.
  for (double t : cuts) {
    bool covered = false;
    for (const ParamInterval& iv : out) {
      if (t >= iv.t0 && t <= iv.t1) {
        covered = true;
        break;
      }
    }
    if (!covered && polygon.Contains(s.At(t))) {
      out.push_back({t, t});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ParamInterval& a, const ParamInterval& b) {
              return a.t0 < b.t0;
            });
  return out;
}

std::vector<ParamInterval> SegmentInsideIntervals(const Segment& s,
                                                  const Polygon& polygon) {
  if (!polygon.Bounds().Intersects(s.Bounds())) {
    return {};
  }
  if (s.a == s.b) {
    if (polygon.Contains(s.a)) {
      return {{0.0, 1.0}};
    }
    return {};
  }
  std::vector<double> cuts;
  const Ring& shell = polygon.shell();
  for (size_t i = 0; i < shell.size(); ++i) {
    Segment e = shell.edge(i);
    CollectEdgeCuts(s, e.a, e.b, &cuts);
  }
  for (const Ring& hole : polygon.holes()) {
    for (size_t i = 0; i < hole.size(); ++i) {
      Segment e = hole.edge(i);
      CollectEdgeCuts(s, e.a, e.b, &cuts);
    }
  }
  return BuildIntervals(s, polygon, std::move(cuts));
}

}  // namespace frozen

/// A polygon with holes from raw vertex lists.
Polygon WithHoles(std::vector<Point> shell,
                  std::vector<std::vector<Point>> holes) {
  std::vector<Ring> rings;
  for (std::vector<Point>& h : holes) {
    rings.push_back(Ring::Create(std::move(h)).ValueOrDie());
  }
  return Polygon::Create(Ring::Create(std::move(shell)).ValueOrDie(),
                         std::move(rings))
      .ValueOrDie();
}

/// A star-shaped (simple, usually non-convex) polygon around `c`.
Polygon RandomStar(Random* rng, Point c, double r, int n) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * 3.141592653589793 * i / n;
    const double rr = r * rng->UniformDouble(0.35, 1.0);
    v.emplace_back(c.x + rr * std::cos(a), c.y + rr * std::sin(a));
  }
  return Polygon::Create(Ring::Create(std::move(v)).ValueOrDie()).ValueOrDie();
}

std::vector<Polygon> OraclePolygons(Random* rng) {
  std::vector<Polygon> out;
  // Unit blocks sharing edges (a city grid), one with a far offset.
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      out.push_back(MakeRectangle(x, y, x + 1, y + 1));
    }
  }
  out.push_back(MakeRectangle(1e6, -1e6, 1e6 + 250.5, -1e6 + 125.25));
  // Holes, including a non-convex one.
  out.push_back(WithHoles({{0, 0}, {10, 0}, {10, 10}, {0, 10}},
                          {{{2, 2}, {4, 2}, {4, 4}, {2, 4}},
                           {{6, 6}, {8, 6}, {7, 8}}}));
  out.push_back(WithHoles({{12, 0}, {20, 0}, {20, 8}, {12, 8}},
                          {{{14, 2}, {18, 2}, {18, 6}, {16, 3}, {14, 6}}}));
  // Stars at city-like coordinates.
  for (int i = 0; i < 6; ++i) {
    out.push_back(RandomStar(rng,
                             {rng->UniformDouble(0, 3000),
                              rng->UniformDouble(0, 3000)},
                             rng->UniformDouble(5, 400), 5 + i));
  }
  return out;
}

std::vector<Segment> OracleSegments(Random* rng,
                                    const std::vector<Polygon>& polys) {
  std::vector<Segment> out;
  for (const Polygon& pg : polys) {
    const BoundingBox b = pg.Bounds();
    const double w = b.width();
    const double h = b.height();
    auto random_point = [&] {
      return Point(rng->UniformDouble(b.min_x - 0.3 * w, b.max_x + 0.3 * w),
                   rng->UniformDouble(b.min_y - 0.3 * h, b.max_y + 0.3 * h));
    };
    // Random segments around and across the polygon.
    for (int i = 0; i < 60; ++i) {
      out.emplace_back(random_point(), random_point());
    }
    std::vector<const Ring*> rings = {&pg.shell()};
    for (const Ring& hole : pg.holes()) {
      rings.push_back(&hole);
    }
    for (const Ring* ring : rings) {
      for (size_t i = 0; i < ring->size(); ++i) {
        const Segment e = ring->edge(i);
        // Legs collinear with the edge: inside it, overlapping one end,
        // touching an end, and disjoint beyond either end.
        static constexpr double kAlong[][2] = {
            {0.25, 0.75}, {-0.5, 0.5}, {0.5, 1.5}, {-1.0, 0.0},
            {1.0, 2.0},   {-2.0, -1.0}, {1.5, 3.0}, {-0.5, 1.5}};
        for (const auto& [t0, t1] : kAlong) {
          out.emplace_back(e.At(t0), e.At(t1));
        }
        // Legs ending at, starting at and passing through the vertex.
        const Point v = e.a;
        const Point p = random_point();
        out.emplace_back(p, v);
        out.emplace_back(v, p);
        out.emplace_back(p, v + (v - p));
        // Degenerate legs: on the vertex and on the edge's midpoint.
        out.emplace_back(v, v);
        out.emplace_back(e.At(0.5), e.At(0.5));
      }
    }
    const Point center = b.Center();
    out.emplace_back(center, center);
    const Point p = random_point();
    out.emplace_back(p, p);
    // Legs passing each box corner at 0, 1 ulp, 1/2 and 2 corridor margins.
    for (int corner = 0; corner < 4; ++corner) {
      out.push_back(CornerLeg(b, corner, 0.0, false));
      out.push_back(CornerLeg(b, corner, 0.0, true));
      out.push_back(CornerLeg(b, corner, 0.5, false));
      out.push_back(CornerLeg(b, corner, 2.0, false));
    }
  }
  return out;
}

TEST(SegmentInsideIntervalsOracleTest, MatchesFrozenKernelBitForBit) {
  Random rng(20261018);
  const std::vector<Polygon> polys = OraclePolygons(&rng);
  const std::vector<Segment> segs = OracleSegments(&rng, polys);
  // Buffers reused across every call: each call must clear them.
  std::vector<double> cuts;
  std::vector<ParamInterval> ivs;
  size_t nonempty = 0;
  size_t touches = 0;
  for (const Polygon& pg : polys) {
    for (const Segment& s : segs) {
      const std::vector<ParamInterval> want =
          frozen::SegmentInsideIntervals(s, pg);
      SegmentInsideIntervals(s, pg, &cuts, &ivs);
      ASSERT_TRUE(ivs == want) << s.a.ToString() << "-" << s.b.ToString()
                               << " vs " << pg.ToString();
      ASSERT_TRUE(SegmentInsideIntervals(s, pg) == want);
      nonempty += want.empty() ? 0 : 1;
      for (const ParamInterval& iv : want) {
        touches += iv.t0 == iv.t1 ? 1 : 0;
      }
    }
  }
  // The sweep reaches the kernel's interesting answers, not just {}.
  EXPECT_GT(nonempty, 1000u);
  EXPECT_GT(touches, 50u);
}

}  // namespace
}  // namespace piet::geometry
