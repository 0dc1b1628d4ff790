#ifndef PIET_TESTS_CORNER_LEG_H_
#define PIET_TESTS_CORNER_LEG_H_

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/segment.h"

namespace piet::geometry {

/// batch::LegRefiner's corridor margin for a leg against a polygon box
/// (DESIGN.md §12): 1e-9 · (1 + M) · (|dx| + |dy|), M the largest absolute
/// coordinate of the leg and the box.
inline double CorridorMargin(Point a, Point b, const BoundingBox& box) {
  const double m = std::max({std::abs(a.x), std::abs(a.y), std::abs(b.x),
                             std::abs(b.y), std::abs(box.min_x),
                             std::abs(box.min_y), std::abs(box.max_x),
                             std::abs(box.max_y)});
  return 1e-9 * (1.0 + m) * (std::abs(b.x - a.x) + std::abs(b.y - a.y));
}

/// A leg across corner `corner` (0..3) of `box`, perpendicular to the
/// corner's diagonal so the whole box lies on one side of its line, and
/// long enough that the leg's box meets `box`. The line passes the corner
/// outward at `margins` corridor margins, or, with `ulp`, through the
/// corner moved one ulp outward in x.
inline Segment CornerLeg(const BoundingBox& box, int corner, double margins,
                         bool ulp) {
  const double sx = (corner & 1) != 0 ? 1.0 : -1.0;
  const double sy = (corner & 2) != 0 ? 1.0 : -1.0;
  Point c(sx > 0 ? box.max_x : box.min_x, sy > 0 ? box.max_y : box.min_y);
  if (ulp) {
    c.x = std::nextafter(c.x, sx * std::numeric_limits<double>::infinity());
  }
  const double half = std::max(box.width(), box.height()) / 2.0;
  const Point u(-sy * half, sx * half);
  auto at = [&](double offset) {
    const Point o(c.x + sx * offset / std::sqrt(2.0),
                  c.y + sy * offset / std::sqrt(2.0));
    return Segment(o - u, o + u);
  };
  const Segment through = at(0.0);
  // The corner's cross product with the leg is about |d| · offset.
  return at(margins * CorridorMargin(through.a, through.b, box) /
            through.Length());
}

}  // namespace piet::geometry

#endif  // PIET_TESTS_CORNER_LEG_H_
