#include "geometry/segment_polygon.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/predicates.h"

namespace piet::geometry {

namespace {

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

// Appends the cuts of every edge of `ring` whose bounding box meets `box`,
// in edge order. An edge whose box misses the segment's shares no point
// with the segment, and the sign-exact orientation tests of
// IntersectSegments can only confirm that (kNone), so skipping the edge
// changes no cut.
void CollectRingCuts(const Segment& s, const BoundingBox& box,
                     const Ring& ring, std::vector<double>* cuts) {
  const std::vector<Point>& v = ring.vertices();
  const size_t n = v.size();
  for (size_t i = 0; i < n; ++i) {
    const Point a = v[i];
    const Point b = v[i + 1 == n ? 0 : i + 1];
    if ((a.x < box.min_x && b.x < box.min_x) ||
        (a.x > box.max_x && b.x > box.max_x) ||
        (a.y < box.min_y && b.y < box.min_y) ||
        (a.y > box.max_y && b.y > box.max_y)) {
      continue;
    }
    CollectEdgeCuts(s, a, b, cuts);
  }
}

// Merges the candidate cut parameters into maximal inside intervals by
// midpoint testing each elementary sub-interval against the polygon.
void BuildIntervals(const Segment& s, const Polygon& polygon,
                    std::vector<double>* cuts_buf,
                    std::vector<ParamInterval>* out_buf) {
  std::vector<double>& cuts = *cuts_buf;
  std::vector<ParamInterval>& out = *out_buf;
  cuts.push_back(0.0);
  cuts.push_back(1.0);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

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
}

}  // namespace

void SegmentInsideIntervals(const Segment& s, const Polygon& polygon,
                            std::vector<double>* cuts,
                            std::vector<ParamInterval>* out) {
  cuts->clear();
  out->clear();
  if (!polygon.Bounds().Intersects(s.Bounds())) {
    return;
  }
  if (s.a == s.b) {
    if (polygon.Contains(s.a)) {
      out->push_back({0.0, 1.0});
    }
    return;
  }
  // The edge box test needs a box that holds both endpoints; a non-finite
  // segment gets an unbounded one, so none of its edges is skipped.
  const bool finite = std::isfinite(s.a.x) && std::isfinite(s.a.y) &&
                      std::isfinite(s.b.x) && std::isfinite(s.b.y);
  const double inf = std::numeric_limits<double>::infinity();
  const BoundingBox box =
      finite ? s.Bounds() : BoundingBox(-inf, -inf, inf, inf);
  CollectRingCuts(s, box, polygon.shell(), cuts);
  for (const Ring& hole : polygon.holes()) {
    CollectRingCuts(s, box, hole, cuts);
  }
  BuildIntervals(s, polygon, cuts, out);
}

std::vector<ParamInterval> SegmentInsideIntervals(const Segment& s,
                                                  const Polygon& polygon) {
  std::vector<double> cuts;
  std::vector<ParamInterval> out;
  SegmentInsideIntervals(s, polygon, &cuts, &out);
  return out;
}

bool SegmentIntersectsPolygon(const Segment& s, const Polygon& polygon) {
  return !SegmentInsideIntervals(s, polygon).empty();
}

std::vector<ParamInterval> SegmentWithinDistanceIntervals(const Segment& s,
                                                          Point center,
                                                          double radius) {
  // |s.a + t*d - center|^2 <= r^2, a quadratic a2*t^2 + a1*t + a0 <= 0.
  Point d = s.b - s.a;
  Point m = s.a - center;
  double a2 = Dot(d, d);
  double a1 = 2.0 * Dot(m, d);
  double a0 = Dot(m, m) - radius * radius;

  if (a2 == 0.0) {
    // Stationary leg: inside the ball for all of [0,1] or none of it.
    if (a0 <= 0.0) {
      return {{0.0, 1.0}};
    }
    return {};
  }

  double disc = a1 * a1 - 4.0 * a2 * a0;
  if (disc < 0.0) {
    return {};
  }
  double sq = std::sqrt(disc);
  double r0 = (-a1 - sq) / (2.0 * a2);
  double r1 = (-a1 + sq) / (2.0 * a2);
  double t0 = std::max(0.0, std::min(r0, r1));
  double t1 = std::min(1.0, std::max(r0, r1));
  if (t0 > t1) {
    return {};
  }
  return {{t0, t1}};
}

}  // namespace piet::geometry
