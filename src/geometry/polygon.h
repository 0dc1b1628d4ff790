#ifndef PIET_GEOMETRY_POLYGON_H_
#define PIET_GEOMETRY_POLYGON_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/box.h"
#include "geometry/segment.h"

namespace piet::geometry {

/// Where a point lies relative to a closed region.
enum class PointLocation {
  kOutside = 0,
  kBoundary,
  kInside,
};

/// A simple closed ring of >= 3 vertices, stored without the repeated
/// closing vertex. Orientation is normalized to counter-clockwise by
/// Create(); raw construction keeps the given order.
class Ring {
 public:
  Ring() = default;
  explicit Ring(std::vector<Point> vertices);

  /// Validates (>= 3 vertices, nonzero area, no duplicate consecutive
  /// vertices) and normalizes orientation to CCW.
  static Result<Ring> Create(std::vector<Point> vertices);

  const std::vector<Point>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }
  Segment edge(size_t i) const {
    return Segment(vertices_[i], vertices_[(i + 1) % vertices_.size()]);
  }

  /// Signed area: positive for CCW rings (shoelace formula).
  double SignedArea() const;
  double Area() const;
  double Perimeter() const;
  Point Centroid() const;
  bool IsCounterClockwise() const { return SignedArea() > 0.0; }
  /// True if every interior angle turns the same way (no reflex vertex).
  bool IsConvex() const;
  /// True if no two non-adjacent edges intersect.
  bool IsSimple() const;

  /// Even-odd crossing test with explicit boundary detection.
  PointLocation Locate(Point p) const;

  void Reverse();

  BoundingBox Bounds() const { return bounds_; }

  std::string ToString() const;

 private:
  std::vector<Point> vertices_;
  BoundingBox bounds_;
};

/// A polygon: one outer ring (CCW) plus zero or more hole rings (the paper's
/// `region` geometry admits holes). Holes must be disjoint and inside the
/// shell; Create() checks containment of hole centroids only (cheap sanity).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(Ring shell, std::vector<Ring> holes = {});

  static Result<Polygon> Create(Ring shell, std::vector<Ring> holes = {});

  const Ring& shell() const { return shell_; }
  const std::vector<Ring>& holes() const { return holes_; }

  double Area() const;
  double Perimeter() const;
  Point Centroid() const;
  BoundingBox Bounds() const { return shell_.Bounds(); }
  bool IsConvex() const { return holes_.empty() && shell_.IsConvex(); }

  /// Interior / boundary / exterior location of `p`, holes respected.
  PointLocation Locate(Point p) const;

  /// True if `p` is inside or on the boundary. Matches the paper's closed
  /// regions: a sampled position on a neighborhood border counts as in it
  /// (a point may belong to two adjacent polygons).
  bool Contains(Point p) const { return Locate(p) != PointLocation::kOutside; }

  /// True if `p` is strictly interior.
  bool ContainsInterior(Point p) const {
    return Locate(p) == PointLocation::kInside;
  }

  /// True if the closed polygon and the closed segment share a point.
  bool IntersectsSegment(const Segment& s) const;

  /// True if the two closed polygons share a point (boundary touch counts).
  bool Intersects(const Polygon& other) const;

  /// True if `other` is entirely within this polygon (boundary allowed):
  /// inside the shell, and no hole's interior meets `other`'s interior.
  bool ContainsPolygon(const Polygon& other) const;

  std::string ToString() const;

 private:
  Ring shell_;
  std::vector<Ring> holes_;
};

/// Builds an axis-aligned rectangle polygon.
Polygon MakeRectangle(double x0, double y0, double x1, double y1);

/// Builds a regular n-gon centered at `center`.
Polygon MakeRegularPolygon(Point center, double radius, int sides,
                           double phase = 0.0);

}  // namespace piet::geometry

#endif  // PIET_GEOMETRY_POLYGON_H_
