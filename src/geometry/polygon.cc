#include "geometry/polygon.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "geometry/predicates.h"

namespace piet::geometry {

Ring::Ring(std::vector<Point> vertices) : vertices_(std::move(vertices)) {
  for (const Point& p : vertices_) {
    bounds_.ExtendWith(p);
  }
}

Result<Ring> Ring::Create(std::vector<Point> vertices) {
  // Drop a repeated closing vertex if the caller included one.
  if (vertices.size() >= 2 && vertices.front() == vertices.back()) {
    vertices.pop_back();
  }
  if (vertices.size() < 3) {
    return Status::InvalidArgument("ring needs at least 3 distinct vertices");
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] == vertices[(i + 1) % vertices.size()]) {
      return Status::InvalidArgument("ring has duplicate consecutive vertex");
    }
  }
  Ring ring(std::move(vertices));
  if (ring.SignedArea() == 0.0) {
    return Status::InvalidArgument("ring is degenerate (zero area)");
  }
  if (!ring.IsCounterClockwise()) {
    ring.Reverse();
  }
  if (!ring.IsSimple()) {
    return Status::InvalidArgument("ring is self-intersecting");
  }
  return ring;
}

double Ring::SignedArea() const {
  double acc = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point& p = vertices_[i];
    const Point& q = vertices_[(i + 1) % vertices_.size()];
    acc += Cross(p, q);
  }
  return acc / 2.0;
}

double Ring::Area() const { return std::abs(SignedArea()); }

double Ring::Perimeter() const {
  double acc = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    acc += edge(i).Length();
  }
  return acc;
}

Point Ring::Centroid() const {
  // Area-weighted centroid; falls back to vertex mean for degenerate rings.
  double a = SignedArea();
  if (a == 0.0) {
    Point mean;
    for (const Point& p : vertices_) {
      mean = mean + p;
    }
    return mean / static_cast<double>(vertices_.size());
  }
  double cx = 0.0, cy = 0.0;
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const Point& p = vertices_[i];
    const Point& q = vertices_[(i + 1) % vertices_.size()];
    double w = Cross(p, q);
    cx += (p.x + q.x) * w;
    cy += (p.y + q.y) * w;
  }
  return Point(cx / (6.0 * a), cy / (6.0 * a));
}

bool Ring::IsConvex() const {
  int sign = 0;
  size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    int o = Orientation(vertices_[i], vertices_[(i + 1) % n],
                        vertices_[(i + 2) % n]);
    if (o == 0) {
      continue;
    }
    if (sign == 0) {
      sign = o;
    } else if (o != sign) {
      return false;
    }
  }
  return true;
}

bool Ring::IsSimple() const {
  size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    Segment ei = edge(i);
    for (size_t j = i + 1; j < n; ++j) {
      // Adjacent edges share a vertex by construction; skip them.
      if (j == i || (j + 1) % n == i || (i + 1) % n == j) {
        continue;
      }
      if (SegmentsIntersect(ei.a, ei.b, edge(j).a, edge(j).b)) {
        return false;
      }
    }
  }
  return true;
}

PointLocation Ring::Locate(Point p) const {
  if (!bounds_.Contains(p)) {
    return PointLocation::kOutside;
  }
  size_t n = vertices_.size();
  bool inside = false;
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    if (OnSegment(p, a, b)) {
      return PointLocation::kBoundary;
    }
    // Ray casting toward +x, with the usual half-open rule on y.
    if ((a.y > p.y) != (b.y > p.y)) {
      double x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x_cross) {
        inside = !inside;
      }
    }
  }
  return inside ? PointLocation::kInside : PointLocation::kOutside;
}

void Ring::Reverse() { std::reverse(vertices_.begin(), vertices_.end()); }

std::string Ring::ToString() const {
  std::ostringstream os;
  os << "Ring[" << vertices_.size() << " pts, area=" << Area() << "]";
  return os.str();
}

namespace {

/// True when some piece of `ring`'s boundary has `pred(midpoint)`: each
/// edge is cut at the vertices of `cuts` lying on it. Without a proper
/// crossing, a piece meets the other boundary only at its ends or along
/// its whole length, so its midpoint locates all of it.
template <typename Pred>
bool AnyPiece(const Ring& ring, const std::vector<const Ring*>& cuts,
              Pred&& pred) {
  std::vector<Point> stops;
  for (size_t i = 0; i < ring.size(); ++i) {
    const Segment e = ring.edge(i);
    stops.assign({e.a, e.b});
    for (const Ring* cut : cuts) {
      for (const Point& v : cut->vertices()) {
        if (OnSegment(v, e.a, e.b)) {
          stops.push_back(v);
        }
      }
    }
    const bool by_x = std::abs(e.b.x - e.a.x) >= std::abs(e.b.y - e.a.y);
    std::sort(stops.begin(), stops.end(), [by_x](Point p, Point q) {
      return by_x ? p.x < q.x : p.y < q.y;
    });
    for (size_t k = 0; k + 1 < stops.size(); ++k) {
      if (stops[k] != stops[k + 1] && pred((stops[k] + stops[k + 1]) / 2.0)) {
        return true;
      }
    }
  }
  return false;
}

/// True when the open interiors of `hole` and `other` share a point.
bool InteriorsMeet(const Ring& hole, const Polygon& other) {
  if (!hole.Bounds().Intersects(other.Bounds())) {
    return false;
  }
  std::vector<const Ring*> rings = {&other.shell()};
  for (const Ring& h : other.holes()) {
    rings.push_back(&h);
  }
  // A proper crossing of the two boundaries.
  for (size_t i = 0; i < hole.size(); ++i) {
    const Segment e = hole.edge(i);
    for (const Ring* ring : rings) {
      for (size_t j = 0; j < ring->size(); ++j) {
        const Segment f = ring->edge(j);
        if (Orientation(e.a, e.b, f.a) * Orientation(e.a, e.b, f.b) < 0 &&
            Orientation(f.a, f.b, e.a) * Orientation(f.a, f.b, e.b) < 0) {
          return true;
        }
      }
    }
  }
  // A piece of either boundary inside the other's interior: interior
  // points of both lie beside it.
  if (AnyPiece(hole, rings, [&](Point m) {
        return other.Locate(m) == PointLocation::kInside;
      })) {
    return true;
  }
  for (const Ring* ring : rings) {
    if (AnyPiece(*ring, {&hole}, [&](Point m) {
          return hole.Locate(m) == PointLocation::kInside;
        })) {
      return true;
    }
  }
  // Otherwise the interiors meet only when the hole's boundary runs all
  // along `other`'s shell, i.e. the two are one region.
  return !AnyPiece(hole, rings, [&](Point m) {
    return other.shell().Locate(m) != PointLocation::kBoundary;
  });
}

}  // namespace

Polygon::Polygon(Ring shell, std::vector<Ring> holes)
    : shell_(std::move(shell)), holes_(std::move(holes)) {}

Result<Polygon> Polygon::Create(Ring shell, std::vector<Ring> holes) {
  for (const Ring& hole : holes) {
    if (shell.Locate(hole.Centroid()) == PointLocation::kOutside) {
      return Status::InvalidArgument("hole centroid outside shell");
    }
  }
  return Polygon(std::move(shell), std::move(holes));
}

double Polygon::Area() const {
  double a = shell_.Area();
  for (const Ring& h : holes_) {
    a -= h.Area();
  }
  return a;
}

double Polygon::Perimeter() const {
  double p = shell_.Perimeter();
  for (const Ring& h : holes_) {
    p += h.Perimeter();
  }
  return p;
}

Point Polygon::Centroid() const {
  if (holes_.empty()) {
    return shell_.Centroid();
  }
  // Weighted combination: shell centroid weighted by shell area minus each
  // hole centroid weighted by hole area.
  double total = shell_.Area();
  Point acc = shell_.Centroid() * total;
  for (const Ring& h : holes_) {
    acc = acc - h.Centroid() * h.Area();
    total -= h.Area();
  }
  if (total == 0.0) {
    return shell_.Centroid();
  }
  return acc / total;
}

PointLocation Polygon::Locate(Point p) const {
  PointLocation loc = shell_.Locate(p);
  if (loc != PointLocation::kInside) {
    return loc;
  }
  for (const Ring& h : holes_) {
    PointLocation hl = h.Locate(p);
    if (hl == PointLocation::kBoundary) {
      return PointLocation::kBoundary;
    }
    if (hl == PointLocation::kInside) {
      return PointLocation::kOutside;
    }
  }
  return PointLocation::kInside;
}

bool Polygon::IntersectsSegment(const Segment& s) const {
  if (!Bounds().Intersects(s.Bounds())) {
    return false;
  }
  if (Contains(s.a) || Contains(s.b)) {
    return true;
  }
  for (size_t i = 0; i < shell_.size(); ++i) {
    Segment e = shell_.edge(i);
    if (SegmentsIntersect(e.a, e.b, s.a, s.b)) {
      return true;
    }
  }
  return false;
}

bool Polygon::Intersects(const Polygon& other) const {
  if (!Bounds().Intersects(other.Bounds())) {
    return false;
  }
  // Any vertex containment?
  for (const Point& p : other.shell_.vertices()) {
    if (Contains(p)) {
      return true;
    }
  }
  for (const Point& p : shell_.vertices()) {
    if (other.Contains(p)) {
      return true;
    }
  }
  // Any edge crossing?
  for (size_t i = 0; i < shell_.size(); ++i) {
    Segment e = shell_.edge(i);
    for (size_t j = 0; j < other.shell_.size(); ++j) {
      Segment f = other.shell_.edge(j);
      if (SegmentsIntersect(e.a, e.b, f.a, f.b)) {
        return true;
      }
    }
  }
  return false;
}

bool Polygon::ContainsPolygon(const Polygon& other) const {
  if (!Bounds().Contains(other.Bounds())) {
    return false;
  }
  for (const Point& p : other.shell_.vertices()) {
    if (!Contains(p)) {
      return false;
    }
  }
  // Vertices inside is not sufficient for non-convex shells: edges could
  // still cross. Check for proper edge crossings.
  for (size_t i = 0; i < shell_.size(); ++i) {
    Segment e = shell_.edge(i);
    for (size_t j = 0; j < other.shell_.size(); ++j) {
      Segment f = other.shell_.edge(j);
      auto isect = IntersectSegments(e.a, e.b, f.a, f.b);
      if (isect.kind == SegmentIntersectionKind::kPoint) {
        // A touching point (at a segment endpoint) is fine; a proper
        // crossing — intersection strictly interior to both segments —
        // means `other` leaves this polygon.
        Point p = isect.p0;
        bool strict_e = p != e.a && p != e.b;
        bool strict_f = p != f.a && p != f.b;
        if (strict_e && strict_f) {
          return false;
        }
      }
    }
  }
  // Vertex containment sees a hole only when a vertex of `other` falls in
  // it; a hole whose interior meets `other`'s leaves part of `other` out.
  for (const Ring& hole : holes_) {
    if (InteriorsMeet(hole, other)) {
      return false;
    }
  }
  return true;
}

std::string Polygon::ToString() const {
  std::ostringstream os;
  os << "Polygon[shell " << shell_.size() << " pts, " << holes_.size()
     << " holes, area=" << Area() << "]";
  return os.str();
}

Polygon MakeRectangle(double x0, double y0, double x1, double y1) {
  if (x0 > x1) {
    std::swap(x0, x1);
  }
  if (y0 > y1) {
    std::swap(y0, y1);
  }
  Ring shell({Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)});
  return Polygon(std::move(shell));
}

Polygon MakeRegularPolygon(Point center, double radius, int sides,
                           double phase) {
  std::vector<Point> pts;
  pts.reserve(static_cast<size_t>(sides));
  for (int i = 0; i < sides; ++i) {
    double angle = phase + 2.0 * M_PI * i / sides;
    pts.emplace_back(center.x + radius * std::cos(angle),
                     center.y + radius * std::sin(angle));
  }
  return Polygon(Ring(std::move(pts)));
}

}  // namespace piet::geometry
