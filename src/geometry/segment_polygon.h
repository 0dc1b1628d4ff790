#ifndef PIET_GEOMETRY_SEGMENT_POLYGON_H_
#define PIET_GEOMETRY_SEGMENT_POLYGON_H_

#include <vector>

#include "geometry/polygon.h"
#include "geometry/segment.h"

namespace piet::geometry {

/// A closed parameter interval [t0, t1] within [0, 1] along a segment.
struct ParamInterval {
  double t0 = 0.0;
  double t1 = 0.0;

  double Length() const { return t1 - t0; }

  friend bool operator==(const ParamInterval& a, const ParamInterval& b) {
    return a.t0 == b.t0 && a.t1 == b.t1;
  }
};

/// Computes the maximal parameter intervals of segment `s` (t in [0, 1])
/// whose points lie inside or on the boundary of the *closed* polygon.
///
/// This is the geometric heart of the paper's trajectory queries: for a
/// linearly-interpolated trajectory leg, "when is the object in region g?"
/// reduces to exactly this computation (query types 4, 5, 7, 8 and the
/// Sec. 5 Piet evaluation all bottom out here).
///
/// Degenerate grazing contacts (a single touch point) are returned as
/// zero-length intervals, which callers typically drop when measuring
/// durations but keep for passes-through semantics.
std::vector<ParamInterval> SegmentInsideIntervals(const Segment& s,
                                                  const Polygon& polygon);

/// The same intervals, written into `*out` (cleared first) with `*cuts` as
/// working storage: allocation-free once both buffers are warm. This is
/// the one implementation; the form above wraps it. Edges whose bounding
/// box misses the segment's are not intersected (they cannot cut it).
void SegmentInsideIntervals(const Segment& s, const Polygon& polygon,
                            std::vector<double>* cuts,
                            std::vector<ParamInterval>* out);

/// True if any point of `s` lies inside or on `polygon`.
bool SegmentIntersectsPolygon(const Segment& s, const Polygon& polygon);

/// Computes the parameter intervals of `s` whose points are within distance
/// `radius` of `center` (ball intersection; solves the quadratic in t).
/// Used for proximity queries (Sec. 4 query 6: "within 100m of a school").
std::vector<ParamInterval> SegmentWithinDistanceIntervals(const Segment& s,
                                                          Point center,
                                                          double radius);

}  // namespace piet::geometry

#endif  // PIET_GEOMETRY_SEGMENT_POLYGON_H_
