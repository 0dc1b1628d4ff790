#include "core/geometry/batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "geometry/predicates.h"
#include "geometry/segment.h"

namespace piet::core::batch {

using geometry::Point;
using geometry::PointLocation;
using geometry::Ring;

namespace {

constexpr uint8_t kParityBit = 1;
constexpr uint8_t kBoundaryBit = 2;

constexpr uint8_t kOutside = static_cast<uint8_t>(PointLocation::kOutside);
constexpr uint8_t kBoundary = static_cast<uint8_t>(PointLocation::kBoundary);
constexpr uint8_t kInside = static_cast<uint8_t>(PointLocation::kInside);

geometry::BoundingBox ExtentOf(
    const std::vector<const geometry::Polygon*>& polys) {
  geometry::BoundingBox box;
  for (const geometry::Polygon* p : polys) {
    box.ExtendWith(p->Bounds());
  }
  // An empty set keeps a valid (never queried) grid extent.
  return box.empty() ? geometry::BoundingBox(0, 0, 0, 0) : box;
}

// About one polygon per cell for evenly sized, evenly spread polygons.
size_t CellsPerAxis(size_t polygons) {
  return std::clamp<size_t>(
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(polygons)))),
      1, 256);
}

}  // namespace

PolygonBatcher::PolygonBatcher(const geometry::Polygon* poly) : poly_(poly) {
  bounds_ = poly->Bounds();
  auto add_ring = [this](const Ring& ring) {
    RingRange range;
    range.begin = ax_.size();
    const std::vector<Point>& v = ring.vertices();
    const size_t n = v.size();
    for (size_t i = 0; i < n; ++i) {
      const Point& a = v[i];
      const Point& b = v[(i + 1) % n];
      ax_.push_back(a.x);
      ay_.push_back(a.y);
      bx_.push_back(b.x);
      by_.push_back(b.y);
    }
    range.end = ax_.size();
    range.bounds = ring.Bounds();
    return range;
  };
  shell_ = add_ring(poly->shell());
  holes_.reserve(poly->holes().size());
  for (const Ring& hole : poly->holes()) {
    holes_.push_back(add_ring(hole));
  }
}

void PolygonBatcher::SweepRing(const RingRange& ring,
                               const std::vector<uint32_t>& subset,
                               const std::vector<double>& px,
                               const std::vector<double>& py,
                               std::vector<uint8_t>* state) const {
  std::vector<uint8_t>& st = *state;
  for (size_t e = ring.begin; e < ring.end; ++e) {
    const Point a(ax_[e], ay_[e]);
    const Point b(bx_[e], by_[e]);
    for (const uint32_t j : subset) {
      const uint8_t s = st[j];
      if ((s & kBoundaryBit) != 0) {
        continue;
      }
      const Point p(px[j], py[j]);
      if (geometry::OnSegment(p, a, b)) {
        st[j] = s | kBoundaryBit;
        continue;
      }
      // Ray casting toward +x, with the usual half-open rule on y — the
      // exact expression of Ring::Locate, per edge in the same order.
      if ((a.y > p.y) != (b.y > p.y)) {
        const double x_cross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
        if (p.x < x_cross) {
          st[j] = s ^ kParityBit;
        }
      }
    }
  }
}

void PolygonBatcher::ContainsBatch(std::span<const double> xs,
                                   std::span<const double> ys,
                                   BatchScratch* scratch,
                                   std::vector<uint8_t>* out) const {
  const size_t n = xs.size();
  out->assign(n, 0);
  if (n == 0) {
    return;
  }
  BatchScratch& s = *scratch;

  // Phase 1: branch-free bounding-box verdicts over the raw columns (the
  // autovectorizable sweep), then compaction of the survivors.
  s.mask.resize(n);
  const double min_x = bounds_.min_x, max_x = bounds_.max_x;
  const double min_y = bounds_.min_y, max_y = bounds_.max_y;
  for (size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double y = ys[i];
    s.mask[i] = static_cast<uint8_t>(static_cast<int>(x >= min_x) &
                                     static_cast<int>(x <= max_x) &
                                     static_cast<int>(y >= min_y) &
                                     static_cast<int>(y <= max_y));
  }
  s.cand.clear();
  s.px.clear();
  s.py.clear();
  for (size_t i = 0; i < n; ++i) {
    if (s.mask[i] != 0) {
      s.cand.push_back(static_cast<uint32_t>(i));
      s.px.push_back(xs[i]);
      s.py.push_back(ys[i]);
    }
  }
  const size_t m = s.cand.size();
  if (m == 0) {
    return;
  }

  // Phase 2: edge-major shell sweep over every candidate.
  s.state.assign(m, 0);
  s.loc.assign(m, kOutside);
  s.subset.resize(m);
  for (size_t j = 0; j < m; ++j) {
    s.subset[j] = static_cast<uint32_t>(j);
  }
  SweepRing(shell_, s.subset, s.px, s.py, &s.state);
  for (size_t j = 0; j < m; ++j) {
    s.loc[j] = (s.state[j] & kBoundaryBit) != 0 ? kBoundary
               : (s.state[j] & kParityBit) != 0 ? kInside
                                                : kOutside;
  }

  // Phase 3: holes, in declaration order — the first hole that contains or
  // borders a shell-interior candidate decides it, like Polygon::Locate.
  if (!holes_.empty()) {
    s.active.clear();
    for (size_t j = 0; j < m; ++j) {
      if (s.loc[j] == kInside) {
        s.active.push_back(static_cast<uint32_t>(j));
      }
    }
    for (const RingRange& hole : holes_) {
      if (s.active.empty()) {
        break;
      }
      s.subset.clear();
      for (const uint32_t j : s.active) {
        // A candidate outside the hole's box is outside the hole (the
        // scalar ring test's bounds precheck); it stays undecided.
        if (hole.bounds.Contains(Point(s.px[j], s.py[j]))) {
          s.state[j] = 0;
          s.subset.push_back(j);
        }
      }
      SweepRing(hole, s.subset, s.px, s.py, &s.state);
      std::vector<uint32_t> still_active;
      still_active.reserve(s.active.size());
      for (const uint32_t j : s.active) {
        bool swept = std::binary_search(s.subset.begin(), s.subset.end(), j);
        if (!swept) {
          still_active.push_back(j);
          continue;
        }
        if ((s.state[j] & kBoundaryBit) != 0) {
          s.loc[j] = kBoundary;  // On a hole edge: boundary, decided.
        } else if ((s.state[j] & kParityBit) != 0) {
          s.loc[j] = kOutside;  // Strictly inside a hole: outside, decided.
        } else {
          still_active.push_back(j);  // Outside this hole; keep going.
        }
      }
      s.active = std::move(still_active);
    }
  }

  for (size_t j = 0; j < m; ++j) {
    (*out)[s.cand[j]] = static_cast<uint8_t>(s.loc[j] != kOutside);
  }
}

bool PolygonBatcher::AnyLegIntersects(std::span<const double> xs,
                                      std::span<const double> ys) const {
  const size_t n = xs.size();
  if (n < 2) {
    return false;
  }
  // Tile-local branch-free leg-box overlap masks (mirrors
  // BoundingBox::Intersects against a never-empty polygon box), then the
  // exact closed segment/polygon test on the survivors.
  constexpr size_t kTile = 256;
  uint8_t mask[kTile];
  const double min_x = bounds_.min_x, max_x = bounds_.max_x;
  const double min_y = bounds_.min_y, max_y = bounds_.max_y;
  const size_t legs = n - 1;
  for (size_t base = 0; base < legs; base += kTile) {
    const size_t count = std::min(kTile, legs - base);
    for (size_t k = 0; k < count; ++k) {
      const size_t i = base + k;
      const double lx0 = std::min(xs[i], xs[i + 1]);
      const double lx1 = std::max(xs[i], xs[i + 1]);
      const double ly0 = std::min(ys[i], ys[i + 1]);
      const double ly1 = std::max(ys[i], ys[i + 1]);
      mask[k] = static_cast<uint8_t>(static_cast<int>(lx0 <= max_x) &
                                     static_cast<int>(min_x <= lx1) &
                                     static_cast<int>(ly0 <= max_y) &
                                     static_cast<int>(min_y <= ly1));
    }
    for (size_t k = 0; k < count; ++k) {
      if (mask[k] == 0) {
        continue;
      }
      const size_t i = base + k;
      const geometry::Segment leg(Point(xs[i], ys[i]),
                                  Point(xs[i + 1], ys[i + 1]));
      if (poly_->IntersectsSegment(leg)) {
        return true;
      }
    }
  }
  return false;
}

LegRefiner::LegRefiner(std::vector<const geometry::Polygon*> polys)
    : polys_(std::move(polys)),
      extent_(ExtentOf(polys_)),
      grid_(extent_, CellsPerAxis(polys_.size())) {
  boxes_.reserve(polys_.size());
  for (size_t q = 0; q < polys_.size(); ++q) {
    const geometry::BoundingBox b = polys_[q]->Bounds();
    grid_.Insert(b, static_cast<index::GridIndex::Id>(q));
    boxes_.push_back({b, std::max({std::abs(b.min_x), std::abs(b.min_y),
                                   std::abs(b.max_x), std::abs(b.max_y)})});
  }
}

size_t LegRefiner::Refine(std::span<const double> ts,
                          std::span<const double> xs,
                          std::span<const double> ys,
                          LegScratch* scratch) const {
  LegScratch& s = *scratch;
  if (s.pieces.size() != polys_.size()) {
    s.pieces.assign(polys_.size(), {});
    s.distance.assign(polys_.size(), 0.0);
    s.seen.assign(polys_.size(), 0);
    s.hit.clear();
  }
  for (const uint32_t q : s.hit) {
    s.pieces[q].clear();
    s.distance[q] = 0.0;
  }
  s.hit.clear();
  s.corridor_rejects = 0;
  s.stationary_reuses = 0;
  s.idle_valid = false;
  const size_t n = ts.size();
  if (n == 0 || polys_.empty()) {
    return 0;
  }

  if (n == 1) {
    const Point p(xs[0], ys[0]);
    grid_.VisitPoint(p, [&](index::GridIndex::Id id) {
      const auto q = static_cast<uint32_t>(id);
      if (polys_[q]->Contains(p)) {
        s.pieces[q].emplace_back(temporal::TimePoint(ts[0]),
                                 temporal::TimePoint(ts[0]));
        s.hit.push_back(q);
      }
    });
    std::sort(s.hit.begin(), s.hit.end());
    return 0;
  }

  // The corridor margin (DESIGN.md §12): a box corner whose computed cross
  // product with the leg exceeds kCorridorEps·(1+M)·(|dx|+|dy|), M the
  // largest absolute coordinate of the leg and the box, is on that side of
  // the leg's line whatever the rounding of the cross product and of the
  // kernel's At(t). Past kMaxCorridorCoord the products could overflow, and
  // a margin below the smallest normal double could underflow, so such
  // legs and polygons always take the exact kernel.
  constexpr double kCorridorEps = 1e-9;
  constexpr double kMaxCorridorCoord = 1e150;
  constexpr geometry::ParamInterval kWholeLeg{0.0, 1.0};

  size_t refines = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const geometry::Segment leg(Point(xs[i], ys[i]),
                                Point(xs[i + 1], ys[i + 1]));
    const geometry::BoundingBox box = leg.Bounds();
    if (!box.Intersects(extent_)) {
      continue;
    }
    const double t0 = ts[i];
    const temporal::Duration span = ts[i + 1] - ts[i];
    double leg_len = -1.0;  // Computed on the leg's first inside piece.
    // Appends the kernel's answer `ivs` for polygon q over this leg.
    auto append = [&](uint32_t q,
                      std::span<const geometry::ParamInterval> ivs) {
      std::vector<temporal::Interval>& pieces = s.pieces[q];
      if (pieces.empty()) {
        s.hit.push_back(q);
      }
      if (leg_len < 0.0) {
        leg_len = Distance(leg.a, leg.b);
      }
      for (const geometry::ParamInterval& iv : ivs) {
        pieces.emplace_back(temporal::TimePoint(t0 + iv.t0 * span),
                            temporal::TimePoint(t0 + iv.t1 * span));
        if (leg_len != 0.0) {
          s.distance[q] += leg_len * iv.Length();
        }
      }
    };

    const bool idle = leg.a == leg.b;
    if (idle) {
      // The kernel answers a stationary leg by Contains(point) alone, so
      // the previous stationary leg at the same bits answers this one.
      const auto bx = std::bit_cast<uint64_t>(leg.a.x);
      const auto by = std::bit_cast<uint64_t>(leg.a.y);
      if (s.idle_valid && s.idle_x == bx && s.idle_y == by) {
        for (const uint32_t q : s.idle_hits) {
          append(q, {&kWholeLeg, 1});
        }
        s.stationary_reuses += s.idle_candidates;
        continue;
      }
      s.idle_valid = true;
      s.idle_x = bx;
      s.idle_y = by;
      s.idle_candidates = 0;
      s.idle_hits.clear();
    }

    const double dx = leg.b.x - leg.a.x;
    const double dy = leg.b.y - leg.a.y;
    const double leg_mag = std::max({std::abs(leg.a.x), std::abs(leg.a.y),
                                     std::abs(leg.b.x), std::abs(leg.b.y)});
    const double scale = kCorridorEps * (std::abs(dx) + std::abs(dy));
    const bool corridor = !idle && leg_mag <= kMaxCorridorCoord &&
                          scale >= std::numeric_limits<double>::min();
    const uint64_t stamp = ++s.stamp;
    grid_.VisitBox(box, [&](index::GridIndex::Id id) {
      const auto q = static_cast<uint32_t>(id);
      if (s.seen[q] == stamp) {
        return;
      }
      s.seen[q] = stamp;
      if (idle) {
        ++s.idle_candidates;
      } else if (corridor && boxes_[q].magnitude <= kMaxCorridorCoord) {
        // The smallest and largest computed corner cross products:
        // fl(u - v) is monotone in u and v, so these are the extremes of
        // the four corners' fl(dx·(y - a.y) - dy·(x - a.x)).
        const geometry::BoundingBox& b = boxes_[q].box;
        const double u0 = dx * (b.min_y - leg.a.y);
        const double u1 = dx * (b.max_y - leg.a.y);
        const double v0 = dy * (b.min_x - leg.a.x);
        const double v1 = dy * (b.max_x - leg.a.x);
        const double lo = std::min(u0, u1) - std::max(v0, v1);
        const double hi = std::max(u0, u1) - std::min(v0, v1);
        const double margin =
            scale * (1.0 + std::max(leg_mag, boxes_[q].magnitude));
        if (lo > margin || hi < -margin) {
          ++s.corridor_rejects;
          return;
        }
      }
      ++refines;
      geometry::SegmentInsideIntervals(leg, *polys_[q], &s.cuts, &s.ivs);
      if (s.ivs.empty()) {
        return;
      }
      if (idle) {
        s.idle_hits.push_back(q);
      }
      append(q, s.ivs);
    });
  }
  std::sort(s.hit.begin(), s.hit.end());
  return refines;
}

}  // namespace piet::core::batch
