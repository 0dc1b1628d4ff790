#ifndef PIET_CORE_GEOMETRY_BATCH_H_
#define PIET_CORE_GEOMETRY_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.h"
#include "geometry/polygon.h"
#include "geometry/segment_polygon.h"
#include "index/grid.h"
#include "moving/moft_columns.h"
#include "temporal/interval.h"

namespace piet::core::batch {

/// Reusable buffers of one batch call, so per-tile work allocates nothing
/// in steady state (one scratch per worker chunk, like the LocateBatch
/// scratch of gis::OverlayDb).
struct BatchScratch {
  std::vector<uint8_t> mask;     ///< Per-input bounding-box verdict.
  std::vector<uint32_t> cand;    ///< Surviving input indices (compacted).
  std::vector<double> px;        ///< Compacted candidate x coordinates.
  std::vector<double> py;        ///< Compacted candidate y coordinates.
  std::vector<uint8_t> state;    ///< Per-candidate ring-sweep state.
  std::vector<uint8_t> loc;      ///< Per-candidate location verdict.
  std::vector<uint32_t> active;  ///< Hole-phase working set.
  std::vector<uint32_t> subset;  ///< Candidates inside the current hole box.
};

/// Batch point-in-polygon and segment-crossing kernels over structure-of-
/// arrays coordinate columns (the sealed MOFT x/y arrays). The shape
/// follows OverlayDb::LocateBatch: a branch-free bounding-box sweep over
/// the raw columns first (the part the compiler autovectorizes), then the
/// exact geometric test on the few survivors. The exact phase replays
/// Ring::Locate's arithmetic per (point, edge) — same expressions, same
/// per-edge order, no precomputed slopes — so every verdict is bit-
/// identical to the scalar Polygon::Contains / Polygon::IntersectsSegment.
class PolygonBatcher {
 public:
  /// `poly` must outlive the batcher.
  explicit PolygonBatcher(const geometry::Polygon* poly);

  const geometry::Polygon& polygon() const { return *poly_; }
  const geometry::BoundingBox& bounds() const { return bounds_; }

  /// out[i] = polygon().Contains(Point(xs[i], ys[i])). `out` is assigned
  /// to xs.size() entries of 0/1.
  void ContainsBatch(std::span<const double> xs, std::span<const double> ys,
                     BatchScratch* scratch, std::vector<uint8_t>* out) const;

  /// True iff any of the xs.size()-1 consecutive legs (point i to point
  /// i+1 — an object span's trajectory legs) shares a point with the
  /// closed polygon, i.e. polygon().IntersectsSegment on some leg. False
  /// for fewer than two points.
  bool AnyLegIntersects(std::span<const double> xs,
                        std::span<const double> ys) const;

 private:
  struct RingRange {
    size_t begin = 0;  ///< First edge in the SoA edge arrays.
    size_t end = 0;    ///< One past the last edge.
    geometry::BoundingBox bounds;
  };

  /// Edge-major even-odd sweep of one ring over the candidates in
  /// `subset`: state bit 0 accumulates ray-crossing parity, bit 1 latches
  /// boundary hits (which freeze the candidate, like the scalar early
  /// return). Caller zeroes the state of every subset entry first.
  void SweepRing(const RingRange& ring, const std::vector<uint32_t>& subset,
                 const std::vector<double>& px, const std::vector<double>& py,
                 std::vector<uint8_t>* state) const;

  const geometry::Polygon* poly_;
  geometry::BoundingBox bounds_;
  std::vector<double> ax_, ay_, bx_, by_;
  RingRange shell_;
  std::vector<RingRange> holes_;
};

/// Reusable buffers of PolygonSetBatcher::ForEachHit (one per worker
/// chunk, like BatchScratch).
struct TileScratch {
  BatchScratch batch;
  std::vector<size_t> rows;    ///< The tile's rows.
  std::vector<double> x;       ///< The tile's sample x coordinates.
  std::vector<double> y;       ///< The tile's sample y coordinates.
  std::vector<uint8_t> one;    ///< One polygon's verdicts over the tile.
  std::vector<uint8_t> hits;   ///< Polygon-major verdicts of the tile.
};

/// Batch point-in-polygon of sample rows against a fixed polygon set: the
/// tile kernel of both front ends' INSIDE scans without overlay coverage
/// (engine Strategy::kNaive, Piet-QL INSIDE RESULT). The rows are gathered
/// into dense coordinate tiles and each polygon's PolygonBatcher runs once
/// per tile, so every verdict is bit-identical to Polygon::Contains.
class PolygonSetBatcher {
 public:
  /// Every polygon must outlive the batcher; index q of `polys` is the
  /// polygon index ForEachHit reports.
  explicit PolygonSetBatcher(
      const std::vector<const geometry::Polygon*>& polys) {
    batchers_.reserve(polys.size());
    for (const geometry::Polygon* p : polys) {
      batchers_.emplace_back(p);
    }
  }

  /// Calls hit(i, q) for every row i of the ascending runs `runs` (rows
  /// of `cols`) and, per row, every polygon q containing its sample,
  /// ascending. Returns the point tests: rows × polygons (the kernel has
  /// no early exit).
  template <typename Hit>
  size_t ForEachHit(const moving::MoftColumns& cols,
                    std::span<const moving::RowRun> runs, TileScratch* s,
                    Hit&& hit) const {
    constexpr size_t kTileRows = 1024;
    const size_t np = batchers_.size();
    size_t tests = 0;
    auto flush = [&] {
      const size_t m = s->rows.size();
      s->hits.resize(np * m);
      for (size_t q = 0; q < np; ++q) {
        batchers_[q].ContainsBatch(s->x, s->y, &s->batch, &s->one);
        std::copy(s->one.begin(), s->one.end(), s->hits.begin() + q * m);
      }
      for (size_t k = 0; k < m; ++k) {
        for (size_t q = 0; q < np; ++q) {
          if (s->hits[q * m + k] != 0) {
            hit(s->rows[k], q);
          }
        }
      }
      tests += np * m;
      s->rows.clear();
      s->x.clear();
      s->y.clear();
    };
    s->rows.clear();
    s->x.clear();
    s->y.clear();
    for (const auto& [lo, hi] : runs) {
      for (size_t i = lo; i < hi; ++i) {
        s->rows.push_back(i);
        s->x.push_back(cols.x[i]);
        s->y.push_back(cols.y[i]);
        if (s->rows.size() == kTileRows) {
          flush();
        }
      }
    }
    if (!s->rows.empty()) {
      flush();
    }
    return tests;
  }

 private:
  std::vector<PolygonBatcher> batchers_;
};

/// Per-worker state of LegRefiner::Refine: per-polygon accumulators, the
/// polygons the last refined object touched and the exact kernel's
/// buffers. Keep one per worker chunk, like BatchScratch, and use it with
/// a single refiner; once warm, a refine allocates nothing.
struct LegScratch {
  /// Per polygon: the object's inside time pieces, in leg order. Their
  /// IntervalSet is moving::InsideIntervals of that polygon.
  std::vector<std::vector<temporal::Interval>> pieces;
  /// Per polygon: distance travelled inside, summed in leg order exactly
  /// like moving::DistanceTravelledInside.
  std::vector<double> distance;
  /// Polygons with at least one piece, ascending after Refine.
  std::vector<uint32_t> hit;
  /// Per polygon: stamp of the last leg that refined it (deduplicates a
  /// polygon bucketed in several grid cells the leg's box overlaps).
  std::vector<uint64_t> seen;
  uint64_t stamp = 0;
  /// Of the last Refine: grid candidates of moving legs dropped by the
  /// corridor test, and candidates of stationary legs answered from the
  /// previous stationary leg at the same point. Neither is an exact
  /// kernel call, so with Refine's return value they add up to the
  /// object's (leg, polygon) box-overlap pairs.
  size_t corridor_rejects = 0;
  size_t stationary_reuses = 0;

  /// Working buffers of the exact kernel, SegmentInsideIntervals.
  std::vector<double> cuts;
  std::vector<geometry::ParamInterval> ivs;
  /// The last stationary leg refined exactly within this Refine: the bits
  /// of its point, its grid candidates and the polygons containing it.
  bool idle_valid = false;
  uint64_t idle_x = 0;
  uint64_t idle_y = 0;
  size_t idle_candidates = 0;
  std::vector<uint32_t> idle_hits;
};

/// Leg-major trajectory refine (the Sec. 5 "intersect trajectory segments
/// with those geometries" step) for a fixed set of polygons. Built once per
/// query over the qualifying polygons, it buckets their boxes in a uniform
/// grid; each object's legs are then walked once and a leg meets only the
/// polygons whose box meets the leg's box (a skipped pair is one
/// SegmentInsideIntervals rejects by its own bounds test). Two shortcuts
/// answer a pair without the exact kernel, each with the kernel's own
/// answer (DESIGN.md §12):
///  - corridor reject: a moving leg whose supporting line has all four
///    corners of the polygon's box on one side, by more than a rounding
///    margin, is inside the polygon nowhere (the kernel returns {});
///  - stationary reuse: a stationary leg at the bit-identical point of the
///    previous stationary leg contains-tests to the same polygons, so it
///    repeats their {0, 1} piece.
/// Each polygon's pieces and distance sum are produced in the same leg
/// order as the per-polygon moving::InsideIntervals /
/// DistanceTravelledInside loops, so every result is bit-identical to them.
class LegRefiner {
 public:
  /// Every polygon must outlive the refiner. Index q of `polys` is the
  /// polygon index used in LegScratch.
  explicit LegRefiner(std::vector<const geometry::Polygon*> polys);

  /// Refines one object's linearly interpolated trajectory: samples
  /// (ts[i], xs[i], ys[i]) with strictly increasing time, typically an
  /// object span of the sealed MOFT columns. Fills `scratch` (see
  /// LegScratch); a single-sample object is inside a polygon at its one
  /// instant iff the polygon contains the sample. Returns the number of
  /// exact (leg, polygon) SegmentInsideIntervals calls.
  size_t Refine(std::span<const double> ts, std::span<const double> xs,
                std::span<const double> ys, LegScratch* scratch) const;

  /// Refine over one object span of the sealed columns (time strictly
  /// increasing within a span).
  size_t Refine(const moving::ObjectSpan& span, LegScratch* scratch) const {
    const moving::MoftColumns& c = *span.columns();
    const size_t b = span.offset();
    const size_t n = span.size();
    return Refine({c.t.data() + b, n}, {c.x.data() + b, n},
                  {c.y.data() + b, n}, scratch);
  }

 private:
  /// A polygon's box and its largest absolute coordinate (the corridor
  /// test's inputs), kept beside the grid for locality.
  struct Box {
    geometry::BoundingBox box;
    double magnitude = 0.0;
  };

  std::vector<const geometry::Polygon*> polys_;
  std::vector<Box> boxes_;
  geometry::BoundingBox extent_;
  index::GridIndex grid_;
};

}  // namespace piet::core::batch

#endif  // PIET_CORE_GEOMETRY_BATCH_H_
