#ifndef PIET_CORE_REGION_H_
#define PIET_CORE_REGION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "gis/density.h"
#include "gis/instance.h"
#include "gis/layer.h"
#include "moving/block_store.h"
#include "temporal/interval.h"
#include "temporal/time_dimension.h"

namespace piet::core {

/// A predicate over the geometries of a layer — the geometric half of the
/// FO formula defining the region C. Examples from the paper:
///   n.income < 1500                -> AttributeLess("income", 1500)
///   c.pop >= 50000                 -> AttributeGreaterEq("pop", 50000)
///   α(neighborhood)("Berchem")=pg  -> AlphaEquals(gis, "neighborhood",
///                                                 "Berchem")
/// Predicates compose with And/Or/Not, mirroring FO connectives.
class GeometryPredicate {
 public:
  using Fn = std::function<bool(const gis::Layer&, gis::GeometryId)>;

  GeometryPredicate() : fn_([](const gis::Layer&, gis::GeometryId) {
                          return true;
                        }) {}
  explicit GeometryPredicate(Fn fn) : fn_(std::move(fn)) {}

  bool operator()(const gis::Layer& layer, gis::GeometryId id) const {
    return fn_(layer, id);
  }

  /// Always true.
  static GeometryPredicate All();
  /// attr(g) < threshold (missing attribute -> false).
  static GeometryPredicate AttributeLess(std::string attr, double threshold);
  /// attr(g) > threshold.
  static GeometryPredicate AttributeGreater(std::string attr,
                                            double threshold);
  /// attr(g) >= threshold.
  static GeometryPredicate AttributeGreaterEq(std::string attr,
                                              double threshold);
  /// attr(g) == value.
  static GeometryPredicate AttributeEquals(std::string attr, Value value);
  /// g == α(attribute)(member): the single geometry an application member
  /// is bound to (paper's α usage; `gis` must outlive the predicate).
  static GeometryPredicate AlphaEquals(const gis::GisDimensionInstance* gis,
                                       std::string attribute, Value member);
  /// dist(g, nearest element of `layer`) <= distance — proximity between
  /// whole geometries (e.g. "neighborhoods within 100 of the river").
  /// `gis` must outlive the predicate; results are memoized per geometry.
  static GeometryPredicate WithinDistanceOfLayer(
      const gis::GisDimensionInstance* gis, std::string layer,
      double distance);

  /// ∫∫_g h dx dy > threshold — the paper's type-5 "second order" region
  /// condition ("neighborhoods where the number of low-income people
  /// exceeds 50,000"). Integrals are memoized per geometry id.
  static GeometryPredicate DensityMassGreater(
      std::shared_ptr<const gis::DensityField> field, double threshold);

  GeometryPredicate And(GeometryPredicate other) const;
  GeometryPredicate Or(GeometryPredicate other) const;
  GeometryPredicate Not() const;

 private:
  Fn fn_;
};

/// The temporal half of the region C: a conjunction of rollup-equality
/// constraints (R^level_timeId(t) = member), an optional absolute window,
/// and an optional hour-of-day range. Mirrors the paper's
/// `R^timeOfDay(t) = "Morning" ∧ R^dayOfWeek(t) = "Wednesday"` style.
class TimePredicate {
 public:
  TimePredicate() = default;

  /// Adds R^level_timeId(t) == member.
  TimePredicate& RollupEquals(std::string level, Value member);
  /// Restricts t to [window.begin, window.end], conjunctively: a second
  /// window intersects the first. Disjoint windows leave an inverted
  /// window, which matches no instant.
  TimePredicate& Window(temporal::Interval window);
  /// Restricts hour-of-day to [h0, h1] inclusive (paper's query 7:
  /// 8:00-10:00).
  TimePredicate& HourRange(int h0, int h1);

  /// True when every constraint holds at instant t.
  bool Matches(const temporal::TimeDimension& dim,
               temporal::TimePoint t) const;

  /// The exact subset of `domain` where the predicate holds, as an interval
  /// set. Valid when every rollup constraint is at hour granularity or
  /// coarser (hour, timeOfDay, dayOfWeek, typeOfDay, day, month, year): the
  /// predicate is then piecewise-constant between hour boundaries.
  /// Constraints on `timeId` or `minute` are rejected. An unconstrained
  /// predicate yields `domain` itself.
  Result<temporal::IntervalSet> MatchingIntervals(
      const temporal::TimeDimension& dim,
      const temporal::Interval& domain) const;

  /// Matches() without the absolute-window test: the hour-range and rollup
  /// constraints only. When has_sub_hour_rollup() is false these are
  /// constant across any start-of-hour-aligned bucket, so one probe at an
  /// interior instant decides a whole bucket — the aggregate cache's
  /// bucket classification.
  bool MatchesIgnoringWindow(const temporal::TimeDimension& dim,
                             temporal::TimePoint t) const;

  /// True when a rollup-equality constraint is finer than hour buckets
  /// ("timeId" / "minute") — granularities a per-hour-bucket cache cannot
  /// decide bucket-wide.
  bool has_sub_hour_rollup() const;

  /// The first sub-hour rollup level name ("timeId" or "minute"), or ""
  /// when none — names the granularity that defeated the aggregate cache
  /// in fallback counters and EXPLAIN ANALYZE.
  const std::string& sub_hour_rollup_level() const;

  const std::optional<temporal::Interval>& window() const { return window_; }
  bool unconstrained() const {
    return rollup_equals_.empty() && !window_ && !hour_range_;
  }
  /// True when the predicate is exactly one absolute closed window — the
  /// case a sorted time column answers with a binary search instead of a
  /// per-row Matches probe.
  bool window_only() const {
    return rollup_equals_.empty() && !hour_range_ && window_.has_value();
  }

 private:
  std::vector<std::pair<std::string, Value>> rollup_equals_;
  std::optional<temporal::Interval> window_;
  std::optional<std::pair<int, int>> hour_range_;
};

/// Zonemap predicate of one block scan under `when`: its time window
/// (conjunctive with any rollup constraints, so rows outside it can never
/// match) plus, when `polys` is given, the union of their bounding boxes —
/// for scans that only produce rows for samples inside those polygons or
/// LIT pieces through them (the LIT never leaves the convex hull of its
/// block's samples). Blocks the filter rules out are skipped wholesale.
/// With zero polygons the union box is empty and every block is skipped,
/// matching the empty result the scan would produce.
moving::ZoneFilter ScanZoneFilter(
    const TimePredicate& when,
    const std::vector<const geometry::Polygon*>* polys = nullptr);

/// Geometry ids with their polygons resolved once, before any fan-out:
/// ids ascending and unique, polygons index-aligned, so worker chunks
/// index flat arrays instead of re-running the layer lookup per sample.
struct ResolvedPolygons {
  std::vector<gis::GeometryId> ids;
  std::vector<const geometry::Polygon*> polys;

  /// Dense membership bitmap over a layer of `layer_size` geometries.
  std::vector<uint8_t> Bitmap(size_t layer_size) const;
};

/// The polygons of `layer` among `ids` (ids without a polygon dropped).
ResolvedPolygons ResolvePolygons(const gis::Layer& layer,
                                 const std::vector<gis::GeometryId>& ids);

}  // namespace piet::core

#endif  // PIET_CORE_REGION_H_
