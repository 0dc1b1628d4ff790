#include <gtest/gtest.h>

#include "core/region.h"
#include "core/summable.h"
#include "gis/density.h"

namespace piet::core {
namespace {

using geometry::MakeRectangle;
using geometry::Point;
using geometry::Polyline;
using gis::ConstantDensity;
using gis::GeometryId;
using gis::GeometryKind;
using gis::Layer;
using gis::PerRegionDensity;

TEST(GeometricAggregatorTest, PolygonAreaIntegral) {
  Layer layer("pg", GeometryKind::kPolygon);
  GeometryId a = layer.AddPolygon(MakeRectangle(0, 0, 2, 2)).ValueOrDie();
  GeometryId b = layer.AddPolygon(MakeRectangle(5, 5, 7, 8)).ValueOrDie();
  ConstantDensity density(3.0);
  GeometricAggregator agg(&density);
  // 3 * (4 + 6) = 30.
  EXPECT_DOUBLE_EQ(agg.OverPolygons(layer, {a, b}).ValueOrDie(), 30.0);
  EXPECT_DOUBLE_EQ(agg.Evaluate(layer, {a}).ValueOrDie(), 12.0);
  EXPECT_DOUBLE_EQ(agg.Evaluate(layer, {}).ValueOrDie(), 0.0);
}

TEST(GeometricAggregatorTest, PolylineLineIntegral) {
  Layer layer("pl", GeometryKind::kPolyline);
  GeometryId a =
      layer.AddPolyline(Polyline({{0, 0}, {3, 4}})).ValueOrDie();  // len 5.
  ConstantDensity density(2.0);
  GeometricAggregator agg(&density);
  EXPECT_NEAR(agg.OverPolylines(layer, {a}).ValueOrDie(), 10.0, 1e-9);
  EXPECT_TRUE(agg.OverPolylines(layer, {a}, 0).status().IsInvalidArgument());
}

TEST(GeometricAggregatorTest, PointDiracEvaluation) {
  Layer layer("nd", GeometryKind::kNode);
  GeometryId a = layer.AddPoint({1, 1}).ValueOrDie();
  GeometryId b = layer.AddPoint({2, 2}).ValueOrDie();
  ConstantDensity density(7.0);
  GeometricAggregator agg(&density);
  EXPECT_DOUBLE_EQ(agg.OverPoints(layer, {a, b}).ValueOrDie(), 14.0);
  EXPECT_DOUBLE_EQ(agg.Evaluate(layer, {a}).ValueOrDie(), 7.0);
}

TEST(GeometricAggregatorTest, PiecewiseDensityLineIntegral) {
  // Density 1 on [0,10]x[0,10], 5 on [10,20]x[0,10]; a street crossing both
  // halves picks up 1*10 + 5*10.
  Layer regions("pg", GeometryKind::kPolygon);
  (void)regions.AddPolygon(MakeRectangle(0, 0, 10, 10));
  (void)regions.AddPolygon(MakeRectangle(10, 0, 20, 10));
  PerRegionDensity density(&regions, {1.0, 5.0});

  Layer streets("pl", GeometryKind::kPolyline);
  GeometryId street =
      streets.AddPolyline(Polyline({{0, 5}, {20, 5}})).ValueOrDie();
  GeometricAggregator agg(&density);
  EXPECT_NEAR(agg.OverPolylines(streets, {street}, 256).ValueOrDie(), 60.0,
              0.5);
}

TEST(GeometricAggregatorTest, SummableRewritingEqualsDirectIntegral) {
  // Σ_g ∫∫_g h == ∫∫_{∪g} h for disjoint cells and piecewise-constant h —
  // the summability property of Sec. 5.
  Layer layer("pg", GeometryKind::kPolygon);
  std::vector<GeometryId> ids;
  std::vector<double> densities;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(
        layer.AddPolygon(MakeRectangle(i * 10, 0, (i + 1) * 10, 10))
            .ValueOrDie());
    densities.push_back(1.0 + i);
  }
  PerRegionDensity h(&layer, densities);
  GeometricAggregator agg(&h);
  double summed = agg.OverPolygons(layer, ids).ValueOrDie();
  double direct = h.IntegrateOverPolygon(MakeRectangle(0, 0, 40, 10));
  EXPECT_NEAR(summed, direct, 1e-9);
  EXPECT_DOUBLE_EQ(summed, h.TotalMass());
}

TEST(DensityMassPredicateTest, Type5SecondOrderRegion) {
  // Type 5 query region: neighborhoods where the number of (low-income)
  // people exceeds a threshold — a geometric aggregation inside C.
  Layer layer("pg", GeometryKind::kPolygon);
  GeometryId sparse =
      layer.AddPolygon(MakeRectangle(0, 0, 10, 10)).ValueOrDie();
  GeometryId dense =
      layer.AddPolygon(MakeRectangle(10, 0, 20, 10)).ValueOrDie();
  auto population = std::make_shared<PerRegionDensity>(
      &layer, std::vector<double>{10.0, 1000.0});

  GeometryPredicate pred =
      GeometryPredicate::DensityMassGreater(population, 50000.0);
  EXPECT_FALSE(pred(layer, sparse));  // Mass 1000.
  EXPECT_TRUE(pred(layer, dense));    // Mass 100000.
  // Memoized second call.
  EXPECT_TRUE(pred(layer, dense));
}

TEST(GeometryPredicateTest, Combinators) {
  Layer layer("pg", GeometryKind::kPolygon);
  GeometryId id = layer.AddPolygon(MakeRectangle(0, 0, 1, 1)).ValueOrDie();
  ASSERT_TRUE(layer.SetAttribute(id, "income", Value(1200.0)).ok());
  ASSERT_TRUE(layer.SetAttribute(id, "pop", Value(100.0)).ok());

  auto low = GeometryPredicate::AttributeLess("income", 1500.0);
  auto big = GeometryPredicate::AttributeGreater("pop", 500.0);
  EXPECT_TRUE(low(layer, id));
  EXPECT_FALSE(big(layer, id));
  EXPECT_FALSE(low.And(big)(layer, id));
  EXPECT_TRUE(low.Or(big)(layer, id));
  EXPECT_FALSE(low.Not()(layer, id));
  EXPECT_TRUE(GeometryPredicate::All()(layer, id));
  // Missing attribute -> false.
  EXPECT_FALSE(GeometryPredicate::AttributeEquals("ghost", Value(1))(layer,
                                                                     id));
  EXPECT_TRUE(
      GeometryPredicate::AttributeEquals("pop", Value(100.0))(layer, id));
}

TEST(TimePredicateTest, MatchingIntervalsHourAligned) {
  temporal::TimeDimension dim;
  TimePredicate morning;
  morning.RollupEquals("timeOfDay", Value("Morning"));
  // Domain: 04:00 to 14:00 on 2006-01-02.
  auto t0 = temporal::ParseTimePoint("2006-01-02 04:00").ValueOrDie();
  auto t1 = temporal::ParseTimePoint("2006-01-02 14:00").ValueOrDie();
  auto matched =
      morning.MatchingIntervals(dim, temporal::Interval(t0, t1)).ValueOrDie();
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_DOUBLE_EQ(matched.TotalLength(), 6.0 * 3600.0);  // 06:00-12:00.
}

TEST(TimePredicateTest, MatchingIntervalsWithWindow) {
  temporal::TimeDimension dim;
  auto t0 = temporal::ParseTimePoint("2006-01-02 06:00").ValueOrDie();
  auto t1 = temporal::ParseTimePoint("2006-01-02 12:00").ValueOrDie();
  auto w0 = temporal::ParseTimePoint("2006-01-02 07:30").ValueOrDie();
  auto w1 = temporal::ParseTimePoint("2006-01-02 08:15").ValueOrDie();
  TimePredicate when;
  when.Window(temporal::Interval(w0, w1));
  auto matched =
      when.MatchingIntervals(dim, temporal::Interval(t0, t1)).ValueOrDie();
  EXPECT_DOUBLE_EQ(matched.TotalLength(), 45.0 * 60.0);
}

// Matches of measure zero are kept as [c, c]; the midpoint probes alone
// see none of them.
TEST(TimePredicateTest, MatchingIntervalsKeepsZeroMeasureMatches) {
  temporal::TimeDimension dim;
  using temporal::Interval;
  using temporal::IntervalSet;
  using temporal::TimePoint;
  const TimePoint d0(1000.0);
  const TimePoint d1(9000.0);
  auto matching = [&](const TimePredicate& when, Interval domain) {
    return when.MatchingIntervals(dim, domain).ValueOrDie();
  };
  const TimePoint mid(2000.0);
  // A point window strictly inside the domain.
  EXPECT_EQ(matching(TimePredicate().Window(Interval(mid, mid)),
                     Interval(d0, d1)),
            IntervalSet({Interval(mid, mid)}));
  // A point window on an hour boundary (7200 s).
  const TimePoint hour(7200.0);
  EXPECT_EQ(matching(TimePredicate().Window(Interval(hour, hour)),
                     Interval(d0, d1)),
            IntervalSet({Interval(hour, hour)}));
  // Windows that only touch the domain's first or last instant.
  EXPECT_EQ(matching(TimePredicate().Window(Interval(TimePoint(0.0), d0)),
                     Interval(d0, d1)),
            IntervalSet({Interval(d0, d0)}));
  EXPECT_EQ(matching(TimePredicate().Window(Interval(d1, TimePoint(1e4))),
                     Interval(d0, d1)),
            IntervalSet({Interval(d1, d1)}));
  // A point domain, matched or not.
  EXPECT_EQ(matching(TimePredicate().Window(Interval(d0, d1)),
                     Interval(mid, mid)),
            IntervalSet({Interval(mid, mid)}));
  EXPECT_TRUE(matching(TimePredicate().Window(Interval(d1, d1)),
                       Interval(mid, mid))
                  .empty());
  // A window that misses the domain, and a positive-measure match, which
  // gains no extra point at its ends.
  EXPECT_TRUE(matching(TimePredicate().Window(Interval(TimePoint(0.0),
                                                       TimePoint(999.0))),
                       Interval(d0, d1))
                  .empty());
  EXPECT_EQ(matching(TimePredicate().Window(Interval(mid, hour)),
                     Interval(d0, d1)),
            IntervalSet({Interval(mid, hour)}));
}

TEST(TimePredicateTest, HourRangeAndFineLevelsRejected) {
  temporal::TimeDimension dim;
  TimePredicate rush;
  rush.HourRange(8, 9);
  auto t = temporal::ParseTimePoint("2006-01-02 08:30").ValueOrDie();
  EXPECT_TRUE(rush.Matches(dim, t));
  auto late = temporal::ParseTimePoint("2006-01-02 10:01").ValueOrDie();
  EXPECT_FALSE(rush.Matches(dim, late));

  TimePredicate fine;
  fine.RollupEquals("minute", Value("2006-01-02 08:30"));
  auto t0 = temporal::ParseTimePoint("2006-01-02 00:00").ValueOrDie();
  EXPECT_TRUE(fine.MatchingIntervals(dim, temporal::Interval(t0, t))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace piet::core
