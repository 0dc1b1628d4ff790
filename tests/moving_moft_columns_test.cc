// Columnar MOFT storage core: seal/re-sort lifecycle, zero-copy views
// (SampleView / ObjectSpan / LegView / SampleWindow), closed time-window
// semantics, and bit-equality of every query type between insertion orders
// (the sealed columns are a canonical (oid, t) sort, so query results must
// not depend on the order samples were added).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using geometry::Point;
using moving::LegView;
using moving::Moft;
using moving::MoftColumns;
using moving::ObjectSpan;
using moving::Sample;
using moving::SampleView;
using moving::SampleWindow;
using olap::FactTable;
using temporal::Interval;
using temporal::TimePoint;
using workload::City;
using workload::CityConfig;
using workload::TrajectoryConfig;

// ---------------------------------------------------------------------------
// Seal lifecycle.

TEST(MoftColumnsTest, SealSortsOutOfOrderAdds) {
  Moft moft;
  ASSERT_TRUE(moft.Add(2, TimePoint(5), {20, 5}).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(9), {10, 9}).ok());
  ASSERT_TRUE(moft.Add(2, TimePoint(1), {20, 1}).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(3), {10, 3}).ok());

  const MoftColumns& cols = moft.Columns();
  ASSERT_EQ(cols.size(), 4u);
  // Globally sorted by (oid, t).
  for (size_t i = 1; i < cols.size(); ++i) {
    ASSERT_TRUE(cols.oid[i - 1] < cols.oid[i] ||
                (cols.oid[i - 1] == cols.oid[i] &&
                 cols.t[i - 1] < cols.t[i]))
        << "row " << i;
  }
  // Spans partition [0, size) ascending by oid.
  ASSERT_EQ(cols.spans.size(), 2u);
  EXPECT_EQ(cols.spans[0].oid, 1);
  EXPECT_EQ(cols.spans[0].begin, 0u);
  EXPECT_EQ(cols.spans[0].end, 2u);
  EXPECT_EQ(cols.spans[1].oid, 2);
  EXPECT_EQ(cols.spans[1].begin, 2u);
  EXPECT_EQ(cols.spans[1].end, 4u);
  // Columns stay aligned: each row's y coordinate encodes its t above.
  for (size_t i = 0; i < cols.size(); ++i) {
    EXPECT_DOUBLE_EQ(cols.y[i], cols.t[i]) << "row " << i;
  }
}

TEST(MoftColumnsTest, SealEpochBumpsOnlyWhenDirty) {
  Moft moft;
  ASSERT_TRUE(moft.Add(1, TimePoint(1), {0, 0}).ok());
  SampleView v1 = moft.Scan();
  EXPECT_EQ(v1.seal_epoch(), 1u);
  EXPECT_TRUE(v1.valid());

  // Clean reads do not reseal.
  SampleView v2 = moft.Scan();
  EXPECT_EQ(v2.seal_epoch(), 1u);
  EXPECT_EQ(moft.seal_epoch(), 1u);

  // Mutation + read reseals; old views become invalid.
  ASSERT_TRUE(moft.Add(1, TimePoint(2), {0, 1}).ok());
  SampleView v3 = moft.Scan();
  EXPECT_EQ(v3.seal_epoch(), 2u);
  EXPECT_TRUE(v3.valid());
  EXPECT_FALSE(v1.valid());
  EXPECT_EQ(v3.size(), 2u);
}

TEST(MoftColumnsTest, DuplicateRejectionSurvivesSeal) {
  Moft moft;
  ASSERT_TRUE(moft.Add(7, TimePoint(4), {1, 1}).ok());
  ASSERT_EQ(moft.Scan().size(), 1u);  // Seal.

  // Conflicting re-observation of a sealed row is still rejected, and the
  // idempotent duplicate is still absorbed without growing the table.
  EXPECT_TRUE(moft.Add(7, TimePoint(4), {2, 2}).IsAlreadyExists());
  EXPECT_TRUE(moft.Add(7, TimePoint(4), {1, 1}).ok());
  EXPECT_EQ(moft.num_samples(), 1u);
  EXPECT_EQ(moft.Scan().size(), 1u);
}

TEST(MoftColumnsTest, AllSamplesMatchesScanOrder) {
  Moft moft;
  ASSERT_TRUE(moft.Add(3, TimePoint(2), {3, 2}).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(8), {1, 8}).ok());
  ASSERT_TRUE(moft.Add(3, TimePoint(1), {3, 1}).ok());
  ASSERT_TRUE(moft.Add(2, TimePoint(5), {2, 5}).ok());

  std::vector<Sample> copied = AllSamplesOf(moft);
  SampleView view = moft.Scan();
  ASSERT_EQ(copied.size(), view.size());
  size_t i = 0;
  for (const Sample& s : view) {
    EXPECT_EQ(s, copied[i]) << "row " << i;
    ++i;
  }
}

// ---------------------------------------------------------------------------
// ObjectSpan + LegView.

TEST(MoftColumnsTest, ObjectSpanAndLegs) {
  Moft moft;
  ASSERT_TRUE(moft.Add(5, TimePoint(0), {0, 0}).ok());
  ASSERT_TRUE(moft.Add(5, TimePoint(10), {10, 0}).ok());
  ASSERT_TRUE(moft.Add(5, TimePoint(20), {10, 10}).ok());
  ASSERT_TRUE(moft.Add(9, TimePoint(3), {-1, -1}).ok());

  ObjectSpan span = moft.SamplesOf(5);
  EXPECT_EQ(span.oid(), 5);
  ASSERT_EQ(span.size(), 3u);
  LegView legs = span.Legs();
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].p0, Point(0, 0));
  EXPECT_EQ(legs[0].p1, Point(10, 0));
  EXPECT_DOUBLE_EQ(legs[1].t0.seconds, 10.0);
  EXPECT_DOUBLE_EQ(legs[1].t1.seconds, 20.0);

  // A single-sample object has no legs.
  EXPECT_TRUE(moft.SamplesOf(9).Legs().empty());
  // An unknown object yields an empty span.
  ObjectSpan missing = moft.SamplesOf(404);
  EXPECT_TRUE(missing.empty());
  EXPECT_TRUE(missing.Legs().empty());
}

TEST(MoftColumnsTest, ObjectSpanWindowIsClosedInterval) {
  Moft moft;
  for (double t : {0.0, 10.0, 20.0, 30.0}) {
    ASSERT_TRUE(moft.Add(1, TimePoint(t), {t, 0}).ok());
  }
  ObjectSpan span = moft.SamplesOf(1);

  // Both endpoints included.
  SampleView w = span.Window(TimePoint(10), TimePoint(20));
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w.front().t.seconds, 10.0);
  EXPECT_DOUBLE_EQ(w.back().t.seconds, 20.0);

  // Degenerate instant window hits exactly the matching sample.
  EXPECT_EQ(span.Window(TimePoint(20), TimePoint(20)).size(), 1u);
  // Window in a gap between samples is empty.
  EXPECT_TRUE(span.Window(TimePoint(11), TimePoint(19)).empty());
  // Inverted window is empty.
  EXPECT_TRUE(span.Window(TimePoint(20), TimePoint(10)).empty());
}

TEST(MoftColumnsTest, LegsMeetingKeepsEveryLegThatTouchesTheRange) {
  Moft moft;
  for (double t : {0.0, 10.0, 20.0, 30.0, 40.0}) {
    ASSERT_TRUE(moft.Add(1, TimePoint(t), {t, 0}).ok());
  }
  ASSERT_TRUE(moft.Add(2, TimePoint(5.0), {0, 0}).ok());
  const ObjectSpan span = moft.SamplesOf(1);
  // The first and last sample times of LegsMeeting(t0, t1).
  auto kept = [&](double t0, double t1) {
    const ObjectSpan sub = span.LegsMeeting(TimePoint(t0), TimePoint(t1));
    EXPECT_EQ(sub.oid(), 1);
    return std::make_pair(sub.front().t.seconds, sub.back().t.seconds);
  };
  using Kept = std::pair<double, double>;
  // Legs that only touch an end of the range are kept.
  EXPECT_EQ(kept(10, 20), Kept(0, 30));
  EXPECT_EQ(kept(12, 18), Kept(10, 20));
  EXPECT_EQ(kept(10, 10), Kept(0, 20));
  EXPECT_EQ(kept(15, 15), Kept(10, 20));
  EXPECT_EQ(kept(0, 40), Kept(0, 40));
  EXPECT_EQ(kept(-50, 100), Kept(0, 40));
  // Ranges off either end keep the end leg, never a lone sample.
  EXPECT_EQ(kept(-5, -1), Kept(0, 10));
  EXPECT_EQ(kept(50, 60), Kept(30, 40));
  EXPECT_EQ(span.LegsMeeting(TimePoint(50), TimePoint(60)).size(), 2u);
  // A single-sample object keeps its sample.
  const ObjectSpan single = moft.SamplesOf(2);
  EXPECT_EQ(single.LegsMeeting(TimePoint(0), TimePoint(1)).size(), 1u);
  EXPECT_EQ(single.LegsMeeting(TimePoint(5), TimePoint(5)).size(), 1u);
}

// ---------------------------------------------------------------------------
// SamplesBetween (whole-table closed time window).

TEST(MoftColumnsTest, SamplesBetweenBoundaries) {
  Moft moft;
  // Two objects with interleaved times.
  for (double t : {0.0, 10.0, 20.0}) {
    ASSERT_TRUE(moft.Add(1, TimePoint(t), {1, t}).ok());
    ASSERT_TRUE(moft.Add(2, TimePoint(t + 5), {2, t + 5}).ok());
  }

  // Closed endpoints: [5, 20] catches t=5,10,15,20.
  SampleWindow w = moft.SamplesBetween(TimePoint(5), TimePoint(20));
  ASSERT_EQ(w.size(), 4u);
  // Rows come back in (oid, t) order; random access agrees with iteration.
  std::vector<Sample> it_order;
  for (const Sample& s : w) {
    it_order.push_back(s);
  }
  ASSERT_EQ(it_order.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i], it_order[i]) << "row " << i;
    if (i > 0) {
      ASSERT_TRUE(it_order[i - 1].oid < it_order[i].oid ||
                  (it_order[i - 1].oid == it_order[i].oid &&
                   it_order[i - 1].t < it_order[i].t));
    }
  }
  EXPECT_EQ(it_order[0].oid, 1);
  EXPECT_DOUBLE_EQ(it_order[0].t.seconds, 10.0);
  EXPECT_EQ(it_order.back().oid, 2);
  EXPECT_DOUBLE_EQ(it_order.back().t.seconds, 15.0);

  // Degenerate instant window.
  SampleWindow instant = moft.SamplesBetween(TimePoint(10), TimePoint(10));
  ASSERT_EQ(instant.size(), 1u);
  EXPECT_EQ(instant[0].oid, 1);

  // Empty cases: gap, inverted, and out-of-range windows.
  EXPECT_TRUE(moft.SamplesBetween(TimePoint(11), TimePoint(14)).empty());
  EXPECT_TRUE(moft.SamplesBetween(TimePoint(20), TimePoint(5)).empty());
  EXPECT_TRUE(moft.SamplesBetween(TimePoint(100), TimePoint(200)).empty());
  EXPECT_TRUE(Moft().SamplesBetween(TimePoint(0), TimePoint(1)).empty());
}

// ---------------------------------------------------------------------------
// Query bit-equality: the canonical (oid, t) seal makes every query type
// independent of insertion order, and the SamplesMatchingTime window fast
// path (binary search on the time column) must emit exactly the rows of
// the per-row predicate path.

std::shared_ptr<City> MakeCity() {
  CityConfig config;
  config.seed = 20260807;
  config.grid_cols = 6;
  config.grid_rows = 6;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  return city;
}

Moft MakeCars(const City& city) {
  TrajectoryConfig traj;
  traj.seed = 99;
  traj.num_objects = 40;
  traj.duration = 3600.0;
  traj.sample_period = 30.0;
  traj.speed = 12.0;
  return workload::GenerateTrajectories(city, traj).ValueOrDie();
}

void ExpectSameTable(const Result<FactTable>& a, const Result<FactTable>& b,
                     const char* what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
  EXPECT_EQ(a.ValueOrDie().rows(), b.ValueOrDie().rows()) << what;
}

TEST(MoftColumnsQueryTest, AllQueryTypesIndependentOfInsertionOrder) {
  auto city_a = MakeCity();
  auto city_b = MakeCity();
  Moft cars = MakeCars(*city_a);

  // Re-insert the same observations into a second MOFT in reversed order.
  Moft reversed;
  std::vector<Sample> rows = AllSamplesOf(cars);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    ASSERT_TRUE(reversed.Add(it->oid, it->t, it->pos).ok());
  }
  ASSERT_EQ(reversed.num_samples(), cars.num_samples());

  ASSERT_TRUE(city_a->db->AddMoft("cars", std::move(cars)).ok());
  ASSERT_TRUE(city_b->db->AddMoft("cars", std::move(reversed)).ok());
  ASSERT_TRUE(
      city_a->db->BuildOverlay({city_a->neighborhoods_layer}, true).ok());
  ASSERT_TRUE(
      city_b->db->BuildOverlay({city_b->neighborhoods_layer}, true).ok());

  QueryEngine ea(city_a->db.get());
  QueryEngine eb(city_b->db.get());
  ea.set_num_threads(1);
  eb.set_num_threads(1);

  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  TimePredicate any;
  TimePredicate morning = TimePredicate().HourRange(0, 0);

  ExpectSameTable(ea.SamplesMatchingTime("cars", morning),
                  eb.SamplesMatchingTime("cars", morning),
                  "SamplesMatchingTime");
  for (Strategy s :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    ExpectSameTable(
        ea.SampleRegion("cars", city_a->neighborhoods_layer, low, any, s),
        eb.SampleRegion("cars", city_b->neighborhoods_layer, low, any, s),
        core::StrategyToString(s).data());
  }
  ExpectSameTable(
      ea.SamplesOnPolylines("cars", city_a->streets_layer, 2.0, any),
      eb.SamplesOnPolylines("cars", city_b->streets_layer, 2.0, any),
      "SamplesOnPolylines");
  ExpectSameTable(
      ea.SamplesNearNodes("cars", city_a->schools_layer, 25.0, any),
      eb.SamplesNearNodes("cars", city_b->schools_layer, 25.0, any),
      "SamplesNearNodes");
  TimePoint mid(1800.0);
  ExpectSameTable(
      ea.SnapshotInRegion("cars", city_a->neighborhoods_layer, low, mid),
      eb.SnapshotInRegion("cars", city_b->neighborhoods_layer, low, mid),
      "SnapshotInRegion");
  ExpectSameTable(
      ea.TrajectoryRegion("cars", city_a->neighborhoods_layer, low, any),
      eb.TrajectoryRegion("cars", city_b->neighborhoods_layer, low, any),
      "TrajectoryRegion");
  ExpectSameTable(
      ea.TrajectoryNearNodes("cars", city_a->stops_layer, 30.0, any),
      eb.TrajectoryNearNodes("cars", city_b->stops_layer, 30.0, any),
      "TrajectoryNearNodes");
  ExpectSameTable(
      ea.TrajectoryAggregates("cars", city_a->neighborhoods_layer, low),
      eb.TrajectoryAggregates("cars", city_b->neighborhoods_layer, low),
      "TrajectoryAggregates");
  for (bool traj : {false, true}) {
    auto a = ea.ObjectsAlwaysWithin("cars", city_a->neighborhoods_layer, low,
                                    any, traj);
    auto b = eb.ObjectsAlwaysWithin("cars", city_b->neighborhoods_layer, low,
                                    any, traj);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie()) << "traj=" << traj;
  }
  auto pa = ea.ObjectsPossiblyWithin("cars", city_a->neighborhoods_layer,
                                     low, 50.0);
  auto pb = eb.ObjectsPossiblyWithin("cars", city_b->neighborhoods_layer,
                                     low, 50.0);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa.ValueOrDie(), pb.ValueOrDie());
}

TEST(MoftColumnsQueryTest, WindowFastPathMatchesRowPath) {
  auto city = MakeCity();
  ASSERT_TRUE(city->db->AddMoft("cars", MakeCars(*city)).ok());
  QueryEngine engine(city->db.get());
  engine.set_num_threads(1);

  for (auto [t0, t1] : std::vector<std::pair<double, double>>{
           {600.0, 1200.0},   // Interior window.
           {0.0, 3600.0},     // Whole domain, closed at both ends.
           {1200.0, 600.0},   // Inverted: empty.
           {9000.0, 9999.0},  // Past the data: empty.
           {600.0, 600.0}}) { // Degenerate instant.
    Interval w{TimePoint(t0), TimePoint(t1)};
    // window_only() predicate takes the binary-search fast path...
    TimePredicate fast = TimePredicate().Window(w);
    // ...while the redundant always-true hour constraint forces the
    // per-row Matches path over the same closed window.
    TimePredicate slow = TimePredicate().Window(w).HourRange(0, 23);
    ASSERT_TRUE(fast.window_only());
    ASSERT_FALSE(slow.window_only());
    ExpectSameTable(engine.SamplesMatchingTime("cars", fast),
                    engine.SamplesMatchingTime("cars", slow),
                    "window fast path");
  }

  // Multi-threaded fast path is bit-identical to serial (chunking over
  // per-object ranges merges in chunk order).
  TimePredicate fast = TimePredicate().Window(
      Interval{TimePoint(600.0), TimePoint(1200.0)});
  QueryEngine e4(city->db.get());
  e4.set_num_threads(4);
  ExpectSameTable(engine.SamplesMatchingTime("cars", fast),
                  e4.SamplesMatchingTime("cars", fast),
                  "window fast path threads=4");
}

}  // namespace
}  // namespace piet
