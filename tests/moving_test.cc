#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "moving/moft.h"
#include "moving/trajectory.h"

namespace piet::moving {
namespace {

using geometry::Point;
using temporal::Interval;
using temporal::TimePoint;

TEST(MoftTest, AddAndQuery) {
  Moft moft;
  ASSERT_TRUE(moft.Add(1, TimePoint(10), {0, 0}).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(5), {1, 1}).ok());  // Out of order.
  ASSERT_TRUE(moft.Add(2, TimePoint(7), {2, 2}).ok());
  EXPECT_EQ(moft.num_samples(), 3u);
  EXPECT_EQ(moft.num_objects(), 2u);

  const auto& s1 = moft.SamplesOf(1);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_LT(s1[0].t, s1[1].t);  // Kept sorted.
  EXPECT_TRUE(moft.SamplesOf(42).empty());

  auto span = moft.TimeSpan().ValueOrDie();
  EXPECT_DOUBLE_EQ(span.begin.seconds, 5.0);
  EXPECT_DOUBLE_EQ(span.end.seconds, 10.0);
}

TEST(MoftTest, DuplicateHandling) {
  Moft moft;
  ASSERT_TRUE(moft.Add(1, TimePoint(5), {1, 1}).ok());
  EXPECT_TRUE(moft.Add(1, TimePoint(5), {1, 1}).ok());  // Idempotent.
  EXPECT_EQ(moft.num_samples(), 1u);
  // Conflicting position at the same instant.
  EXPECT_TRUE(moft.Add(1, TimePoint(5), {9, 9}).IsAlreadyExists());
}

TEST(MoftTest, CsvRoundTrip) {
  Moft moft;
  ASSERT_TRUE(moft.Add(1, TimePoint(1.5), {0.25, -3}).ok());
  ASSERT_TRUE(moft.Add(2, TimePoint(2), {7, 8}).ok());
  std::ostringstream out;
  ASSERT_TRUE(moft.WriteCsv(out).ok());

  std::istringstream in(out.str());
  auto parsed = Moft::ReadCsv(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().num_samples(), 2u);
  EXPECT_EQ(parsed.ValueOrDie().SamplesOf(1)[0].pos, Point(0.25, -3));
}

TEST(MoftTest, CsvErrors) {
  std::istringstream bad_arity("1,2,3\n");
  EXPECT_TRUE(Moft::ReadCsv(bad_arity).status().IsParseError());
  std::istringstream bad_number("1,x,3,4\n");
  EXPECT_TRUE(Moft::ReadCsv(bad_number).status().IsParseError());
  std::istringstream with_comment("# comment\n\n1,2,3,4\n");
  EXPECT_TRUE(Moft::ReadCsv(with_comment).ok());
}

TEST(MoftTest, AddRejectsNonFiniteSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Moft moft;
  EXPECT_TRUE(moft.Add(1, TimePoint(nan), {0, 0}).IsInvalidArgument());
  // Two NaN-time samples of one object would both pass the duplicate
  // index (NaN != NaN); neither gets in.
  EXPECT_TRUE(moft.Add(1, TimePoint(nan), {1, 1}).IsInvalidArgument());
  EXPECT_TRUE(moft.Add(1, TimePoint(inf), {0, 0}).IsInvalidArgument());
  EXPECT_TRUE(moft.Add(1, TimePoint(0), {nan, 0}).IsInvalidArgument());
  EXPECT_TRUE(moft.Add(1, TimePoint(0), {0, nan}).IsInvalidArgument());
  EXPECT_TRUE(moft.Add(1, TimePoint(0), {inf, 0}).IsInvalidArgument());
  EXPECT_TRUE(moft.Add(1, TimePoint(0), {0, -inf}).IsInvalidArgument());
  // Finite times outside civil years 0001-9999: the calendar's rollups
  // walk years one at a time and the hour bucket is an int64_t.
  const temporal::TimeRange range = temporal::kCalendarRange;
  for (const double t : {1e13, -1e13, 1e20, -1e300, range.end,
                         std::nextafter(range.begin, -inf)}) {
    EXPECT_TRUE(moft.Add(1, TimePoint(t), {0, 0}).IsInvalidArgument()) << t;
  }
  EXPECT_EQ(moft.num_samples(), 0u);
  ASSERT_TRUE(moft.Add(1, TimePoint(0), {0, 0}).ok());
  ASSERT_TRUE(moft.Add(1, TimePoint(range.begin), {0, 0}).ok());
  ASSERT_TRUE(
      moft.Add(1, TimePoint(std::nextafter(range.end, 0.0)), {0, 0}).ok());
  EXPECT_EQ(moft.num_samples(), 3u);
}

TEST(MoftTest, CsvRejectsNonFiniteValuesWithLineNumber) {
  for (const char* row : {"1,nan,3,4", "1,2,inf,4", "1,2,3,-inf", "nan,2,3,4",
                          "1e300,2,3,4", "1,1e13,3,4", "1,-1e18,3,4",
                          "1,2.6e11,3,4"}) {
    std::istringstream in(std::string("# header\n1,1,0,0\n") + row + "\n");
    Result<Moft> parsed = Moft::ReadCsv(in);
    ASSERT_FALSE(parsed.ok()) << row;
    EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
        << row << ": " << parsed.status().message();
  }
  std::istringstream nan_time("1,nan,3,4\n");
  EXPECT_TRUE(Moft::ReadCsv(nan_time).status().IsInvalidArgument());
  std::istringstream conflict("1,2,3,4\n1,2,5,6\n");
  Status dup = Moft::ReadCsv(conflict).status();
  EXPECT_TRUE(dup.IsAlreadyExists());
  EXPECT_NE(dup.message().find("line 2"), std::string::npos);
}

TEST(MoftTest, ToFactTableShape) {
  Moft moft;
  ASSERT_TRUE(moft.Add(1, TimePoint(1), {2, 3}).ok());
  auto table = moft.ToFactTable();
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.columns()[0].name, "Oid");
  EXPECT_EQ(table.At(0, "x").ValueOrDie(), Value(2.0));
}

TEST(TrajectorySampleTest, StrictTimeOrdering) {
  EXPECT_TRUE(TrajectorySample::Create(
                  {{TimePoint(1), {0, 0}}, {TimePoint(1), {1, 1}}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TrajectorySample::Create(
                  {{TimePoint(2), {0, 0}}, {TimePoint(1), {1, 1}}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TrajectorySample::Create(
                  {{TimePoint(1), {0, 0}}, {TimePoint(2), {1, 1}}})
                  .ok());
}

TEST(TrajectorySampleTest, ClosedDetection) {
  auto open = TrajectorySample::Create(
                  {{TimePoint(0), {0, 0}}, {TimePoint(1), {1, 1}}})
                  .ValueOrDie();
  EXPECT_FALSE(open.IsClosed());
  auto closed = TrajectorySample::Create({{TimePoint(0), {0, 0}},
                                          {TimePoint(1), {1, 1}},
                                          {TimePoint(2), {0, 0}}})
                    .ValueOrDie();
  EXPECT_TRUE(closed.IsClosed());
}

LinearTrajectory MakeLit() {
  auto sample = TrajectorySample::Create({{TimePoint(0), {0, 0}},
                                          {TimePoint(10), {10, 0}},
                                          {TimePoint(20), {10, 10}}})
                    .ValueOrDie();
  return LinearTrajectory::FromSample(std::move(sample)).ValueOrDie();
}

TEST(LinearTrajectoryTest, PositionInterpolation) {
  LinearTrajectory lit = MakeLit();
  EXPECT_EQ(*lit.PositionAt(TimePoint(0)), Point(0, 0));
  EXPECT_EQ(*lit.PositionAt(TimePoint(5)), Point(5, 0));
  EXPECT_EQ(*lit.PositionAt(TimePoint(10)), Point(10, 0));
  EXPECT_EQ(*lit.PositionAt(TimePoint(15)), Point(10, 5));
  EXPECT_EQ(*lit.PositionAt(TimePoint(20)), Point(10, 10));
  EXPECT_FALSE(lit.PositionAt(TimePoint(-1)).has_value());
  EXPECT_FALSE(lit.PositionAt(TimePoint(21)).has_value());
}

TEST(LinearTrajectoryTest, LengthAndSpeed) {
  LinearTrajectory lit = MakeLit();
  EXPECT_DOUBLE_EQ(lit.Length(), 20.0);
  EXPECT_DOUBLE_EQ(lit.AverageSpeed(), 1.0);
  EXPECT_DOUBLE_EQ(lit.LengthDuring(Interval(TimePoint(5), TimePoint(15))),
                   10.0);
  EXPECT_DOUBLE_EQ(lit.LengthDuring(Interval(TimePoint(-5), TimePoint(100))),
                   20.0);
  EXPECT_DOUBLE_EQ(lit.LengthDuring(Interval(TimePoint(3), TimePoint(3))), 0.0);
}

TEST(LinearTrajectoryTest, Legs) {
  LinearTrajectory lit = MakeLit();
  auto legs = lit.Legs();
  ASSERT_EQ(legs.size(), 2u);
  EXPECT_EQ(legs[0].p1, Point(10, 0));
  EXPECT_DOUBLE_EQ(legs[0].DurationOf(), 10.0);
  EXPECT_EQ(legs[1].At(TimePoint(15)), Point(10, 5));
}

TEST(LinearTrajectoryTest, AsPolylineCollapsesStationary) {
  auto sample = TrajectorySample::Create({{TimePoint(0), {0, 0}},
                                          {TimePoint(1), {0, 0}},
                                          {TimePoint(2), {3, 4}}})
                    .ValueOrDie();
  auto lit = LinearTrajectory::FromSample(std::move(sample)).ValueOrDie();
  auto line = lit.AsPolyline().ValueOrDie();
  EXPECT_EQ(line.num_vertices(), 2u);
  EXPECT_DOUBLE_EQ(line.Length(), 5.0);
}

TEST(LinearTrajectoryTest, SinglePointSample) {
  auto sample =
      TrajectorySample::Create({{TimePoint(3), {1, 2}}}).ValueOrDie();
  auto lit = LinearTrajectory::FromSample(std::move(sample)).ValueOrDie();
  EXPECT_EQ(*lit.PositionAt(TimePoint(3)), Point(1, 2));
  EXPECT_DOUBLE_EQ(lit.Length(), 0.0);
  EXPECT_TRUE(lit.Legs().empty());
  EXPECT_TRUE(lit.AsPolyline().status().IsInvalidArgument());
}

TEST(PolynomialTest, HornerEvaluation) {
  Polynomial p({1.0, -2.0, 3.0});  // 1 - 2t + 3t^2.
  EXPECT_DOUBLE_EQ(p.Eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.Eval(1.0), 2.0);
  EXPECT_DOUBLE_EQ(p.Eval(2.0), 9.0);
  EXPECT_DOUBLE_EQ(Polynomial().Eval(5.0), 0.0);
}

TEST(PolynomialTrajectoryTest, QuarterCircleExample) {
  // The paper's Def. 5 example: {(t, (1-t^2)/(1+t^2), 2t/(1+t^2)), 0<=t<=1}
  // traces a quarter of the unit circle.
  PolynomialTrajectory::Piece piece;
  piece.t0 = TimePoint(0);
  piece.t1 = TimePoint(1);
  piece.px = Polynomial({1.0, 0.0, -1.0});  // 1 - t^2.
  piece.qx = Polynomial({1.0, 0.0, 1.0});   // 1 + t^2.
  piece.py = Polynomial({0.0, 2.0});        // 2t.
  piece.qy = Polynomial({1.0, 0.0, 1.0});

  auto traj = PolynomialTrajectory::Create({piece}).ValueOrDie();
  EXPECT_EQ(*traj.PositionAt(TimePoint(0)), Point(1, 0));
  Point end = *traj.PositionAt(TimePoint(1));
  EXPECT_NEAR(end.x, 0.0, 1e-12);
  EXPECT_NEAR(end.y, 1.0, 1e-12);
  // Every point lies on the unit circle.
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    Point p = *traj.PositionAt(TimePoint(t));
    EXPECT_NEAR(p.x * p.x + p.y * p.y, 1.0, 1e-12) << t;
  }
  EXPECT_FALSE(traj.PositionAt(TimePoint(2)).has_value());
}

TEST(PolynomialTrajectoryTest, ValidationRejectsGapsAndJumps) {
  PolynomialTrajectory::Piece a;
  a.t0 = TimePoint(0);
  a.t1 = TimePoint(1);
  a.px = Polynomial({0.0, 1.0});  // x = t.
  a.py = Polynomial({0.0});
  PolynomialTrajectory::Piece gap = a;
  gap.t0 = TimePoint(2);
  gap.t1 = TimePoint(3);
  EXPECT_TRUE(
      PolynomialTrajectory::Create({a, gap}).status().IsInvalidArgument());

  PolynomialTrajectory::Piece jump;
  jump.t0 = TimePoint(1);
  jump.t1 = TimePoint(2);
  jump.px = Polynomial({42.0});  // Discontinuous x.
  jump.py = Polynomial({0.0});
  EXPECT_TRUE(
      PolynomialTrajectory::Create({a, jump}).status().IsInvalidArgument());

  PolynomialTrajectory::Piece cont;
  cont.t0 = TimePoint(1);
  cont.t1 = TimePoint(2);
  cont.px = Polynomial({0.0, 1.0});  // x = t: continuous (x(1)=1).
  cont.py = Polynomial({0.0});
  EXPECT_TRUE(PolynomialTrajectory::Create({a, cont}).ok());
}

TEST(PolynomialTrajectoryTest, DiscretizeBridgesToLit) {
  PolynomialTrajectory::Piece piece;
  piece.t0 = TimePoint(0);
  piece.t1 = TimePoint(1);
  piece.px = Polynomial({1.0, 0.0, -1.0});
  piece.qx = Polynomial({1.0, 0.0, 1.0});
  piece.py = Polynomial({0.0, 2.0});
  piece.qy = Polynomial({1.0, 0.0, 1.0});
  auto traj = PolynomialTrajectory::Create({piece}).ValueOrDie();

  auto sample = traj.Discretize(50).ValueOrDie();
  EXPECT_EQ(sample.size(), 50u);
  auto lit = LinearTrajectory::FromSample(sample).ValueOrDie();
  // LIT length approximates the arc length pi/2.
  EXPECT_NEAR(lit.Length(), M_PI / 2.0, 1e-3);
  EXPECT_TRUE(traj.Discretize(1).status().IsInvalidArgument());
}

}  // namespace
}  // namespace piet::moving
