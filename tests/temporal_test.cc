#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/random.h"
#include "temporal/calendar.h"
#include "temporal/interval.h"
#include "temporal/time_dimension.h"

namespace piet::temporal {
namespace {

TEST(CalendarTest, EpochIsSaturday) {
  TimePoint epoch(0);
  EXPECT_EQ(GetDayOfWeek(epoch), DayOfWeek::kSaturday);
  CivilTime c = ToCivil(epoch);
  EXPECT_EQ(c.year, 2000);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
}

TEST(CalendarTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_TRUE(IsLeapYear(2004));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(2001));
  EXPECT_EQ(DaysInMonth(2000, 2), 29);
  EXPECT_EQ(DaysInMonth(2001, 2), 28);
  EXPECT_EQ(DaysInMonth(2001, 12), 31);
}

TEST(CalendarTest, CivilRoundTrip) {
  Random rng(21);
  for (int i = 0; i < 500; ++i) {
    CivilTime c;
    c.year = static_cast<int>(rng.UniformInt(1995, 2035));
    c.month = static_cast<int>(rng.UniformInt(1, 12));
    c.day = static_cast<int>(rng.UniformInt(1, DaysInMonth(c.year, c.month)));
    c.hour = static_cast<int>(rng.UniformInt(0, 23));
    c.minute = static_cast<int>(rng.UniformInt(0, 59));
    c.second = static_cast<double>(rng.UniformInt(0, 59));
    auto t = FromCivil(c);
    ASSERT_TRUE(t.ok());
    CivilTime back = ToCivil(t.ValueOrDie());
    EXPECT_EQ(back.year, c.year);
    EXPECT_EQ(back.month, c.month);
    EXPECT_EQ(back.day, c.day);
    EXPECT_EQ(back.hour, c.hour);
    EXPECT_EQ(back.minute, c.minute);
    EXPECT_NEAR(back.second, c.second, 1e-6);
  }
}

// The year- and month-walking conversions the closed form replaced, kept
// verbatim as the oracle (each costs O(|year - 2000|) per call).
int64_t LoopDaysToYear(int year) {
  int64_t days = 0;
  if (year >= 2000) {
    for (int y = 2000; y < year; ++y) {
      days += IsLeapYear(y) ? 366 : 365;
    }
  } else {
    for (int y = year; y < 2000; ++y) {
      days -= IsLeapYear(y) ? 366 : 365;
    }
  }
  return days;
}

CivilTime LoopToCivil(TimePoint t) {
  double day_count_d = std::floor(t.seconds / kDay);
  int64_t day_count = static_cast<int64_t>(day_count_d);
  double seconds_in_day = t.seconds - day_count_d * kDay;

  CivilTime out;
  // Find the year.
  int year = 2000;
  int64_t days = day_count;
  while (days < 0) {
    --year;
    days += IsLeapYear(year) ? 366 : 365;
  }
  while (days >= (IsLeapYear(year) ? 366 : 365)) {
    days -= IsLeapYear(year) ? 366 : 365;
    ++year;
  }
  out.year = year;
  // Find the month and day.
  int month = 1;
  while (days >= DaysInMonth(year, month)) {
    days -= DaysInMonth(year, month);
    ++month;
  }
  out.month = month;
  out.day = static_cast<int>(days) + 1;

  out.hour = static_cast<int>(seconds_in_day / kHour);
  double rem = seconds_in_day - out.hour * kHour;
  out.minute = static_cast<int>(rem / kMinute);
  out.second = rem - out.minute * kMinute;
  return out;
}

void ExpectSameCivil(const CivilTime& got, const CivilTime& want,
                     const std::string& where) {
  EXPECT_EQ(got.year, want.year) << where;
  EXPECT_EQ(got.month, want.month) << where;
  EXPECT_EQ(got.day, want.day) << where;
  EXPECT_EQ(got.hour, want.hour) << where;
  EXPECT_EQ(got.minute, want.minute) << where;
  EXPECT_EQ(got.second, want.second) << where;
}

// Every day from 0001-01-01 to 9999-12-31: ToCivil names the day the loop
// oracle's year offset and month walk give it, and FromCivil maps the day
// back to the same instant (a varying time of day rides along).
TEST(CalendarTest, ClosedFormMatchesLoopOracleOnEveryDay) {
  size_t days_checked = 0;
  for (int year = 1; year <= 9999; ++year) {
    int64_t day = LoopDaysToYear(year);
    for (int month = 1; month <= 12; ++month) {
      for (int d = 1; d <= DaysInMonth(year, month); ++d, ++day) {
        CivilTime want;
        want.year = year;
        want.month = month;
        want.day = d;
        const int64_t sec = ((day * 7919) % 86400 + 86400) % 86400;
        want.hour = static_cast<int>(sec / 3600);
        want.minute = static_cast<int>(sec / 60 % 60);
        want.second = static_cast<double>(sec % 60);
        const TimePoint t(static_cast<double>(day) * kDay +
                          static_cast<double>(sec));
        const CivilTime got = ToCivil(t);
        if (got.year != want.year || got.month != want.month ||
            got.day != want.day || got.hour != want.hour ||
            got.minute != want.minute || got.second != want.second) {
          ExpectSameCivil(got, want, want.ToString());
          FAIL() << "first mismatch on " << want.ToString();
        }
        const Result<TimePoint> back = FromCivil(want);
        ASSERT_TRUE(back.ok()) << want.ToString();
        ASSERT_EQ(back.ValueOrDie().seconds, t.seconds) << want.ToString();
        ++days_checked;
      }
    }
  }
  EXPECT_EQ(days_checked, 3652059u);  // 9999 years of 365.2425 days.
}

// The loop ToCivil itself, on a stride of instants over the same range and
// beyond it (negative and five-digit years).
TEST(CalendarTest, ClosedFormMatchesLoopToCivil) {
  const int64_t first = LoopDaysToYear(-800);
  const int64_t last = LoopDaysToYear(12001);
  for (int64_t day = first; day < last; day += 997) {
    const TimePoint t(static_cast<double>(day) * kDay + 45296.5);
    ExpectSameCivil(ToCivil(t), LoopToCivil(t),
                    "day " + std::to_string(day));
  }
}

TEST(CalendarTest, KnownDates) {
  // 2006-01-02 was a Monday; 2006-01-07 a Saturday (paper's query 4 date).
  auto monday = ParseTimePoint("2006-01-02 00:00");
  ASSERT_TRUE(monday.ok());
  EXPECT_EQ(GetDayOfWeek(monday.ValueOrDie()), DayOfWeek::kMonday);
  auto saturday = ParseTimePoint("2006-01-07 09:15");
  ASSERT_TRUE(saturday.ok());
  EXPECT_EQ(GetDayOfWeek(saturday.ValueOrDie()), DayOfWeek::kSaturday);
  EXPECT_EQ(GetHourOfDay(saturday.ValueOrDie()), 9);
}

TEST(CalendarTest, NegativeTimesBeforeEpoch) {
  TimePoint t(-kDay);  // 1999-12-31.
  CivilTime c = ToCivil(t);
  EXPECT_EQ(c.year, 1999);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 31);
  EXPECT_EQ(GetDayOfWeek(t), DayOfWeek::kFriday);
}

TEST(CalendarTest, TimeOfDayBuckets) {
  auto at = [](int h) {
    CivilTime c;
    c.hour = h;
    return FromCivil(c).ValueOrDie();
  };
  EXPECT_EQ(GetTimeOfDay(at(0)), TimeOfDay::kNight);
  EXPECT_EQ(GetTimeOfDay(at(5)), TimeOfDay::kNight);
  EXPECT_EQ(GetTimeOfDay(at(6)), TimeOfDay::kMorning);
  EXPECT_EQ(GetTimeOfDay(at(11)), TimeOfDay::kMorning);
  EXPECT_EQ(GetTimeOfDay(at(12)), TimeOfDay::kAfternoon);
  EXPECT_EQ(GetTimeOfDay(at(17)), TimeOfDay::kAfternoon);
  EXPECT_EQ(GetTimeOfDay(at(18)), TimeOfDay::kEvening);
  EXPECT_EQ(GetTimeOfDay(at(23)), TimeOfDay::kEvening);
}

TEST(CalendarTest, ParseErrors) {
  EXPECT_TRUE(ParseTimePoint("garbage").status().IsParseError());
  EXPECT_TRUE(ParseTimePoint("2006-13-01").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTimePoint("2006-02-30").status().IsInvalidArgument());
  EXPECT_TRUE(ParseTimePoint("2006-01-02").ok());  // Date only.
}

TEST(CalendarTest, StartOfDayAndHour) {
  auto t = ParseTimePoint("2006-03-15 13:47:20").ValueOrDie();
  EXPECT_EQ(ToCivil(StartOfDay(t)).hour, 0);
  EXPECT_EQ(ToCivil(StartOfHour(t)).minute, 0);
  EXPECT_EQ(ToCivil(StartOfHour(t)).hour, 13);
}

TEST(IntervalSetTest, CanonicalizesOverlaps) {
  IntervalSet set({{TimePoint(5), TimePoint(10)},
                   {TimePoint(0), TimePoint(6)},
                   {TimePoint(20), TimePoint(25)}});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.intervals()[0], Interval(TimePoint(0), TimePoint(10)));
  EXPECT_EQ(set.intervals()[1], Interval(TimePoint(20), TimePoint(25)));
  EXPECT_DOUBLE_EQ(set.TotalLength(), 15.0);
}

TEST(IntervalSetTest, MergesTouching) {
  IntervalSet set({{TimePoint(0), TimePoint(5)}, {TimePoint(5), TimePoint(8)}});
  EXPECT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.TotalLength(), 8.0);
}

TEST(IntervalSetTest, Contains) {
  IntervalSet set({{TimePoint(0), TimePoint(2)}, {TimePoint(5), TimePoint(6)}});
  EXPECT_TRUE(set.Contains(TimePoint(0)));
  EXPECT_TRUE(set.Contains(TimePoint(2)));
  EXPECT_FALSE(set.Contains(TimePoint(3)));
  EXPECT_TRUE(set.Contains(TimePoint(5.5)));
  EXPECT_FALSE(set.Contains(TimePoint(-1)));
  EXPECT_FALSE(set.Contains(TimePoint(7)));
}

TEST(IntervalSetTest, IntersectAndUnion) {
  IntervalSet a({{TimePoint(0), TimePoint(10)}, {TimePoint(20), TimePoint(30)}});
  IntervalSet b({{TimePoint(5), TimePoint(25)}});
  IntervalSet isect = a.Intersect(b);
  ASSERT_EQ(isect.size(), 2u);
  EXPECT_EQ(isect.intervals()[0], Interval(TimePoint(5), TimePoint(10)));
  EXPECT_EQ(isect.intervals()[1], Interval(TimePoint(20), TimePoint(25)));

  IntervalSet uni = a.Union(b);
  ASSERT_EQ(uni.size(), 1u);
  EXPECT_EQ(uni.intervals()[0], Interval(TimePoint(0), TimePoint(30)));
}

TEST(IntervalSetTest, PointIntervals) {
  IntervalSet set({{TimePoint(3), TimePoint(3)}});
  EXPECT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.TotalLength(), 0.0);
  EXPECT_TRUE(set.Contains(TimePoint(3)));
  EXPECT_TRUE(set.WithoutPoints().empty());
}

TEST(IntervalSetTest, ClipWindow) {
  IntervalSet set({{TimePoint(0), TimePoint(100)}});
  IntervalSet clipped = set.Clip(Interval(TimePoint(40), TimePoint(60)));
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_DOUBLE_EQ(clipped.TotalLength(), 20.0);
}

// Property: interval-set operations agree with pointwise evaluation.
class IntervalSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalSetProperty, SetAlgebraMatchesPointwise) {
  Random rng(500 + GetParam());
  auto random_set = [&] {
    std::vector<Interval> ivs;
    int n = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      double a = static_cast<double>(rng.UniformInt(0, 50));
      double b = a + static_cast<double>(rng.UniformInt(0, 10));
      ivs.emplace_back(TimePoint(a), TimePoint(b));
    }
    return IntervalSet(std::move(ivs));
  };
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet a = random_set();
    IntervalSet b = random_set();
    IntervalSet uni = a.Union(b);
    IntervalSet isect = a.Intersect(b);
    for (double t = -1.0; t <= 62.0; t += 0.5) {
      TimePoint tp(t);
      EXPECT_EQ(uni.Contains(tp), a.Contains(tp) || b.Contains(tp)) << t;
      EXPECT_EQ(isect.Contains(tp), a.Contains(tp) && b.Contains(tp)) << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty, ::testing::Range(0, 6));

TEST(TimeDimensionTest, Rollups) {
  TimeDimension dim;
  TimePoint t = ParseTimePoint("2006-01-02 09:30:00").ValueOrDie();
  EXPECT_EQ(dim.Rollup("hour", t).ValueOrDie(), Value(int64_t{9}));
  EXPECT_EQ(dim.Rollup("timeOfDay", t).ValueOrDie(), Value("Morning"));
  EXPECT_EQ(dim.Rollup("dayOfWeek", t).ValueOrDie(), Value("Monday"));
  EXPECT_EQ(dim.Rollup("typeOfDay", t).ValueOrDie(), Value("Weekday"));
  EXPECT_EQ(dim.Rollup("day", t).ValueOrDie(), Value("2006-01-02"));
  EXPECT_EQ(dim.Rollup("month", t).ValueOrDie(), Value("2006-01"));
  EXPECT_EQ(dim.Rollup("year", t).ValueOrDie(), Value(int64_t{2006}));
  EXPECT_EQ(dim.Rollup("minute", t).ValueOrDie(), Value("2006-01-02 09:30"));
  EXPECT_EQ(dim.Rollup("all", t).ValueOrDie(), Value("all"));
  EXPECT_TRUE(dim.Rollup("bogus", t).status().IsNotFound());
}

TEST(TimeDimensionTest, WeekendTyping) {
  TimeDimension dim;
  TimePoint sat = ParseTimePoint("2006-01-07 10:00").ValueOrDie();
  EXPECT_EQ(dim.Rollup("typeOfDay", sat).ValueOrDie(), Value("Weekend"));
}

TEST(TimeDimensionTest, RollsUpGraph) {
  EXPECT_TRUE(TimeDimension::RollsUp("timeId", "hour"));
  EXPECT_TRUE(TimeDimension::RollsUp("hour", "timeOfDay"));
  EXPECT_TRUE(TimeDimension::RollsUp("minute", "timeOfDay"));
  EXPECT_TRUE(TimeDimension::RollsUp("day", "year"));
  EXPECT_TRUE(TimeDimension::RollsUp("day", "typeOfDay"));
  EXPECT_TRUE(TimeDimension::RollsUp("hour", "all"));
  EXPECT_FALSE(TimeDimension::RollsUp("hour", "day"));
  EXPECT_FALSE(TimeDimension::RollsUp("timeOfDay", "hour"));
  EXPECT_TRUE(TimeDimension::HasLevel("hourBucket"));
  EXPECT_FALSE(TimeDimension::HasLevel("fortnight"));
}

TEST(TimeDimensionTest, HourBucketGroupsAcrossDays) {
  TimeDimension dim;
  TimePoint a = ParseTimePoint("2006-01-02 09:10").ValueOrDie();
  TimePoint b = ParseTimePoint("2006-01-02 09:50").ValueOrDie();
  TimePoint c = ParseTimePoint("2006-01-03 09:10").ValueOrDie();
  EXPECT_EQ(dim.Rollup("hourBucket", a).ValueOrDie(),
            dim.Rollup("hourBucket", b).ValueOrDie());
  EXPECT_NE(dim.Rollup("hourBucket", a).ValueOrDie(),
            dim.Rollup("hourBucket", c).ValueOrDie());
  // Same hour-of-day though.
  EXPECT_EQ(dim.Rollup("hour", a).ValueOrDie(),
            dim.Rollup("hour", c).ValueOrDie());
}

}  // namespace
}  // namespace piet::temporal
