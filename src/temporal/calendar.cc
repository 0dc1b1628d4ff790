#include "temporal/calendar.h"

#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace piet::temporal {

namespace {

// Epoch 2000-01-01 was a Saturday.
constexpr int kEpochDayOfWeek = 5;  // index of Saturday in our Monday-based enum

// Days from 0000-03-01 to the epoch (2000-01-01). The conversions below
// count days in 400-year eras that start on March 1st, so a leap day is
// the last day of its era-year (H. Hinnant's days_from_civil /
// civil_from_days): constant time for every year, proleptic Gregorian.
constexpr int64_t kEpochFromMarch0 = 730425;

// Days from the epoch to year-month-day (month 1-12, day 1-31).
int64_t DaysFromCivil(int64_t year, int month, int day) {
  year -= month <= 2 ? 1 : 0;
  const int64_t era = (year >= 0 ? year : year - 399) / 400;
  const int64_t yoe = year - era * 400;  // [0, 399]
  const int64_t mp = month > 2 ? month - 3 : month + 9;  // [0, 11]
  const int64_t doy = (153 * mp + 2) / 5 + day - 1;  // [0, 365]
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;  // [0, 146096]
  return era * 146097 + doe - kEpochFromMarch0;
}

// Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int64_t* year, int* month, int* day) {
  days += kEpochFromMarch0;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const int64_t doe = days - era * 146097;  // [0, 146096]
  const int64_t yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const int64_t mp = (5 * doy + 2) / 153;  // [0, 11]
  *day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *month = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  *year = yoe + era * 400 + (*month <= 2 ? 1 : 0);
}

}  // namespace

std::string_view DayOfWeekToString(DayOfWeek d) {
  switch (d) {
    case DayOfWeek::kMonday:
      return "Monday";
    case DayOfWeek::kTuesday:
      return "Tuesday";
    case DayOfWeek::kWednesday:
      return "Wednesday";
    case DayOfWeek::kThursday:
      return "Thursday";
    case DayOfWeek::kFriday:
      return "Friday";
    case DayOfWeek::kSaturday:
      return "Saturday";
    case DayOfWeek::kSunday:
      return "Sunday";
  }
  return "Unknown";
}

std::string_view TimeOfDayToString(TimeOfDay t) {
  switch (t) {
    case TimeOfDay::kNight:
      return "Night";
    case TimeOfDay::kMorning:
      return "Morning";
    case TimeOfDay::kAfternoon:
      return "Afternoon";
    case TimeOfDay::kEvening:
      return "Evening";
  }
  return "Unknown";
}

std::string_view TypeOfDayToString(TypeOfDay t) {
  switch (t) {
    case TypeOfDay::kWeekday:
      return "Weekday";
    case TypeOfDay::kWeekend:
      return "Weekend";
  }
  return "Unknown";
}

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) {
    return 29;
  }
  return kDays[month - 1];
}

std::string CivilTime::ToString() const {
  char buf[40];
  int whole_second = static_cast<int>(second);
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", year, month,
                day, hour, minute, whole_second);
  return buf;
}

CivilTime ToCivil(TimePoint t) {
  double day_count_d = std::floor(t.seconds / kDay);
  int64_t day_count = static_cast<int64_t>(day_count_d);
  double seconds_in_day = t.seconds - day_count_d * kDay;

  CivilTime out;
  int64_t year = 0;
  CivilFromDays(day_count, &year, &out.month, &out.day);
  out.year = static_cast<int>(year);

  out.hour = static_cast<int>(seconds_in_day / kHour);
  double rem = seconds_in_day - out.hour * kHour;
  out.minute = static_cast<int>(rem / kMinute);
  out.second = rem - out.minute * kMinute;
  return out;
}

Result<TimePoint> FromCivil(const CivilTime& civil) {
  if (civil.month < 1 || civil.month > 12) {
    return Status::InvalidArgument("month out of range");
  }
  if (civil.day < 1 || civil.day > DaysInMonth(civil.year, civil.month)) {
    return Status::InvalidArgument("day out of range");
  }
  if (civil.hour < 0 || civil.hour > 23 || civil.minute < 0 ||
      civil.minute > 59 || civil.second < 0.0 || civil.second >= 60.0) {
    return Status::InvalidArgument("time of day out of range");
  }
  const int64_t days = DaysFromCivil(civil.year, civil.month, civil.day);
  double seconds = static_cast<double>(days) * kDay + civil.hour * kHour +
                   civil.minute * kMinute + civil.second;
  return TimePoint(seconds);
}

Result<TimePoint> ParseTimePoint(std::string_view text) {
  std::string s(Trim(text));
  CivilTime civil;
  int matched = std::sscanf(s.c_str(), "%d-%d-%d %d:%d:%lf", &civil.year,
                            &civil.month, &civil.day, &civil.hour,
                            &civil.minute, &civil.second);
  if (matched < 3) {
    return Status::ParseError("expected 'YYYY-MM-DD[ HH:MM[:SS]]', got '" + s +
                              "'");
  }
  if (matched == 4) {
    return Status::ParseError("minutes missing in '" + s + "'");
  }
  if (matched == 3) {
    civil.hour = civil.minute = 0;
    civil.second = 0.0;
  } else if (matched == 5) {
    civil.second = 0.0;
  }
  return FromCivil(civil);
}

DayOfWeek GetDayOfWeek(TimePoint t) {
  int64_t day_count = static_cast<int64_t>(std::floor(t.seconds / kDay));
  int64_t idx = (day_count + kEpochDayOfWeek) % 7;
  if (idx < 0) {
    idx += 7;
  }
  return static_cast<DayOfWeek>(idx);
}

int GetHourOfDay(TimePoint t) {
  double day_frac = t.seconds - std::floor(t.seconds / kDay) * kDay;
  return static_cast<int>(day_frac / kHour);
}

TimeOfDay GetTimeOfDay(TimePoint t) {
  int hour = GetHourOfDay(t);
  if (hour < 6) {
    return TimeOfDay::kNight;
  }
  if (hour < 12) {
    return TimeOfDay::kMorning;
  }
  if (hour < 18) {
    return TimeOfDay::kAfternoon;
  }
  return TimeOfDay::kEvening;
}

TypeOfDay GetTypeOfDay(TimePoint t) {
  DayOfWeek d = GetDayOfWeek(t);
  return (d == DayOfWeek::kSaturday || d == DayOfWeek::kSunday)
             ? TypeOfDay::kWeekend
             : TypeOfDay::kWeekday;
}

TimePoint StartOfDay(TimePoint t) {
  return TimePoint(std::floor(t.seconds / kDay) * kDay);
}

TimePoint StartOfHour(TimePoint t) {
  return TimePoint(std::floor(t.seconds / kHour) * kHour);
}

int64_t HourBucketKey(TimePoint t) {
  return static_cast<int64_t>(StartOfHour(t).seconds);
}

std::string TimePoint::ToString() const { return ToCivil(*this).ToString(); }

}  // namespace piet::temporal
