#ifndef PIET_TEMPORAL_TIME_POINT_H_
#define PIET_TEMPORAL_TIME_POINT_H_

#include <cstdint>
#include <string>

namespace piet::temporal {

/// A duration in seconds (double so interpolated instants are exact enough;
/// the paper's samples carry rational timestamps).
using Duration = double;

/// An instant on the time line, measured in seconds since the epoch
/// 2000-01-01 00:00:00 (a Saturday). Double-valued because linear
/// interpolation between samples produces non-integer instants.
struct TimePoint {
  double seconds = 0.0;

  constexpr TimePoint() = default;
  constexpr explicit TimePoint(double s) : seconds(s) {}

  friend constexpr bool operator==(TimePoint a, TimePoint b) {
    return a.seconds == b.seconds;
  }
  friend constexpr bool operator!=(TimePoint a, TimePoint b) {
    return !(a == b);
  }
  friend constexpr bool operator<(TimePoint a, TimePoint b) {
    return a.seconds < b.seconds;
  }
  friend constexpr bool operator<=(TimePoint a, TimePoint b) {
    return a.seconds <= b.seconds;
  }
  friend constexpr bool operator>(TimePoint a, TimePoint b) { return b < a; }
  friend constexpr bool operator>=(TimePoint a, TimePoint b) { return b <= a; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint(t.seconds + d);
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint(t.seconds - d);
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return a.seconds - b.seconds;
  }

  std::string ToString() const;
};

inline constexpr Duration kSecond = 1.0;
inline constexpr Duration kMinute = 60.0;
inline constexpr Duration kHour = 3600.0;
inline constexpr Duration kDay = 86400.0;
inline constexpr Duration kWeek = 7.0 * kDay;

/// A half-open range of instants [begin, end); Contains(NaN) is false.
struct TimeRange {
  double begin;
  double end;
  constexpr bool Contains(TimePoint t) const {
    return begin <= t.seconds && t.seconds < end;
  }
};

/// The instants the calendar handles: civil years 0001 through 9999. Far
/// outside it the calendar's integer year, day and hour counts overflow, so
/// Moft::Add refuses sample times outside it and analyses may assume none
/// lies there.
inline constexpr TimeRange kCalendarRange{-63082281600.0, 252455616000.0};

}  // namespace piet::temporal

#endif  // PIET_TEMPORAL_TIME_POINT_H_
