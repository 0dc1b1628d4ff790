#include "analysis/lint/time_domain.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "temporal/calendar.h"
#include "temporal/time_dimension.h"
#include "temporal/time_point.h"

namespace piet::analysis::lint {

using temporal::Interval;
using temporal::TimePoint;

namespace {

constexpr double kHour = 3600.0;
constexpr double kDay = 24.0 * kHour;

/// Hour-of-day range [lo, hi) as a 24-bit mask.
uint32_t HourRangeMask(int lo, int hi) {
  uint32_t mask = 0;
  for (int h = lo; h < hi; ++h) {
    mask |= 1u << h;
  }
  return mask;
}

std::optional<uint32_t> TimeOfDayMask(const std::string& member) {
  if (member == "Night") {
    return HourRangeMask(0, 6);
  }
  if (member == "Morning") {
    return HourRangeMask(6, 12);
  }
  if (member == "Afternoon") {
    return HourRangeMask(12, 18);
  }
  if (member == "Evening") {
    return HourRangeMask(18, 24);
  }
  return std::nullopt;
}

std::optional<uint8_t> DayOfWeekMask(const std::string& member) {
  for (int d = 0; d < 7; ++d) {
    if (member ==
        temporal::DayOfWeekToString(static_cast<temporal::DayOfWeek>(d))) {
      return static_cast<uint8_t>(1u << d);
    }
  }
  return std::nullopt;
}

std::optional<uint8_t> TypeOfDayMask(const std::string& member) {
  if (member == "Weekday") {
    return static_cast<uint8_t>(0x1F);  // Monday..Friday.
  }
  if (member == "Weekend") {
    return static_cast<uint8_t>(0x60);  // Saturday, Sunday.
  }
  return std::nullopt;
}

/// True when `v` holds an integral numeric value; writes it to `*out`.
bool IntegralValue(const Value& v, int64_t* out) {
  if (!v.is_numeric()) {
    return false;
  }
  const double d = v.AsNumeric().ValueOrDie();
  if (d != std::floor(d) || std::abs(d) >= 9.0e18) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

/// The member string `TIME.<level>` rollup produces at instant `t`, for
/// canonical-form checks of string-member levels.
std::optional<std::string> CanonicalMember(std::string_view level,
                                           TimePoint t) {
  const temporal::TimeDimension dim;
  const auto member = dim.Rollup(level, t);
  if (!member.ok() || !member.ValueOrDie().is_string()) {
    return std::nullopt;
  }
  return member.ValueOrDie().AsStringUnchecked();
}

}  // namespace

std::optional<Interval> TimeAbstract::LevelEqualsWindow(std::string_view level,
                                                        const Value& literal) {
  if (level == "timeId") {
    if (!literal.is_numeric()) {
      return std::nullopt;
    }
    const double t = literal.AsNumeric().ValueOrDie();
    if (!std::isfinite(t)) {
      return std::nullopt;
    }
    return Interval(TimePoint(t), TimePoint(t));
  }
  if (level == "hourBucket") {
    int64_t bucket = 0;
    if (!IntegralValue(literal, &bucket)) {
      return std::nullopt;
    }
    const double b = static_cast<double>(bucket);
    if (temporal::StartOfHour(TimePoint(b)).seconds != b) {
      return std::nullopt;  // Not a start-of-hour instant: never a member.
    }
    return Interval(TimePoint(b), TimePoint(b + kHour));
  }
  if (level == "minute" || level == "day") {
    if (!literal.is_string()) {
      return std::nullopt;
    }
    const auto t = temporal::ParseTimePoint(literal.AsStringUnchecked());
    if (!t.ok()) {
      return std::nullopt;
    }
    const auto canonical = CanonicalMember(level, t.ValueOrDie());
    if (!canonical || *canonical != literal.AsStringUnchecked()) {
      return std::nullopt;  // Non-canonical spelling: never equals a member.
    }
    const double begin = t.ValueOrDie().seconds;
    return Interval(TimePoint(begin),
                    TimePoint(begin + (level == "minute" ? 60.0 : kDay)));
  }
  if (level == "month") {
    if (!literal.is_string()) {
      return std::nullopt;
    }
    const auto begin =
        temporal::ParseTimePoint(literal.AsStringUnchecked() + "-01");
    if (!begin.ok()) {
      return std::nullopt;
    }
    const auto canonical = CanonicalMember(level, begin.ValueOrDie());
    if (!canonical || *canonical != literal.AsStringUnchecked()) {
      return std::nullopt;
    }
    const temporal::CivilTime civil = temporal::ToCivil(begin.ValueOrDie());
    const int days = temporal::DaysInMonth(civil.year, civil.month);
    return Interval(begin.ValueOrDie(),
                    TimePoint(begin.ValueOrDie().seconds + days * kDay));
  }
  if (level == "year") {
    int64_t year = 0;
    if (!IntegralValue(literal, &year) || year < 1 || year > 9999) {
      return std::nullopt;
    }
    temporal::CivilTime jan1;
    jan1.year = static_cast<int>(year);
    auto begin = temporal::FromCivil(jan1);
    jan1.year = static_cast<int>(year) + 1;
    auto end = temporal::FromCivil(jan1);
    if (!begin.ok() || !end.ok()) {
      return std::nullopt;
    }
    return Interval(begin.ValueOrDie(), end.ValueOrDie());
  }
  return std::nullopt;
}

TimeFold TimeAbstract::MeetLevelEquals(std::string_view level,
                                       const Value& literal) {
  if (level == "all") {
    if (literal.is_string() && literal.AsStringUnchecked() == "all") {
      return TimeFold::kAlways;
    }
    bottom_ = true;
    return TimeFold::kDead;
  }
  if (level == "hour") {
    int64_t h = 0;
    if (!literal.is_numeric()) {
      return TimeFold::kUnknown;  // Type mismatch; reported elsewhere.
    }
    if (!IntegralValue(literal, &h) || h < 0 || h > 23) {
      bottom_ = true;
      return TimeFold::kDead;
    }
    hours_ &= 1u << h;
    if (hours_ == 0) {
      bottom_ = true;
    }
    return TimeFold::kFolded;
  }
  if (level == "timeOfDay" || level == "dayOfWeek" || level == "typeOfDay") {
    if (!literal.is_string()) {
      return TimeFold::kUnknown;
    }
    const std::string& member = literal.AsStringUnchecked();
    if (level == "timeOfDay") {
      auto mask = TimeOfDayMask(member);
      if (!mask) {
        bottom_ = true;
        return TimeFold::kDead;
      }
      hours_ &= *mask;
      if (hours_ == 0) {
        bottom_ = true;
      }
      return TimeFold::kFolded;
    }
    auto mask = level == "dayOfWeek" ? DayOfWeekMask(member)
                                     : TypeOfDayMask(member);
    if (!mask) {
      bottom_ = true;
      return TimeFold::kDead;
    }
    days_ &= *mask;
    if (days_ == 0) {
      bottom_ = true;
    }
    return TimeFold::kFolded;
  }
  if (level == "timeId" || level == "hourBucket" || level == "minute" ||
      level == "day" || level == "month" || level == "year") {
    // Absolute levels constant-fold to windows. A literal of the right type
    // that is not a canonical member matches no instant at all.
    auto window = LevelEqualsWindow(level, literal);
    const bool right_type =
        (level == "minute" || level == "day" || level == "month")
            ? literal.is_string()
            : literal.is_numeric();
    if (!window) {
      if (!right_type) {
        return TimeFold::kUnknown;
      }
      bottom_ = true;
      return TimeFold::kDead;
    }
    MeetWindow(*window);
    return TimeFold::kFolded;
  }
  return TimeFold::kUnknown;
}

void TimeAbstract::MeetWindow(const Interval& w) {
  if (w.end < w.begin) {
    bottom_ = true;
    return;
  }
  if (!window_) {
    window_ = w;
    return;
  }
  if (!window_->Intersects(w)) {
    bottom_ = true;
    return;
  }
  window_ = Interval(TimePoint(std::max(window_->begin.seconds,
                                        w.begin.seconds)),
                     TimePoint(std::min(window_->end.seconds,
                                        w.end.seconds)));
}

bool TimeAbstract::WindowFeasibleAgainstMasks() const {
  if (!window_) {
    return true;
  }
  if (hours_ == kAllHours && days_ == kAllDays) {
    return true;
  }
  // No sample lies outside the calendar's range (Moft::Add refuses it), so
  // the window is clipped to it, which keeps the hour walk below finite.
  const temporal::TimeRange cal = temporal::kCalendarRange;
  const TimePoint begin(std::max(window_->begin.seconds, cal.begin));
  const TimePoint end(std::min(window_->end.seconds, cal.end));
  if (end < begin) {
    return false;
  }
  // The masks are week-periodic: any window at least a week plus an hour
  // long covers every (hour-of-day, day-of-week) cell.
  if (end - begin >= 8.0 * kDay) {
    return hours_ != 0 && days_ != 0;
  }
  for (TimePoint cell = temporal::StartOfHour(begin); cell <= end;
       cell = TimePoint(cell.seconds + kHour)) {
    const bool hour_ok =
        (hours_ & (1u << temporal::GetHourOfDay(cell))) != 0;
    const bool day_ok =
        (days_ &
         (1u << static_cast<int>(temporal::GetDayOfWeek(cell)))) != 0;
    if (hour_ok && day_ok) {
      return true;
    }
  }
  return false;
}

bool TimeAbstract::IsBottom() const {
  if (bottom_ || hours_ == 0 || days_ == 0) {
    return true;
  }
  return !WindowFeasibleAgainstMasks();
}

}  // namespace piet::analysis::lint
