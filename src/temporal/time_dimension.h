#ifndef PIET_TEMPORAL_TIME_DIMENSION_H_
#define PIET_TEMPORAL_TIME_DIMENSION_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "temporal/calendar.h"
#include "temporal/time_point.h"

namespace piet::temporal {

/// The paper's Time dimension: the bottom level `timeId` is an instant, and
/// every coarser category is reached through a rollup function
/// `R^level_timeId`. Unlike application dimensions (whose rollups are stored
/// relations), the Time dimension's rollups are *computed* — exactly the
/// `R^{timeOfDay}_{timeId}(t) = "Morning"` usage in the paper's queries.
///
/// Levels and their member domains:
///   "timeId"    -> double seconds              (identity)
///   "minute"    -> "YYYY-MM-DD HH:MM"
///   "hour"      -> hour of day, int 0..23      (paper's R^hour usage)
///   "hourBucket"-> start-of-hour instant, int64 seconds (grouping across days)
///   "timeOfDay" -> "Night"/"Morning"/"Afternoon"/"Evening"
///   "dayOfWeek" -> "Monday".."Sunday"
///   "typeOfDay" -> "Weekday"/"Weekend"
///   "day"       -> "YYYY-MM-DD"
///   "month"     -> "YYYY-MM"
///   "year"      -> int
///   "all"       -> "all"
class TimeDimension {
 public:
  TimeDimension() = default;

  /// All supported level names, finest first.
  static const std::vector<std::string>& LevelNames();

  /// True if `level` is a supported level name.
  static bool HasLevel(std::string_view level);

  /// Applies the rollup function R^level_timeId to instant `t`.
  Result<Value> Rollup(std::string_view level, TimePoint t) const;

  /// True if level `coarse` is reachable from level `fine` in the hierarchy
  /// (e.g. Rollsup("hour", "timeOfDay") is true; the paper writes
  /// `timeOfDay -> hour` for hour→timeOfDay granularity ordering).
  static bool RollsUp(std::string_view fine, std::string_view coarse);
};

/// True for the sub-hour levels "timeId" and "minute": the rollups finer
/// than the hour bucket, which hour-granular machinery (the γ granule, the
/// aggregate cache, MatchingIntervals) cannot serve.
inline bool IsSubHourLevel(std::string_view level) {
  return level == "timeId" || level == "minute";
}

}  // namespace piet::temporal

#endif  // PIET_TEMPORAL_TIME_DIMENSION_H_
