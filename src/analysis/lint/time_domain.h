#ifndef PIET_ANALYSIS_LINT_TIME_DOMAIN_H_
#define PIET_ANALYSIS_LINT_TIME_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/value.h"
#include "temporal/interval.h"

namespace piet::analysis::lint {

/// Outcome of folding one `TIME.<level> = literal` constraint into the
/// abstract time state.
enum class TimeFold {
  kFolded = 0,  ///< Constraint narrowed the abstract state.
  kDead,        ///< No instant can ever satisfy the constraint by itself.
  kAlways,      ///< The constraint holds at every instant (e.g. TIME.all).
  kUnknown,     ///< Not foldable (unknown level / mistyped literal — those
                ///< are reported by the semantic analyzer, not the linter).
};

/// Abstract domain over time instants for the Piet-QL linter: the
/// concretization is the set of instants satisfying every constraint folded
/// so far. The representation is the product of
///   * a 24-bit hour-of-day mask (TIME.hour, TIME.timeOfDay),
///   * a 7-bit day-of-week mask (TIME.dayOfWeek, TIME.typeOfDay; bit 0 is
///     Monday, matching temporal::DayOfWeek),
///   * an optional absolute closed window (T BETWEEN, and the absolute
///     levels timeId / minute / hourBucket / day / month / year, which
///     constant-fold to windows).
/// Every meet over-approximates the concrete constraint, so `IsBottom()
/// == true` *proves* the conjunction unsatisfiable — the linter only
/// reports contradictions it can prove.
class TimeAbstract {
 public:
  static constexpr uint32_t kAllHours = (1u << 24) - 1;
  static constexpr uint8_t kAllDays = (1u << 7) - 1;

  TimeAbstract() = default;

  /// Folds `TIME.<level> = literal`. On kDead the whole state also drops to
  /// bottom (a conjunction with an unsatisfiable clause is unsatisfiable).
  TimeFold MeetLevelEquals(std::string_view level, const Value& literal);

  /// Intersects with the closed window [w.begin, w.end]. A window with
  /// end < begin, or one disjoint from the current window, drops to bottom.
  void MeetWindow(const temporal::Interval& w);

  /// True when the conjunction folded so far is provably unsatisfiable.
  /// Exact for the mask-only and window-only cases; for mask ∧ window the
  /// window's hour cells are enumerated (clamped to just over one week —
  /// the masks are week-periodic, so that is exhaustive).
  bool IsBottom() const;

  const std::optional<temporal::Interval>& window() const { return window_; }

  /// The absolute window `TIME.<level> = literal` folds to, when the level
  /// is one of the absolute levels (timeId, minute, hourBucket, day, month,
  /// year) and the literal is a canonical member of it. Used by fix-its to
  /// rewrite rollup-equality constraints into `T BETWEEN` windows that keep
  /// the sorted-time fast path eligible.
  static std::optional<temporal::Interval> LevelEqualsWindow(
      std::string_view level, const Value& literal);

 private:
  bool WindowFeasibleAgainstMasks() const;

  uint32_t hours_ = kAllHours;
  uint8_t days_ = kAllDays;
  std::optional<temporal::Interval> window_;
  bool bottom_ = false;
};

}  // namespace piet::analysis::lint

#endif  // PIET_ANALYSIS_LINT_TIME_DOMAIN_H_
