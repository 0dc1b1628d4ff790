#ifndef PIET_CORE_GAMMA_H_
#define PIET_CORE_GAMMA_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "moving/moft_columns.h"
#include "olap/fact_table.h"
#include "temporal/time_dimension.h"

/// Def. 7's γ_{f A(X)} over a region C of (Oid, t) tuples. Every COUNT(*),
/// COUNT(DISTINCT OID) and RATE PER HOUR answer is finished here from one
/// mergeable state, whether a scan or the aggregate cache fed it
/// (DESIGN.md §8.1).
namespace piet::core::gamma {

/// f: Σ counts, |∪ oids|, or distinct (hour, Oid) pairs / distinct hours.
enum class Function { kCountAll = 0, kCountDistinctOid, kRatePerHour };

/// f's name in plans and traces.
inline const char* Name(Function f) {
  return f == Function::kCountAll           ? "count_all"
         : f == Function::kCountDistinctOid ? "count_distinct_oid"
                                            : "rate_per_hour";
}

/// The tuples of one granule: how many, and their distinct Oids ascending.
struct Partial {
  int64_t samples = 0;
  std::vector<moving::ObjectId> oids;
};

/// Granule key (seconds) -> partial, ascending. A granule is an hour
/// bucket, or an instant under a group level finer than the hour, so every
/// granule lies in one hour and every group is a union of granules.
using State = std::map<double, Partial>;

/// The granule rule of an answer grouped by `group_level` (none: scalar):
/// instants under "timeId" and "minute", hour buckets otherwise.
class Granule {
 public:
  explicit Granule(const std::optional<std::string>& group_level = {});
  double Of(double t) const;  ///< The granule key of the instant t.
  bool instants() const { return instants_; }

 private:
  bool instants_;
};

/// `count` tuples of one Oid in one granule.
struct Run {
  double granule;
  moving::ObjectId oid;
  int64_t count;
};

/// Adds one tuple to a scan chunk's runs: a repeat of the last
/// (granule, Oid) extends its run. Sample scans emit rows in (Oid, t)
/// order, so their repeats are adjacent.
inline void Fold(std::vector<Run>* runs, double granule,
                 moving::ObjectId oid) {
  if (runs->empty() || runs->back().granule != granule ||
      runs->back().oid != oid) {
    runs->push_back({granule, oid, 0});
  }
  ++runs->back().count;
}

/// Sorts runs in any order (e.g. the chunks' concatenation) by
/// (granule, Oid) and merges equal keys, so the state depends only on the
/// multiset of tuples, never on the chunk plan or the thread count.
State Build(std::vector<Run> runs);

/// Σ counts: the number of tuples.
int64_t Tuples(const State& state);

/// One group's γ. `objects` is filled for kCountDistinctOid, `pairs` and
/// `hours` for kRatePerHour.
struct Totals {
  int64_t tuples = 0;
  int64_t objects = 0;
  int64_t pairs = 0;
  int64_t hours = 0;

  double rate() const;  ///< pairs / hours; 0 over no hour.
  /// f's answer: an int64 count, or the double rate.
  Value Of(Function f) const;
};

/// γ_f over the whole state as one group.
Totals Finish(const State& state, Function f);

/// γ_f per group of `level` (each granule rolled up once, at its key), in
/// Value order: a (level, value_column) table.
Result<olap::FactTable> FinishGrouped(const State& state, Function f,
                                      const temporal::TimeDimension& dim,
                                      const std::string& level,
                                      const std::string& value_column);

}  // namespace piet::core::gamma

#endif  // PIET_CORE_GAMMA_H_
