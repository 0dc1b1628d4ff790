#include "core/gamma.h"

#include <algorithm>
#include <span>

#include "temporal/calendar.h"

namespace piet::core::gamma {

namespace {

using Entry = State::value_type;

double HourOf(double t) {
  return temporal::StartOfHour(temporal::TimePoint(t)).seconds;
}

/// |∪ oids| over some granules, merged in `scratch`.
int64_t DistinctOids(std::span<const Entry* const> granules,
                     std::vector<moving::ObjectId>* scratch) {
  if (granules.size() == 1) {
    return static_cast<int64_t>(granules.front()->second.oids.size());
  }
  scratch->clear();
  for (const Entry* e : granules) {
    scratch->insert(scratch->end(), e->second.oids.begin(),
                    e->second.oids.end());
  }
  std::sort(scratch->begin(), scratch->end());
  return std::unique(scratch->begin(), scratch->end()) - scratch->begin();
}

/// γ_f over one group, given its granules ascending.
Totals FinishGroup(std::span<const Entry* const> group, Function f) {
  Totals out;
  for (const Entry* e : group) {
    out.tuples += e->second.samples;
  }
  std::vector<moving::ObjectId> scratch;
  if (f == Function::kCountDistinctOid) {
    out.objects = DistinctOids(group, &scratch);
  }
  if (f == Function::kRatePerHour) {
    // Granules ascend, so the granules of one hour are adjacent.
    for (size_t i = 0, j = 0; i < group.size(); i = j, ++out.hours) {
      const double hour = HourOf(group[i]->first);
      for (j = i + 1; j < group.size() && HourOf(group[j]->first) == hour;) {
        ++j;
      }
      out.pairs += DistinctOids(group.subspan(i, j - i), &scratch);
    }
  }
  return out;
}

}  // namespace

Granule::Granule(const std::optional<std::string>& group_level)
    : instants_(group_level && temporal::IsSubHourLevel(*group_level)) {}

double Granule::Of(double t) const { return instants_ ? t : HourOf(t); }

State Build(std::vector<Run> runs) {
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.granule != b.granule ? a.granule < b.granule : a.oid < b.oid;
  });
  State state;
  Partial* last = nullptr;
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    if (i == 0 || r.granule != runs[i - 1].granule) {
      last = &state.emplace_hint(state.end(), r.granule, Partial{})->second;
    }
    last->samples += r.count;
    if (last->oids.empty() || last->oids.back() != r.oid) {
      last->oids.push_back(r.oid);
    }
  }
  return state;
}

int64_t Tuples(const State& state) {
  int64_t n = 0;
  for (const auto& [granule, partial] : state) {
    n += partial.samples;
  }
  return n;
}

double Totals::rate() const {
  return hours == 0 ? 0.0
                    : static_cast<double>(pairs) / static_cast<double>(hours);
}

Value Totals::Of(Function f) const {
  return f == Function::kCountAll           ? Value(tuples)
         : f == Function::kCountDistinctOid ? Value(objects)
                                            : Value(rate());
}

Totals Finish(const State& state, Function f) {
  std::vector<const Entry*> all;
  for (const Entry& e : state) {
    all.push_back(&e);
  }
  return FinishGroup(all, f);
}

Result<olap::FactTable> FinishGrouped(const State& state, Function f,
                                      const temporal::TimeDimension& dim,
                                      const std::string& level,
                                      const std::string& value_column) {
  std::map<Value, std::vector<const Entry*>> groups;
  for (const Entry& e : state) {
    PIET_ASSIGN_OR_RETURN(Value key,
                          dim.Rollup(level, temporal::TimePoint(e.first)));
    groups[std::move(key)].push_back(&e);
  }
  olap::FactTable table = olap::FactTable::Make({level}, {value_column});
  for (const auto& [key, group] : groups) {
    PIET_RETURN_NOT_OK(table.Append({key, FinishGroup(group, f).Of(f)}));
  }
  return table;
}

}  // namespace piet::core::gamma
