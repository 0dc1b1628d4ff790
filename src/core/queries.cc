#include "core/queries.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/summable.h"
#include "olap/aggregate.h"

namespace piet::core::queries {

using moving::ObjectId;
using olap::FactTable;
using olap::Row;
using temporal::TimePoint;

namespace {

// Hour bucket (start-of-hour seconds) of a fact-table `t` column value.
// Shares temporal::HourBucketKey with the Time dimension's "hourBucket"
// rollup and the overlay aggregate cache.
int64_t HourBucketOf(double t_seconds) {
  return temporal::HourBucketKey(TimePoint(t_seconds));
}

// Builds a PerHourResult from distinct (Oid, hour) pairs.
template <typename Pairs>
PerHourResult FromPairs(const Pairs& pairs) {
  PerHourResult out;
  std::set<int64_t> hours;
  for (const auto& [oid, hour] : pairs) {
    hours.insert(hour);
  }
  out.tuple_count = static_cast<int64_t>(pairs.size());
  out.hour_count = static_cast<int64_t>(hours.size());
  out.per_hour = hours.empty() ? 0.0
                               : static_cast<double>(pairs.size()) /
                                     static_cast<double>(hours.size());
  return out;
}

}  // namespace

Result<PerHourResult> CountPerHourInRegion(const QueryEngine& engine,
                                           const std::string& moft,
                                           const std::string& layer,
                                           const GeometryPredicate& pred,
                                           const TimePredicate& when,
                                           Strategy strategy) {
  if (strategy == Strategy::kOverlay) {
    // The cache's per-bucket distinct-Oid sets are exactly the
    // (Oid, hour) pairs the scan would produce.
    if (auto cached = engine.CachedRegionAggregate(moft, layer, pred, when)) {
      std::set<std::pair<int64_t, int64_t>> pairs;
      for (const auto& [bucket, agg] : cached->per_bucket) {
        for (const ObjectId oid : agg.oids) {
          pairs.emplace(oid, bucket);
        }
      }
      return FromPairs(pairs);
    }
  }
  PIET_ASSIGN_OR_RETURN(auto pairs,
                        engine.RegionObjects(moft, layer, pred, when, strategy,
                                             /*per_hour=*/true));
  return FromPairs(pairs);
}

Result<int64_t> CountObjectsInRegion(const QueryEngine& engine,
                                     const std::string& moft,
                                     const std::string& layer,
                                     const std::string& attribute,
                                     const Value& member,
                                     const TimePredicate& when,
                                     Strategy strategy) {
  GeometryPredicate pred = GeometryPredicate::AlphaEquals(
      &engine.db().gis(), attribute, member);
  if (strategy == Strategy::kOverlay) {
    if (auto cached = engine.CachedRegionAggregate(moft, layer, pred, when)) {
      std::set<ObjectId> oids;
      for (const auto& [bucket, agg] : cached->per_bucket) {
        oids.insert(agg.oids.begin(), agg.oids.end());
      }
      return static_cast<int64_t>(oids.size());
    }
  }
  PIET_ASSIGN_OR_RETURN(auto oids,
                        engine.RegionObjects(moft, layer, pred, when, strategy,
                                             /*per_hour=*/false));
  return static_cast<int64_t>(oids.size());
}

Result<DensityResult> MaxStreetDensity(const QueryEngine& engine,
                                       const std::string& moft,
                                       const std::string& street_layer,
                                       double tolerance,
                                       const TimePredicate& when,
                                       DensityInterpretation interpretation) {
  PIET_ASSIGN_OR_RETURN(
      FactTable on_streets,
      engine.SamplesOnPolylines(moft, street_layer, tolerance, when));
  PIET_ASSIGN_OR_RETURN(const gis::Layer* layer,
                        engine.db().gis().GetLayer(street_layer));

  auto street_length = [&](int64_t id) -> double {
    auto line = layer->GetPolyline(id);
    return line.ok() ? line.ValueOrDie()->Length() : 0.0;
  };

  DensityResult best;
  best.density = -1.0;

  PIET_ASSIGN_OR_RETURN(size_t oid_idx, on_streets.ColumnIndex("Oid"));
  (void)oid_idx;
  PIET_ASSIGN_OR_RETURN(size_t t_idx, on_streets.ColumnIndex("t"));
  PIET_ASSIGN_OR_RETURN(size_t geom_idx, on_streets.ColumnIndex("geom"));

  switch (interpretation) {
    case DensityInterpretation::kPerStreet: {
      std::map<int64_t, int64_t> counts;
      for (const Row& r : on_streets.rows()) {
        counts[r[geom_idx].AsIntUnchecked()]++;
      }
      for (const auto& [street, count] : counts) {
        double len = street_length(street);
        if (len <= 0.0) {
          continue;
        }
        double density = static_cast<double>(count) / len;
        if (density > best.density) {
          best = {Value(street), Value(), density};
        }
      }
      break;
    }
    case DensityInterpretation::kPerStreetInstant: {
      std::map<std::pair<int64_t, double>, int64_t> counts;
      for (const Row& r : on_streets.rows()) {
        counts[{r[geom_idx].AsIntUnchecked(),
                r[t_idx].AsDoubleUnchecked()}]++;
      }
      for (const auto& [key, count] : counts) {
        double len = street_length(key.first);
        if (len <= 0.0) {
          continue;
        }
        double density = static_cast<double>(count) / len;
        if (density > best.density) {
          best = {Value(key.first), Value(key.second), density};
        }
      }
      break;
    }
    case DensityInterpretation::kCityWide: {
      double total_len = layer->TotalMeasure();
      if (total_len <= 0.0) {
        return Status::InvalidArgument("street layer has zero total length");
      }
      std::map<double, int64_t> counts;
      for (const Row& r : on_streets.rows()) {
        counts[r[t_idx].AsDoubleUnchecked()]++;
      }
      for (const auto& [instant, count] : counts) {
        double density = static_cast<double>(count) / total_len;
        if (density > best.density) {
          best = {Value(), Value(instant), density};
        }
      }
      break;
    }
  }
  if (best.density < 0.0) {
    best.density = 0.0;
  }
  return best;
}

Result<int64_t> CountObjectsCompletelyWithin(const QueryEngine& engine,
                                             const std::string& moft,
                                             const std::string& layer,
                                             const GeometryPredicate& pred,
                                             const TimePredicate& when,
                                             bool trajectory_semantics) {
  if (!trajectory_semantics) {
    if (auto cached =
            engine.CachedObjectsAlwaysWithin(moft, layer, pred, when)) {
      return static_cast<int64_t>(cached->size());
    }
  }
  PIET_ASSIGN_OR_RETURN(
      std::vector<ObjectId> oids,
      engine.ObjectsAlwaysWithin(moft, layer, pred, when,
                                 trajectory_semantics));
  return static_cast<int64_t>(oids.size());
}

Result<int64_t> SnapshotCountInRegion(const QueryEngine& engine,
                                      const std::string& moft,
                                      const std::string& layer,
                                      const std::string& attribute,
                                      const Value& member, TimePoint t) {
  GeometryPredicate pred = GeometryPredicate::AlphaEquals(
      &engine.db().gis(), attribute, member);
  PIET_ASSIGN_OR_RETURN(FactTable snapshot,
                        engine.SnapshotInRegion(moft, layer, pred, t));
  PIET_ASSIGN_OR_RETURN(
      Value count,
      olap::AggregateScalar(snapshot, olap::AggFunction::kCountDistinct,
                            "Oid"));
  return count.AsIntUnchecked();
}

Result<StayResult> TimeSpentInRegion(const QueryEngine& engine,
                                     const std::string& moft,
                                     const std::string& layer,
                                     const std::string& attribute,
                                     const Value& member,
                                     const TimePredicate& when) {
  GeometryPredicate pred = GeometryPredicate::AlphaEquals(
      &engine.db().gis(), attribute, member);
  PIET_ASSIGN_OR_RETURN(FactTable intervals,
                        engine.TrajectoryRegion(moft, layer, pred, when));
  PIET_ASSIGN_OR_RETURN(size_t enter_idx, intervals.ColumnIndex("enter"));
  PIET_ASSIGN_OR_RETURN(size_t leave_idx, intervals.ColumnIndex("leave"));
  StayResult out;
  for (const Row& r : intervals.rows()) {
    double stay =
        r[leave_idx].AsDoubleUnchecked() - r[enter_idx].AsDoubleUnchecked();
    out.total_seconds += stay;
    out.longest_stay_seconds = std::max(out.longest_stay_seconds, stay);
    if (stay > 0.0) {
      ++out.visits;
    }
  }
  return out;
}

Result<PerHourResult> CountNearNodesPerHour(const QueryEngine& engine,
                                            const std::string& moft,
                                            const std::string& node_layer,
                                            double radius,
                                            const TimePredicate& when,
                                            bool interpolated) {
  std::set<std::pair<int64_t, int64_t>> pairs;
  if (!interpolated) {
    PIET_ASSIGN_OR_RETURN(
        FactTable near, engine.SamplesNearNodes(moft, node_layer, radius, when));
    PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));
    PIET_ASSIGN_OR_RETURN(size_t t_idx, near.ColumnIndex("t"));
    for (const Row& r : near.rows()) {
      pairs.emplace(r[oid_idx].AsIntUnchecked(),
                    HourBucketOf(r[t_idx].AsDoubleUnchecked()));
    }
  } else {
    PIET_ASSIGN_OR_RETURN(
        FactTable near,
        engine.TrajectoryNearNodes(moft, node_layer, radius, when));
    PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));
    PIET_ASSIGN_OR_RETURN(size_t enter_idx, near.ColumnIndex("enter"));
    PIET_ASSIGN_OR_RETURN(size_t leave_idx, near.ColumnIndex("leave"));
    for (const Row& r : near.rows()) {
      int64_t h0 = HourBucketOf(r[enter_idx].AsDoubleUnchecked());
      int64_t h1 = HourBucketOf(r[leave_idx].AsDoubleUnchecked());
      for (int64_t h = h0; h <= h1;
           h += static_cast<int64_t>(temporal::kHour)) {
        pairs.emplace(r[oid_idx].AsIntUnchecked(), h);
      }
    }
  }
  return FromPairs(pairs);
}

Result<double> TotalMassInRegions(const QueryEngine& engine,
                                  const std::string& layer,
                                  const GeometryPredicate& pred,
                                  const gis::DensityField& density) {
  PIET_ASSIGN_OR_RETURN(std::vector<gis::GeometryId> ids,
                        engine.QualifyingGeometries(layer, pred));
  PIET_ASSIGN_OR_RETURN(const gis::Layer* layer_ptr,
                        engine.db().gis().GetLayer(layer));
  GeometricAggregator agg(&density);
  return agg.Evaluate(*layer_ptr, ids);
}

Result<TrajectoryAggregateResult> AggregateTrajectories(
    const QueryEngine& engine, const std::string& moft,
    const std::string& layer, const GeometryPredicate& pred) {
  PIET_ASSIGN_OR_RETURN(FactTable table,
                        engine.TrajectoryAggregates(moft, layer, pred));
  TrajectoryAggregateResult out;
  PIET_ASSIGN_OR_RETURN(size_t dist_idx, table.ColumnIndex("distance"));
  PIET_ASSIGN_OR_RETURN(size_t sec_idx, table.ColumnIndex("seconds"));
  PIET_ASSIGN_OR_RETURN(size_t visit_idx, table.ColumnIndex("visits"));
  std::set<int64_t> oids;
  for (const Row& r : table.rows()) {
    out.total_distance += r[dist_idx].AsDoubleUnchecked();
    out.total_seconds += r[sec_idx].AsDoubleUnchecked();
    out.total_visits += r[visit_idx].AsIntUnchecked();
    oids.insert(r[0].AsIntUnchecked());
  }
  out.objects = static_cast<int64_t>(oids.size());
  return out;
}

Result<FactTable> WaitingAtStopPerMinute(const QueryEngine& engine,
                                         const std::string& moft,
                                         const std::string& stop_layer,
                                         const std::string& attribute,
                                         const Value& member, double radius,
                                         const TimePredicate& when) {
  PIET_ASSIGN_OR_RETURN(gis::GeometryId stop,
                        engine.db().gis().Alpha(attribute, member));
  PIET_ASSIGN_OR_RETURN(
      FactTable near, engine.SamplesNearNodes(moft, stop_layer, radius, when));
  PIET_ASSIGN_OR_RETURN(size_t t_idx, near.ColumnIndex("t"));
  PIET_ASSIGN_OR_RETURN(size_t node_idx, near.ColumnIndex("node"));
  PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));

  // Re-key by minute and count distinct objects at the requested stop.
  std::map<std::string, std::set<int64_t>> per_minute;
  for (const Row& r : near.rows()) {
    if (r[node_idx].AsIntUnchecked() != stop) {
      continue;
    }
    auto minute = engine.db().time_dimension().Rollup(
        "minute", TimePoint(r[t_idx].AsDoubleUnchecked()));
    if (!minute.ok()) {
      continue;
    }
    per_minute[minute.ValueOrDie().AsStringUnchecked()].insert(
        r[oid_idx].AsIntUnchecked());
  }
  FactTable out = olap::FactTable::Make({"minute"}, {"waiting"});
  for (const auto& [minute, oids] : per_minute) {
    PIET_RETURN_NOT_OK(
        out.Append({Value(minute), Value(static_cast<int64_t>(oids.size()))}));
  }
  return out;
}

}  // namespace piet::core::queries
