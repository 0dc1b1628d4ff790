#include "core/queries.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/gamma.h"
#include "core/summable.h"
#include "olap/aggregate.h"

namespace piet::core::queries {

using moving::ObjectId;
using olap::FactTable;
using olap::Row;
using temporal::TimePoint;

namespace {

// Region C's γ state over hour buckets: served by the aggregate cache when
// the overlay strategy allows it, else folded in the scan.
Result<gamma::State> RegionState(const QueryEngine& engine,
                                 const std::string& moft,
                                 const std::string& layer,
                                 const GeometryPredicate& pred,
                                 const TimePredicate& when, Strategy strategy) {
  if (strategy == Strategy::kOverlay) {
    if (auto cached = engine.CachedRegionAggregate(moft, layer, pred, when)) {
      return std::move(cached->per_bucket);
    }
  }
  return engine.RegionObjects(moft, layer, pred, when, strategy);
}

// Remark 1's rate: distinct (Oid, hour) pairs over distinct hours.
PerHourResult PerHour(const gamma::State& state) {
  const gamma::Totals totals =
      gamma::Finish(state, gamma::Function::kRatePerHour);
  return {totals.pairs, totals.hours, totals.rate()};
}

}  // namespace

Result<PerHourResult> CountPerHourInRegion(const QueryEngine& engine,
                                           const std::string& moft,
                                           const std::string& layer,
                                           const GeometryPredicate& pred,
                                           const TimePredicate& when,
                                           Strategy strategy) {
  PIET_ASSIGN_OR_RETURN(const gamma::State state,
                        RegionState(engine, moft, layer, pred, when, strategy));
  return PerHour(state);
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
  PIET_ASSIGN_OR_RETURN(const gamma::State state,
                        RegionState(engine, moft, layer, pred, when, strategy));
  return gamma::Finish(state, gamma::Function::kCountDistinctOid).objects;
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
  const gamma::Granule hours;
  std::vector<gamma::Run> runs;
  if (!interpolated) {
    PIET_ASSIGN_OR_RETURN(
        FactTable near, engine.SamplesNearNodes(moft, node_layer, radius, when));
    PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));
    PIET_ASSIGN_OR_RETURN(size_t t_idx, near.ColumnIndex("t"));
    for (const Row& r : near.rows()) {
      gamma::Fold(&runs, hours.Of(r[t_idx].AsDoubleUnchecked()),
                  r[oid_idx].AsIntUnchecked());
    }
  } else {
    PIET_ASSIGN_OR_RETURN(
        FactTable near,
        engine.TrajectoryNearNodes(moft, node_layer, radius, when));
    PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));
    PIET_ASSIGN_OR_RETURN(size_t enter_idx, near.ColumnIndex("enter"));
    PIET_ASSIGN_OR_RETURN(size_t leave_idx, near.ColumnIndex("leave"));
    for (const Row& r : near.rows()) {
      // Every hour the stay overlaps.
      const double last = hours.Of(r[leave_idx].AsDoubleUnchecked());
      for (double h = hours.Of(r[enter_idx].AsDoubleUnchecked()); h <= last;
           h += temporal::kHour) {
        gamma::Fold(&runs, h, r[oid_idx].AsIntUnchecked());
      }
    }
  }
  return PerHour(gamma::Build(std::move(runs)));
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

  // COUNT(DISTINCT OID) at the requested stop, grouped by minute.
  const gamma::Granule instants("minute");
  std::vector<gamma::Run> runs;
  for (const Row& r : near.rows()) {
    if (r[node_idx].AsIntUnchecked() == stop) {
      gamma::Fold(&runs, instants.Of(r[t_idx].AsDoubleUnchecked()),
                  r[oid_idx].AsIntUnchecked());
    }
  }
  return gamma::FinishGrouped(gamma::Build(std::move(runs)),
                              gamma::Function::kCountDistinctOid,
                              engine.db().time_dimension(), "minute",
                              "waiting");
}

}  // namespace piet::core::queries
