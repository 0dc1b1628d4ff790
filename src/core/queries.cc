#include "core/queries.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/gamma.h"
#include "core/summable.h"

namespace piet::core::queries {

using moving::ObjectId;
using olap::FactTable;
using olap::Row;
using temporal::TimePoint;

namespace {

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
  PIET_ASSIGN_OR_RETURN(
      const QueryEngine::GammaAnswer region,
      engine.RegionState(moft, layer, pred, when, gamma::Granule(), strategy));
  return PerHour(region.state);
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
  PIET_ASSIGN_OR_RETURN(
      const QueryEngine::GammaAnswer region,
      engine.RegionState(moft, layer, pred, when, gamma::Granule(), strategy));
  return gamma::Finish(region.state, gamma::Function::kCountDistinctOid)
      .objects;
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

  const bool per_street = interpretation != DensityInterpretation::kCityWide;
  const bool per_instant = interpretation != DensityInterpretation::kPerStreet;
  const double total_len = per_street ? 0.0 : layer->TotalMeasure();
  if (!per_street && total_len <= 0.0) {
    return Status::InvalidArgument("street layer has zero total length");
  }
  PIET_ASSIGN_OR_RETURN(size_t t_idx, on_streets.ColumnIndex("t"));
  PIET_ASSIGN_OR_RETURN(size_t geom_idx, on_streets.ColumnIndex("geom"));
  // Rows per (street, instant) key, the half an interpretation ignores
  // held at zero; the first densest key in key order wins.
  std::map<std::pair<int64_t, double>, int64_t> counts;
  for (const Row& r : on_streets.rows()) {
    ++counts[{per_street ? r[geom_idx].AsIntUnchecked() : 0,
              per_instant ? r[t_idx].AsDoubleUnchecked() : 0.0}];
  }
  auto street_length = [&](int64_t id) {
    auto line = layer->GetPolyline(id);
    return line.ok() ? line.ValueOrDie()->Length() : 0.0;
  };
  const std::pair<int64_t, double>* densest = nullptr;
  double most = 0.0;
  for (const auto& [key, count] : counts) {
    const double len = per_street ? street_length(key.first) : total_len;
    if (len <= 0.0) {
      continue;
    }
    const double density = static_cast<double>(count) / len;
    if (densest == nullptr || density > most) {
      densest = &key;
      most = density;
    }
  }
  if (densest == nullptr) {
    return DensityResult{};
  }
  return DensityResult{per_street ? Value(densest->first) : Value(),
                       per_instant ? Value(densest->second) : Value(), most};
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
  // Every tuple sits at the instant t: one granule.
  std::vector<gamma::Run> runs;
  for (const Row& r : snapshot.rows()) {
    gamma::Fold(&runs, t.seconds, r[0].AsIntUnchecked());
  }
  return gamma::Finish(gamma::Build(std::move(runs)),
                       gamma::Function::kCountDistinctOid)
      .objects;
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
  if (!interpolated) {
    PIET_ASSIGN_OR_RETURN(
        const std::vector<gis::GeometryId> nodes,
        engine.QualifyingGeometries(node_layer, GeometryPredicate::All()));
    PIET_ASSIGN_OR_RETURN(
        const QueryEngine::GammaAnswer near,
        engine.NearState(moft, node_layer, nodes, radius, when, hours));
    return PerHour(near.state);
  }
  PIET_ASSIGN_OR_RETURN(
      FactTable near,
      engine.TrajectoryNearNodes(moft, node_layer, radius, when));
  PIET_ASSIGN_OR_RETURN(size_t oid_idx, near.ColumnIndex("Oid"));
  PIET_ASSIGN_OR_RETURN(size_t enter_idx, near.ColumnIndex("enter"));
  PIET_ASSIGN_OR_RETURN(size_t leave_idx, near.ColumnIndex("leave"));
  std::vector<gamma::Run> runs;
  for (const Row& r : near.rows()) {
    // Every hour the stay overlaps.
    const double last = hours.Of(r[leave_idx].AsDoubleUnchecked());
    for (double h = hours.Of(r[enter_idx].AsDoubleUnchecked()); h <= last;
         h += temporal::kHour) {
      gamma::Fold(&runs, h, r[oid_idx].AsIntUnchecked());
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
  // COUNT(DISTINCT OID) at the requested stop, grouped by minute.
  PIET_ASSIGN_OR_RETURN(const QueryEngine::GammaAnswer waiting,
                        engine.NearState(moft, stop_layer, {stop}, radius,
                                         when, gamma::Granule("minute")));
  return gamma::FinishGrouped(waiting.state,
                              gamma::Function::kCountDistinctOid,
                              engine.db().time_dimension(), "minute",
                              "waiting");
}

}  // namespace piet::core::queries
