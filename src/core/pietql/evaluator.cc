#include "core/pietql/evaluator.h"

#include <cstdlib>
#include <ctime>
#include <optional>
#include <sstream>

#include "analysis/lint/query_lint.h"
#include "analysis/query_check.h"
#include "core/engine.h"
#include "core/gamma.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "geometry/segment_polygon.h"
#include "temporal/time_dimension.h"

namespace piet::core::pietql {

using gis::GeometryId;
using gis::GeometryKind;
using gis::Layer;
using moving::Moft;
using temporal::Interval;
using temporal::TimePoint;

std::string QueryResult::ToString() const {
  std::ostringstream os;
  os << "result layer '" << result_layer << "': " << geometry_ids.size()
     << " geometries";
  if (scalar) {
    os << "; aggregate = " << scalar->ToString();
  }
  if (table) {
    os << "\n" << table->ToString();
  }
  return os.str();
}

Result<bool> Evaluator::ElementsIntersect(const Layer& a, GeometryId ida,
                                          const Layer& b,
                                          GeometryId idb) const {
  auto kind_pair = [](GeometryKind x) {
    // Collapse point/node and line/polyline.
    if (x == GeometryKind::kNode) {
      return GeometryKind::kPoint;
    }
    if (x == GeometryKind::kLine) {
      return GeometryKind::kPolyline;
    }
    return x;
  };
  GeometryKind ka = kind_pair(a.kind());
  GeometryKind kb = kind_pair(b.kind());
  if (ka < kb) {
    // Intersection is symmetric: test with the higher kind (point <
    // polyline < polygon) on the left.
    return ElementsIntersect(b, idb, a, ida);
  }

  if (ka == GeometryKind::kPolygon && kb == GeometryKind::kPolygon) {
    PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pa, a.GetPolygon(ida));
    PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pb, b.GetPolygon(idb));
    return pa->Intersects(*pb);
  }
  if (ka == GeometryKind::kPolygon && kb == GeometryKind::kPolyline) {
    PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pa, a.GetPolygon(ida));
    PIET_ASSIGN_OR_RETURN(const geometry::Polyline* lb, b.GetPolyline(idb));
    for (size_t i = 0; i < lb->num_segments(); ++i) {
      if (geometry::SegmentIntersectsPolygon(lb->segment(i), *pa)) {
        return true;
      }
    }
    return false;
  }
  if (ka == GeometryKind::kPolygon && kb == GeometryKind::kPoint) {
    PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pa, a.GetPolygon(ida));
    PIET_ASSIGN_OR_RETURN(geometry::Point pb, b.GetPoint(idb));
    return pa->Contains(pb);
  }
  if (ka == GeometryKind::kPolyline && kb == GeometryKind::kPolyline) {
    PIET_ASSIGN_OR_RETURN(const geometry::Polyline* la, a.GetPolyline(ida));
    PIET_ASSIGN_OR_RETURN(const geometry::Polyline* lb, b.GetPolyline(idb));
    return la->Intersects(*lb);
  }
  if (ka == GeometryKind::kPolyline && kb == GeometryKind::kPoint) {
    PIET_ASSIGN_OR_RETURN(const geometry::Polyline* la, a.GetPolyline(ida));
    PIET_ASSIGN_OR_RETURN(geometry::Point pb, b.GetPoint(idb));
    return la->Contains(pb);
  }
  if (ka == GeometryKind::kPoint && kb == GeometryKind::kPoint) {
    PIET_ASSIGN_OR_RETURN(geometry::Point pa, a.GetPoint(ida));
    PIET_ASSIGN_OR_RETURN(geometry::Point pb, b.GetPoint(idb));
    return pa == pb;
  }
  return Status::Unimplemented("unsupported geometry kind combination");
}

Result<bool> Evaluator::ElementContains(const Layer& a, GeometryId ida,
                                        const Layer& b, GeometryId idb) const {
  if (a.kind() != GeometryKind::kPolygon) {
    return Status::InvalidArgument("CONTAINS needs a polygon left layer");
  }
  PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pa, a.GetPolygon(ida));
  switch (b.kind()) {
    case GeometryKind::kPoint:
    case GeometryKind::kNode: {
      PIET_ASSIGN_OR_RETURN(geometry::Point pb, b.GetPoint(idb));
      return pa->Contains(pb);
    }
    case GeometryKind::kPolygon: {
      PIET_ASSIGN_OR_RETURN(const geometry::Polygon* pb, b.GetPolygon(idb));
      return pa->ContainsPolygon(*pb);
    }
    case GeometryKind::kLine:
    case GeometryKind::kPolyline: {
      PIET_ASSIGN_OR_RETURN(const geometry::Polyline* lb, b.GetPolyline(idb));
      for (const geometry::Point& v : lb->vertices()) {
        if (!pa->Contains(v)) {
          return false;
        }
      }
      return true;
    }
    case GeometryKind::kAll:
      break;
  }
  return Status::Unimplemented("unsupported CONTAINS operand");
}

Result<std::vector<GeometryId>> Evaluator::EvaluateGeoPart(
    const GeoQuery& geo, obs::TraceCollector* trace) const {
  if (geo.select.empty()) {
    return Status::InvalidArgument("geometric part selects no layer");
  }
  const std::string& result_layer = geo.select.front().name;
  PIET_ASSIGN_OR_RETURN(const Layer* layer,
                        db_->gis().GetLayer(result_layer));

  std::vector<GeometryId> current(layer->ids());
  for (const GeoCondition& cond : geo.where) {
    if (cond.a.name != result_layer) {
      return Status::InvalidArgument(
          "conditions must constrain the result layer '" + result_layer +
          "' (got '" + cond.a.name + "')");
    }
    obs::TraceSpan cond_span(
        trace, cond.kind == GeoCondition::Kind::kAttrCompare
                   ? "geo_condition:attr_compare"
               : cond.kind == GeoCondition::Kind::kIntersection
                   ? "geo_condition:intersection"
                   : "geo_condition:contains");
    cond_span.Attr("candidates_in", static_cast<int64_t>(current.size()));
    std::vector<GeometryId> next;
    switch (cond.kind) {
      case GeoCondition::Kind::kAttrCompare: {
        for (GeometryId id : current) {
          auto v = layer->GetAttribute(id, cond.attribute);
          if (v.ok() && CompareValues(v.ValueOrDie(), cond.op, cond.literal)) {
            next.push_back(id);
          }
        }
        break;
      }
      case GeoCondition::Kind::kIntersection:
      case GeoCondition::Kind::kContains: {
        PIET_ASSIGN_OR_RETURN(const Layer* other,
                              db_->gis().GetLayer(cond.b.name));
        for (GeometryId id : current) {
          bool keep = false;
          // Prune with the other layer's R-tree.
          auto bounds = layer->BoundsOf(id);
          if (!bounds.ok()) {
            continue;
          }
          for (GeometryId ob :
               other->CandidatesInBox(bounds.ValueOrDie())) {
            Result<bool> hit =
                (cond.kind == GeoCondition::Kind::kIntersection)
                    ? ElementsIntersect(*layer, id, *other, ob)
                    : ElementContains(*layer, id, *other, ob);
            if (hit.ok() && hit.ValueOrDie()) {
              keep = true;
              break;
            }
          }
          if (keep) {
            next.push_back(id);
          }
        }
        break;
      }
    }
    cond_span.Attr("candidates_out", static_cast<int64_t>(next.size()));
    current = std::move(next);
  }
  return current;
}

namespace {

/// Process CPU time (covers pool worker threads), for the flight
/// recorder's cpu_ns field; 0 when the platform clock is unavailable.
int64_t ProcessCpuNs() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return 0;
}

int64_t SpanAttrInt(const obs::SpanNode* node, std::string_view key) {
  if (node == nullptr) {
    return 0;
  }
  std::string_view v = node->Attr(key);
  if (v.empty()) {
    return 0;
  }
  return std::strtoll(std::string(v).c_str(), nullptr, 10);
}

/// Builds the per-query resource record from a finished span tree and
/// files it with the global flight recorder. Pure read of the tree and
/// result — never touches the evaluation data path.
void RecordFlight(std::string text, const Result<QueryResult>& result,
                  obs::SpanNode profile, int64_t cpu_ns) {
  obs::QueryRecord rec;
  rec.text = std::move(text);
  rec.wall_ns = profile.duration_ns;
  rec.cpu_ns = cpu_ns;
  if (!result.ok()) {
    rec.error = result.status().ToString();
  }
  if (const obs::SpanNode* mi = profile.Find("moft_intersect")) {
    rec.clause = std::string(mi->Attr("clause"));
    rec.rows_scanned = SpanAttrInt(mi, "rows_scanned");
    rec.tuples = SpanAttrInt(mi, "tuples");
    rec.blocks = SpanAttrInt(mi, "blocks");
    rec.blocks_skipped = SpanAttrInt(mi, "blocks_skipped");
    rec.blocks_decoded = SpanAttrInt(mi, "blocks_decoded");
    rec.agg_cache_served = mi->Find("agg_cache") != nullptr;
    rec.agg_cache_fallback = std::string(mi->Attr("aggcache_fallback"));
  }
  if (const obs::SpanNode* es = profile.Find("estimate");
      es != nullptr && es->Attr("error").empty()) {
    rec.has_estimate = true;
    rec.est_rows_lo = SpanAttrInt(es, "est_rows_lo");
    rec.est_rows_hi = SpanAttrInt(es, "est_rows_hi");
    rec.est_tuples_lo = SpanAttrInt(es, "est_tuples_lo");
    rec.est_tuples_hi = SpanAttrInt(es, "est_tuples_hi");
    rec.est_blocks_lo = SpanAttrInt(es, "est_blocks_lo");
    rec.est_blocks_hi = SpanAttrInt(es, "est_blocks_hi");
    rec.est_blocks_skipped_lo = SpanAttrInt(es, "est_blocks_skipped_lo");
    rec.est_blocks_skipped_hi = SpanAttrInt(es, "est_blocks_skipped_hi");
    rec.est_blocks_decoded_lo = SpanAttrInt(es, "est_blocks_decoded_lo");
    rec.est_blocks_decoded_hi = SpanAttrInt(es, "est_blocks_decoded_hi");
    rec.est_cost = SpanAttrInt(es, "est_cost");
    rec.est_verdict = std::string(es->Attr("verdict"));
    // The estimator's soundness contract, checked per record: the actual
    // counters of a successful evaluation lie inside the intervals.
    if (obs::Enabled()) {
      auto& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("pietql.estimate.checked").Add(1);
      const std::string violation = rec.EstimateViolation();
      registry
          .GetCounter(violation.empty() ? "pietql.estimate.sound"
                                        : "pietql.estimate.violations")
          .Add(1);
    }
  }
  rec.profile = std::move(profile);
  obs::FlightRecorder::Global().Record(std::move(rec));
}

}  // namespace

Result<ProfiledResult> Evaluator::Profile(const Query& query,
                                         const std::string* text,
                                         obs::TraceCollector* trace) const {
  const int64_t cpu0 = ProcessCpuNs();
  Result<QueryResult> result = EvaluateImpl(query, trace);
  const int64_t cpu1 = ProcessCpuNs();
  obs::SpanNode profile = trace->Finish();
  if (obs::Enabled() && obs::FlightRecorder::Global().active()) {
    RecordFlight(text != nullptr ? *text : Print(query), result, profile,
                 cpu1 - cpu0);
  }
  PIET_RETURN_NOT_OK(result.status());
  return ProfiledResult{std::move(result).ValueOrDie(), std::move(profile)};
}

Result<QueryResult> Evaluator::EvaluateRecorded(const Query& query,
                                                const std::string* text) const {
  if (!obs::Enabled() || !obs::FlightRecorder::Global().active()) {
    return EvaluateImpl(query, nullptr);
  }
  obs::TraceCollector trace("query");
  PIET_ASSIGN_OR_RETURN(ProfiledResult out, Profile(query, text, &trace));
  return std::move(out.result);
}

Result<QueryResult> Evaluator::Evaluate(const Query& query) const {
  return EvaluateRecorded(query, nullptr);
}

Result<ProfiledResult> Evaluator::EvaluateProfiled(const Query& query) const {
  obs::TraceCollector trace("query");
  return Profile(query, nullptr, &trace);
}

Result<QueryResult> Evaluator::EvaluateImpl(const Query& query,
                                            obs::TraceCollector* trace) const {
  // Passive registry metrics honor the PIET_OBS gate; the span tree is
  // gated only by the collector (EXPLAIN ANALYZE works with PIET_OBS=0).
  const bool obs_on = obs::Enabled();
  obs::ScopedTimer latency(
      obs_on ? &obs::MetricsRegistry::Global().GetHistogram(
                   "pietql.query.latency")
             : nullptr);
  if (obs_on) {
    obs::MetricsRegistry::Global().GetCounter("pietql.queries").Add(1);
  }

  QueryResult result;
  if (check_mode_ != analysis::CheckMode::kOff) {
    obs::TraceSpan analyze_span(trace, "analyze");
    analysis::QueryContext context;
    context.gis = &db_->gis();
    context.moft_names = db_->MoftNames();
    analysis::DiagnosticList diagnostics =
        analysis::AnalyzeQuery(context, query);
    if (check_mode_ == analysis::CheckMode::kStrict &&
        diagnostics.HasErrors()) {
      analyze_span.Attr("diagnostics",
                        static_cast<int64_t>(diagnostics.size()));
      return diagnostics.ToStatus();
    }
    // The static plan linter proves clauses dead / regions empty without
    // evaluating; its findings are warnings and notes, so strict mode keeps
    // accepting lint-flagged queries.
    {
      obs::TraceSpan lint_span(trace, "lint");
      analysis::DiagnosticList lint =
          analysis::lint::LintQuery(context, query);
      lint_span.Attr("findings", static_cast<int64_t>(lint.size()));
      if (obs_on) {
        obs::MetricsRegistry::Global().GetCounter("pietql.lint.queries")
            .Add(1);
        obs::MetricsRegistry::Global().GetCounter("pietql.lint.findings")
            .Add(static_cast<int64_t>(lint.size()));
      }
      diagnostics.Merge(lint);
    }
    analyze_span.Attr("diagnostics",
                      static_cast<int64_t>(diagnostics.size()));
    diagnostics.DowngradeErrorsToWarnings();
    result.diagnostics = std::move(diagnostics);
  }
  // The estimate stage sits between analyze and geo_filter: kOn derives
  // sound static resource intervals from the catalog (no MOFT row is read
  // and no block is decoded), exports them as the `estimate` span plus
  // pietql.estimate.* counters, and applies the admission budget.
  // Provably-over-budget queries are rejected here, before any scan;
  // possibly-over queries continue with a warning attached. With no
  // budget configured the stage is purely observational, so the evaluated
  // result stays byte-identical to estimate mode kOff.
  if (estimate_mode_ == analysis::estimate::EstimateMode::kOn) {
    obs::TraceSpan est_span(trace, "estimate");
    auto est_or = EstimateQuery(query);
    if (!est_or.ok()) {
      est_span.Attr("error", est_or.status().ToString());
    } else {
      const auto& est = est_or.ValueOrDie();
      est_span.Attr("clause", est.clause);
      est_span.Attr("est_rows_lo", est.rows_scanned.lo);
      est_span.Attr("est_rows_hi", est.rows_scanned.hi);
      est_span.Attr("est_tuples_lo", est.tuples.lo);
      est_span.Attr("est_tuples_hi", est.tuples.hi);
      est_span.Attr("est_blocks_lo", est.blocks.lo);
      est_span.Attr("est_blocks_hi", est.blocks.hi);
      est_span.Attr("est_blocks_skipped_lo", est.blocks_skipped.lo);
      est_span.Attr("est_blocks_skipped_hi", est.blocks_skipped.hi);
      est_span.Attr("est_blocks_decoded_lo", est.blocks_decoded.lo);
      est_span.Attr("est_blocks_decoded_hi", est.blocks_decoded.hi);
      est_span.Attr("est_cost", static_cast<int64_t>(est.cost));
      const analysis::estimate::AdmissionDecision decision =
          analysis::estimate::Admit(est, budget_);
      const std::string verdict(
          analysis::estimate::AdmissionVerdictToString(decision.verdict));
      est_span.Attr("verdict", verdict);
      if (obs_on) {
        auto& registry = obs::MetricsRegistry::Global();
        registry.GetCounter("pietql.estimate.queries").Add(1);
        registry.GetCounter("pietql.estimate." + verdict).Add(1);
      }
      if (decision.verdict ==
          analysis::estimate::AdmissionVerdict::kReject) {
        return decision.diagnostics.ToStatus();
      }
      if (decision.verdict == analysis::estimate::AdmissionVerdict::kWarn) {
        result.diagnostics.Merge(decision.diagnostics);
      }
    }
  }
  result.result_layer = query.geo.select.front().name;
  {
    obs::TraceSpan geo_span(trace, "geo_filter");
    geo_span.Attr("layer", result.result_layer);
    geo_span.Attr("conditions",
                  static_cast<int64_t>(query.geo.where.size()));
    PIET_ASSIGN_OR_RETURN(result.geometry_ids,
                          EvaluateGeoPart(query.geo, trace));
    geo_span.Attr("ids", static_cast<int64_t>(result.geometry_ids.size()));
  }
  if (!query.mo) {
    return result;
  }

  const MoQuery& mo = *query.mo;
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(mo.moft));
  PIET_ASSIGN_OR_RETURN(const Layer* layer,
                        db_->gis().GetLayer(result.result_layer));

  // Split conditions into the time predicate and the spatial mode.
  TimePredicate when;
  bool inside_result = false;
  bool passes_through = false;
  const MoCondition* near_cond = nullptr;
  for (const MoCondition& cond : mo.where) {
    switch (cond.kind) {
      case MoCondition::Kind::kInsideResult:
        inside_result = true;
        break;
      case MoCondition::Kind::kPassesThroughResult:
        passes_through = true;
        break;
      case MoCondition::Kind::kTimeEquals:
        when.RollupEquals(cond.time_level, cond.literal);
        break;
      case MoCondition::Kind::kTimeBetween:
        when.Window(Interval(TimePoint(cond.t0), TimePoint(cond.t1)));
        break;
      case MoCondition::Kind::kNearLayer:
        near_cond = &cond;
        break;
    }
  }
  if ((inside_result ? 1 : 0) + (passes_through ? 1 : 0) +
          (near_cond != nullptr ? 1 : 0) >
      1) {
    return Status::InvalidArgument(
        "INSIDE RESULT, PASSES THROUGH RESULT and NEAR are mutually "
        "exclusive");
  }
  if ((inside_result || passes_through) &&
      layer->kind() != GeometryKind::kPolygon) {
    return Status::InvalidArgument(
        "spatial moving-object conditions need a polygon result layer");
  }

  const char* clause = passes_through      ? "passes_through"
                       : near_cond != nullptr ? "near"
                       : inside_result      ? "inside_result"
                                            : "time_only";
  if (obs_on) {
    obs::MetricsRegistry::Global()
        .GetCounter(std::string("pietql.clause.") + clause)
        .Add(1);
  }
  // No tuple lies inside (or passes through) an empty region, so the scan
  // is skipped: no classification, no cache probe, no block read. PASSES
  // THROUGH under a sub-hour rollup still scans, because its time clip
  // rejects that rollup with an error the short circuit must not mask.
  const bool empty_region =
      result.geometry_ids.empty() &&
      (inside_result || (passes_through && !when.has_sub_hour_rollup()));
  // The region C reaches γ as its state (core/gamma.h), built by the
  // engine's γ-state operator for the clause (DESIGN.md §8.1). INSIDE
  // RESULT uses the overlay's cached classification when the overlay
  // covers the result layer, where an hour-decomposable aggregate may be
  // served from the aggregate cache; otherwise the tile kernel tests the
  // wanted polygons.
  const gamma::Granule granule(mo.group_by_level);
  QueryEngine engine(db_);
  engine.set_num_threads(num_threads_);
  engine.set_agg_cache_mode(agg_cache_mode_);
  gamma::State state;
  {
    // The span closes before aggregation so moft_intersect and aggregate
    // stay siblings in the tree.
    obs::TraceSpan intersect_span(trace, "moft_intersect");
    intersect_span.Attr("clause", clause);
    intersect_span.Attr("moft", mo.moft);
    Result<QueryEngine::GammaAnswer> c = QueryEngine::GammaAnswer{};
    if (empty_region) {
      intersect_span.Attr("short_circuit", "empty_region_c");
    } else if (passes_through) {
      // Trajectory semantics: each maximal inside interval contributes a
      // tuple stamped at its entry time.
      c = engine.TrajectoryState(mo.moft, result.result_layer,
                                 result.geometry_ids, when, granule);
    } else if (near_cond != nullptr) {
      PIET_ASSIGN_OR_RETURN(const Layer* nodes,
                            db_->gis().GetLayer(near_cond->near_layer));
      if (nodes->kind() != GeometryKind::kNode &&
          nodes->kind() != GeometryKind::kPoint) {
        return Status::InvalidArgument("NEAR needs a point/node layer");
      }
      c = engine.NearState(mo.moft, near_cond->near_layer, nodes->ids(),
                           near_cond->radius, when, granule);
    } else if (inside_result) {
      const bool overlay = db_->HasOverlay() &&
                           db_->OverlayLayerIndex(result.result_layer).ok();
      c = engine.RegionState(mo.moft, result.result_layer,
                             result.geometry_ids, when, granule,
                             overlay ? Strategy::kOverlay : Strategy::kNaive);
    } else {
      c = engine.WindowState(mo.moft, when, granule);
    }
    PIET_RETURN_NOT_OK(c.status());
    QueryEngine::GammaAnswer answer = std::move(c).ValueOrDie();
    state = std::move(answer.state);
    if (answer.cache_fallback) {
      // EXPLAIN ANALYZE names the rollup level that forced the scan, and a
      // counter (bumped by the probe) makes the fallback observable.
      const std::string& level = when.sub_hour_rollup_level();
      intersect_span.Attr("aggcache_fallback",
                          level.empty() ? *mo.group_by_level : level);
    }
    const ScanStats& st = engine.stats();
    if (passes_through) {
      // The legs refined after the time clip, not the whole histories.
      intersect_span.Attr("legs_tested", static_cast<uint64_t>(st.legs_tested));
      intersect_span.Attr("leg_refines", static_cast<uint64_t>(st.leg_refines));
    }
    if (!answer.served && !empty_region && !passes_through &&
        when.window_only()) {
      intersect_span.Attr("fast_path", "window_probe");
    }
    // A cache serve's `tuples` counts the member samples the scan would
    // have produced, its `rows_scanned` only the rows the serve touched.
    intersect_span.Attr("rows_scanned",
                        static_cast<uint64_t>(st.samples_scanned));
    intersect_span.Attr("tuples", static_cast<uint64_t>(gamma::Tuples(state)));
    if (answer.served) {
      // The serve's decomposition, nested where the scan would have run.
      const aggcache::AggServeStats& cs = *answer.served;
      obs::TraceSpan cache_span(trace, "agg_cache");
      cache_span.Attr("groups_from_partials",
                      static_cast<uint64_t>(cs.groups_from_partials));
      cache_span.Attr("fringe_rows", static_cast<uint64_t>(cs.fringe_rows));
      cache_span.Attr("buckets", static_cast<uint64_t>(state.size()));
    } else {
      // The query's own block I/O: zonemap skips and the cold blocks its
      // scan decoded (each at most once). Blocks() seals a table that the
      // empty-region short circuit left unscanned.
      intersect_span.Attr("blocks",
                          static_cast<uint64_t>(moft->Blocks().num_blocks()));
      intersect_span.Attr("blocks_skipped",
                          static_cast<uint64_t>(st.blocks.blocks_skipped));
      intersect_span.Attr("blocks_decoded",
                          static_cast<uint64_t>(st.blocks.blocks_pinned));
      if (obs_on) {
        obs::MetricsRegistry::Global()
            .GetCounter("pietql.blocks_skipped")
            .Add(static_cast<int64_t>(st.blocks.blocks_skipped));
      }
    }
  }

  if (obs_on) {
    obs::MetricsRegistry::Global()
        .GetCounter("pietql.tuples")
        .Add(gamma::Tuples(state));
  }

  // Aggregate: one γ finisher, whichever path fed the state.
  obs::TraceSpan agg_span(trace, "aggregate");
  agg_span.Attr("kind", gamma::Name(mo.agg.kind));
  if (!mo.group_by_level) {
    result.scalar = gamma::Finish(state, mo.agg.kind).Of(mo.agg.kind);
    return result;
  }
  PIET_ASSIGN_OR_RETURN(
      result.table,
      gamma::FinishGrouped(state, mo.agg.kind, db_->time_dimension(),
                           *mo.group_by_level, "value"));
  agg_span.Attr("groups", static_cast<uint64_t>(result.table->num_rows()));
  return result;
}

analysis::estimate::Catalog Evaluator::BuildEstimateCatalog(
    const Query& query) const {
  analysis::estimate::Catalog catalog;
  catalog.gis = &db_->gis();
  if (db_->HasOverlay()) {
    auto overlay = db_->overlay();
    if (overlay.ok()) {
      catalog.overlay = overlay.ValueOrDie();
      catalog.agg_cache_on = agg_cache_mode_ == aggcache::AggCacheMode::kOn;
      for (const std::string& name : db_->gis().LayerNames()) {
        if (db_->OverlayLayerIndex(name).ok()) {
          catalog.overlay_layers.push_back(name);
        }
      }
    }
  }
  if (query.mo) {
    auto moft = db_->GetMoft(query.mo->moft);
    if (moft.ok()) {
      catalog.mofts.emplace(query.mo->moft,
                            moft.ValueOrDie()->CatalogStats());
    }
  }
  return catalog;
}

Result<analysis::estimate::ResourceEstimate> Evaluator::EstimateQuery(
    const Query& query) const {
  return analysis::estimate::EstimateQuery(BuildEstimateCatalog(query),
                                           query);
}

Result<std::string> Evaluator::ExplainEstimate(std::string_view text) const {
  PIET_ASSIGN_OR_RETURN(Query query, Parse(text));
  PIET_ASSIGN_OR_RETURN(auto est, EstimateQuery(query));
  std::string out = "plan: ";
  out.append(Print(query));
  out.push_back('\n');
  out.append(est.ToString());
  return out;
}

Result<QueryResult> Evaluator::EvaluateString(std::string_view text) const {
  PIET_ASSIGN_OR_RETURN(Query query, Parse(text));
  const std::string original(text);
  return EvaluateRecorded(query, &original);
}

Result<ProfiledResult> Evaluator::EvaluateStringProfiled(
    std::string_view text) const {
  obs::TraceCollector trace("query");
  Result<Query> parsed = [&]() -> Result<Query> {
    obs::TraceSpan parse_span(&trace, "parse");
    parse_span.Attr("bytes", static_cast<int64_t>(text.size()));
    return Parse(text);
  }();
  PIET_RETURN_NOT_OK(parsed.status());
  const std::string original(text);
  return Profile(parsed.ValueOrDie(), &original, &trace);
}

}  // namespace piet::core::pietql
