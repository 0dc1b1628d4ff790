#include "analysis/estimate/estimate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "analysis/lint/query_lint.h"
#include "analysis/lint/time_domain.h"
#include "gis/layer.h"
#include "temporal/interval.h"
#include "temporal/time_dimension.h"
#include "temporal/time_point.h"

namespace piet::analysis::estimate {

namespace pq = core::pietql;
using gis::GeometryId;
using gis::GeometryKind;
using gis::Layer;
using moving::BlockMeta;
using moving::MoftCatalogStats;
using temporal::Interval;
using temporal::TimePoint;

EstimateMode EstimateModeFromEnv() {
  const char* v = std::getenv("PIET_ESTIMATE");
  if (v == nullptr) {
    return EstimateMode::kOff;
  }
  const std::string_view s(v);
  if (s.empty() || s == "0" || s == "off" || s == "false") {
    return EstimateMode::kOff;
  }
  return EstimateMode::kOn;
}

std::string EstInterval::ToString() const {
  std::string out;
  out.reserve(24);
  out.push_back('[');
  out.append(std::to_string(lo));
  out.push_back(',');
  out.append(std::to_string(hi));
  out.push_back(']');
  return out;
}

namespace {

constexpr double kHourSeconds = 3600.0;
// Saturation ceiling for derived products (passes-through tuple bounds):
// far above any real table, far below int64 overflow territory.
constexpr int64_t kSatCap = std::numeric_limits<int64_t>::max() / 8;

int64_t SatAdd(int64_t a, int64_t b) {
  return (a > kSatCap - b) ? kSatCap : a + b;
}

int64_t SatMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  return (a > kSatCap / b) ? kSatCap : a * b;
}

/// Static replay of a block scan's zonemap filter over the catalog's
/// block metas: which blocks it rejects wholesale, how many blocks and
/// rows it admits (the rows an upper bound on the window's row count), and
/// how many admitted rows live in blocks fully inside the filter's window
/// (every such row matches — the lower bound). The runtime's own
/// ZoneFilter::Admits decides, so an inverted window admits nothing.
struct WindowRowMath {
  int64_t admitted_rows = 0;
  int64_t admitted_blocks = 0;
  int64_t full_rows = 0;
  int64_t skipped_blocks = 0;
};

WindowRowMath ReplayZoneFilter(const MoftCatalogStats& stats,
                               const moving::ZoneFilter& filter) {
  WindowRowMath out;
  for (const BlockMeta& m : stats.blocks) {
    if (!filter.Admits(m)) {
      ++out.skipped_blocks;
      continue;
    }
    ++out.admitted_blocks;
    out.admitted_rows += static_cast<int64_t>(m.rows());
    if (!filter.window || (filter.window->begin.seconds <= m.t_min &&
                           m.t_max <= filter.window->end.seconds)) {
      out.full_rows += static_cast<int64_t>(m.rows());
    }
  }
  return out;
}

/// The time predicate's shape, mirroring TimePredicate's construction in
/// the evaluator: every TIME.<level> equality is a rollup constraint and
/// the T BETWEEN clauses are a conjunction (Window intersects).
struct TimeShape {
  std::vector<const pq::MoCondition*> rollups;
  /// Intersection of every T BETWEEN; may be inverted (matches nothing).
  std::optional<Interval> window;

  bool window_only() const { return rollups.empty() && window.has_value(); }
  bool unconstrained() const { return rollups.empty() && !window; }
};

TimeShape SplitTimeShape(const pq::MoQuery& mo) {
  TimeShape shape;
  for (const pq::MoCondition& cond : mo.where) {
    if (cond.kind == pq::MoCondition::Kind::kTimeEquals) {
      shape.rollups.push_back(&cond);
    } else if (cond.kind == pq::MoCondition::Kind::kTimeBetween) {
      Interval w(TimePoint(cond.t0), TimePoint(cond.t1));
      if (shape.window) {
        w = Interval(std::max(shape.window->begin, w.begin),
                     std::min(shape.window->end, w.end));
      }
      shape.window = w;
    }
  }
  return shape;
}

/// Hour buckets overlapped by the closed range [begin, end] (empty -> 0).
int64_t BucketsTouched(double begin, double end, double width) {
  if (end < begin) {
    return 0;
  }
  return static_cast<int64_t>(std::floor(end / width) -
                              std::floor(begin / width)) +
         1;
}

std::string FormatFraction(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", f);
  return buf;
}

}  // namespace

Result<ResourceEstimate> EstimateQuery(const Catalog& catalog,
                                       const pq::Query& query) {
  if (catalog.gis == nullptr) {
    return Status::InvalidArgument(
        "estimate needs a catalog with a GIS instance");
  }
  ResourceEstimate est;

  // ---- Geometric part: the lint geo walk mirrors EvaluateGeoPart. Its
  // candidates are a superset of the runtime ids, exact when every clause
  // is. A query the evaluator must reject (no or unknown result layer, a
  // foreign or unknown layer in a clause) is error-expected: an errored
  // query scans nothing.
  const std::string result_layer =
      query.geo.select.empty() ? std::string() : query.geo.select.front().name;
  const lint::GeoFacts geo =
      lint::WalkGeo(QueryContext{catalog.gis, {}}, query.geo);
  const Layer* layer = geo.layer;
  bool error_expected = layer == nullptr || geo.foreign || geo.abstained;
  const bool region_exact =
      !error_expected &&
      std::all_of(geo.clauses.begin(), geo.clauses.end(),
                  [](const lint::GeoClause& c) { return c.exact; });
  const std::vector<GeometryId>& over = geo.candidates;
  const int64_t kept = error_expected ? 0 : static_cast<int64_t>(over.size());
  est.region_ids = EstInterval{region_exact ? kept : 0, kept};
  est.region_exact = region_exact;

  StageEstimate geo_stage;
  geo_stage.name = "geo_filter";
  geo_stage.attrs.emplace_back(
      "layer", result_layer.empty() ? std::string("?") : result_layer);
  geo_stage.attrs.emplace_back(
      "conditions", std::to_string(query.geo.where.size()));
  geo_stage.attrs.emplace_back("ids", est.region_ids.ToString());
  geo_stage.attrs.emplace_back("exact", region_exact ? "yes" : "no");
  est.stages.push_back(std::move(geo_stage));

  // ---- Moving-object part.
  if (!error_expected && !query.mo) {
    est.clause = "none";
    est.result_rows = est.region_ids;
    est.cost = 32.0 * static_cast<double>(est.rows_scanned.hi) +
               16.0 * static_cast<double>(est.tuples.hi);
    return est;
  }

  const pq::MoQuery* mo = query.mo ? &*query.mo : nullptr;
  const MoftCatalogStats* stats = nullptr;
  bool inside_result = false;
  bool passes_through = false;
  const pq::MoCondition* near_cond = nullptr;
  if (!error_expected && mo != nullptr) {
    auto it = catalog.mofts.find(mo->moft);
    if (it == catalog.mofts.end()) {
      error_expected = true;  // GetMoft rejects at runtime.
    } else {
      stats = &it->second;
    }
  }
  if (!error_expected && mo != nullptr) {
    int spatial = 0;
    for (const pq::MoCondition& cond : mo->where) {
      switch (cond.kind) {
        case pq::MoCondition::Kind::kInsideResult:
          inside_result = true;
          break;
        case pq::MoCondition::Kind::kPassesThroughResult:
          passes_through = true;
          break;
        case pq::MoCondition::Kind::kNearLayer:
          near_cond = &cond;
          break;
        default:
          break;
      }
    }
    spatial = (inside_result ? 1 : 0) + (passes_through ? 1 : 0) +
              (near_cond != nullptr ? 1 : 0);
    if (spatial > 1) {
      error_expected = true;
    } else if ((inside_result || passes_through) &&
               layer->kind() != GeometryKind::kPolygon) {
      error_expected = true;
    } else if (near_cond != nullptr) {
      auto nodes = catalog.gis->GetLayer(near_cond->near_layer);
      if (!nodes.ok() ||
          (nodes.ValueOrDie()->kind() != GeometryKind::kNode &&
           nodes.ValueOrDie()->kind() != GeometryKind::kPoint)) {
        error_expected = true;
      }
    }
  }
  if (error_expected || mo == nullptr) {
    est.clause = "error";
    est.result_rows = EstInterval{0, 0};
    return est;
  }

  est.clause = passes_through        ? "passes_through"
               : near_cond != nullptr ? "near"
               : inside_result        ? "inside_result"
                                      : "time_only";
  const bool time_only = !inside_result && !passes_through &&
                         near_cond == nullptr;

  const MoftCatalogStats& st = *stats;
  const int64_t rows_n = static_cast<int64_t>(st.rows);
  const int64_t spans_n = static_cast<int64_t>(st.spans);
  const int64_t n_blocks = static_cast<int64_t>(st.num_blocks);

  const TimeShape shape = SplitTimeShape(*mo);
  bool rollup_sub_hour = false;
  for (const pq::MoCondition* r : shape.rollups) {
    rollup_sub_hour = rollup_sub_hour || temporal::IsSubHourLevel(r->time_level);
  }
  const bool sub_hour =
      rollup_sub_hour ||
      (mo->group_by_level && temporal::IsSubHourLevel(*mo->group_by_level));

  // The evaluator skips the scan of an INSIDE / PASSES THROUGH RESULT over
  // an empty region (PASSES THROUGH only without a sub-hour rollup). `over`
  // is a superset of the runtime ids: empty proves the skip, and an
  // inexact region may still skip, so scan lower bounds must admit 0.
  const bool skip_shape =
      inside_result || (passes_through && !rollup_sub_hour);
  const bool scan_skipped = skip_shape && over.empty();
  const bool may_skip = skip_shape && est.region_ids.lo == 0;

  // The meet of every folded time constraint: the windows and each rollup
  // equality are conjuncts, so intersecting their folded windows is sound.
  // Bottom proves no tuple can match.
  lint::TimeAbstract abstract;
  if (shape.window) {
    abstract.MeetWindow(*shape.window);
  }
  for (const pq::MoCondition* r : shape.rollups) {
    abstract.MeetLevelEquals(r->time_level, r->literal);
  }
  const bool time_bottom = abstract.IsBottom();

  // The sample scans take the time-window probe exactly when the plan's
  // predicate is a pure window (BlockScan::Samples).
  const bool win_path = shape.window_only();

  // Upper bound on time-matching rows, via the zonemaps when the meet
  // abstraction carries an absolute window.
  int64_t time_rows_hi = rows_n;
  if (time_bottom) {
    time_rows_hi = 0;
  } else if (abstract.window()) {
    moving::ZoneFilter meet;
    meet.window = abstract.window();
    time_rows_hi = ReplayZoneFilter(st, meet).admitted_rows;
  }

  const bool overlay_covers =
      catalog.overlay != nullptr &&
      std::find(catalog.overlay_layers.begin(), catalog.overlay_layers.end(),
                result_layer) != catalog.overlay_layers.end();
  const bool cache_eligible =
      inside_result && !scan_skipped && catalog.agg_cache_on &&
      overlay_covers;
  // The serve path answers from partials only without a sub-hour level;
  // any later gate (entry build failure, non-decomposable predicate) falls
  // back to the scan, so bounds must bracket both outcomes.
  const bool serve_possible = cache_eligible && !sub_hour;

  // Replay of the scan's zonemap filter (ScanZoneFilter): every branch
  // walks the MOFT's blocks under the window; the polygon-testing
  // paths (PASSES THROUGH, INSIDE RESULT without the overlay
  // classification) also skip blocks outside the wanted polygons' box.
  // `over` is a superset of the runtime ids, so its box admits at least
  // the runtime's blocks; only an exact region makes the replay exact.
  const bool bbox_filter =
      passes_through || (inside_result && !overlay_covers);
  moving::ZoneFilter scan_filter;
  scan_filter.window = shape.window;
  if (bbox_filter) {
    geometry::BoundingBox box;
    for (GeometryId id : over) {
      auto pg = layer->GetPolygon(id);
      if (pg.ok()) {
        box.ExtendWith(pg.ValueOrDie()->Bounds());
      }
    }
    scan_filter.bbox = box;
  }
  const WindowRowMath wm_last = ReplayZoneFilter(st, scan_filter);
  const bool replay_exact = !bbox_filter || region_exact;

  // rows_scanned: the window probe visits the window's rows, the other
  // scans every row of the admitted blocks.
  if (!scan_skipped) {
    if (win_path && !passes_through) {
      est.rows_scanned =
          EstInterval{wm_last.full_rows, wm_last.admitted_rows};
    } else {
      est.rows_scanned = EstInterval{wm_last.admitted_rows,
                                     wm_last.admitted_rows};
    }
    if (serve_possible || !replay_exact || may_skip) {
      // Full buckets served from partials scan nothing, and neither
      // does a skipped scan.
      est.rows_scanned.lo = 0;
    }
  }

  // Block accounting (the serve path emits none of the attrs, so every
  // bound must include 0 then).
  est.blocks = EstInterval{serve_possible ? 0 : n_blocks, n_blocks};
  if (!scan_skipped) {
    est.blocks_skipped = EstInterval{
        serve_possible || may_skip ? 0 : wm_last.skipped_blocks,
        replay_exact ? wm_last.skipped_blocks : n_blocks};
  }
  if (!scan_skipped && (st.compressed || st.mapped)) {
    // Each admitted cold block is decoded at most once per query.
    est.blocks_decoded = EstInterval{0, wm_last.admitted_blocks};
  }

  // Qualifying tuples.
  if (!scan_skipped && !time_bottom) {
    if (time_only) {
      if (shape.unconstrained()) {
        est.tuples = EstInterval{rows_n, rows_n};
      } else if (win_path) {
        // The window probe emits exactly the scanned rows as tuples.
        est.tuples = EstInterval{wm_last.full_rows, wm_last.admitted_rows};
      } else {
        est.tuples = EstInterval{0, time_rows_hi};
      }
    } else if (inside_result || near_cond != nullptr) {
      // At most one tuple per time-matching sample.
      est.tuples = EstInterval{0, time_rows_hi};
    } else {
      // PASSES THROUGH: per (object, polygon) the matched interval count
      // is bounded by the object's legs plus the time predicate's piece
      // count (1 for a pure window; hour-granular otherwise).
      int64_t pieces = 1;
      if (!shape.rollups.empty() && !st.blocks.empty()) {
        double t_min = st.blocks.front().t_min;
        double t_max = st.blocks.front().t_max;
        for (const BlockMeta& m : st.blocks) {
          t_min = std::min(t_min, m.t_min);
          t_max = std::max(t_max, m.t_max);
        }
        pieces = SatAdd(BucketsTouched(t_min, t_max, kHourSeconds), 1);
      }
      est.tuples = EstInterval{
          0, SatMul(est.region_ids.hi,
                    SatAdd(rows_n, SatMul(spans_n, pieces)))};
    }
  }

  // Result cardinality.
  if (!mo->group_by_level) {
    est.result_rows = EstInterval{1, 1};  // Scalar aggregate, even over 0
                                          // tuples.
  } else {
    const std::string& level = *mo->group_by_level;
    int64_t hi = est.tuples.hi;
    // Every level except raw-seconds "timeId" buckets time: "minute" at
    // 60 s civil labels, everything else at an hour or coarser.
    if (level != "timeId" && hi > 0 && !st.blocks.empty()) {
      double t_min = st.blocks.front().t_min;
      double t_max = st.blocks.front().t_max;
      for (const BlockMeta& m : st.blocks) {
        t_min = std::min(t_min, m.t_min);
        t_max = std::max(t_max, m.t_max);
      }
      if (abstract.window()) {
        t_min = std::max(t_min, abstract.window()->begin.seconds);
        t_max = std::min(t_max, abstract.window()->end.seconds);
      }
      // Distinct labels of an hour-or-coarser level are bounded by the
      // touched hour buckets; "minute" by the touched minutes.
      int64_t buckets = BucketsTouched(
          t_min, t_max, level == "minute" ? 60.0 : kHourSeconds);
      hi = std::min(hi, buckets);
      if (level == "hour") {
        hi = std::min<int64_t>(hi, 24);
      } else if (level == "dayOfWeek") {
        hi = std::min<int64_t>(hi, 7);
      } else if (level == "all") {
        hi = std::min<int64_t>(hi, 1);
      }
    }
    est.result_rows = EstInterval{est.tuples.lo > 0 ? 1 : 0, hi};
  }

  // Cache servability.
  est.cache_servable = serve_possible;
  if (serve_possible) {
    if (time_bottom) {
      est.cache_servable_fraction = 0.0;
    } else if (abstract.window()) {
      const double a = abstract.window()->begin.seconds;
      const double b = abstract.window()->end.seconds;
      const int64_t total = BucketsTouched(a, b, kHourSeconds);
      const int64_t full = std::max<int64_t>(
          0, static_cast<int64_t>(std::floor((b + 1.0) / kHourSeconds) -
                                  std::ceil(a / kHourSeconds)));
      est.cache_servable_fraction =
          total > 0 ? static_cast<double>(std::min(full, total)) /
                          static_cast<double>(total)
                    : 0.0;
    } else {
      // Hour-or-coarser predicates decompose into whole buckets.
      est.cache_servable_fraction = 1.0;
    }
  }

  // Decode bytes and the admission score. The per-block payload split is
  // not exported, so any decode bounds to the full stored footprint.
  est.bytes_decoded = EstInterval{
      0, est.blocks_decoded.hi > 0 ? static_cast<int64_t>(st.stored_bytes)
                                   : 0};
  est.cost = static_cast<double>(est.bytes_decoded.hi) +
             32.0 * static_cast<double>(est.rows_scanned.hi) +
             16.0 * static_cast<double>(est.tuples.hi);

  StageEstimate mi_stage;
  mi_stage.name = "moft_intersect";
  mi_stage.attrs.emplace_back("moft", mo->moft);
  mi_stage.attrs.emplace_back("rows_scanned", est.rows_scanned.ToString());
  mi_stage.attrs.emplace_back("tuples", est.tuples.ToString());
  mi_stage.attrs.emplace_back("blocks", est.blocks.ToString());
  mi_stage.attrs.emplace_back("blocks_skipped",
                              est.blocks_skipped.ToString());
  mi_stage.attrs.emplace_back("blocks_decoded",
                              est.blocks_decoded.ToString());
  mi_stage.attrs.emplace_back("cache_servable",
                              est.cache_servable ? "yes" : "no");
  if (est.cache_servable) {
    mi_stage.attrs.emplace_back(
        "fraction", FormatFraction(est.cache_servable_fraction));
  }
  est.stages.push_back(std::move(mi_stage));

  StageEstimate agg_stage;
  agg_stage.name = "aggregate";
  agg_stage.attrs.emplace_back("kind", core::gamma::Name(mo->agg.kind));
  if (mo->group_by_level) {
    agg_stage.attrs.emplace_back("group_by", *mo->group_by_level);
  }
  agg_stage.attrs.emplace_back("result_rows", est.result_rows.ToString());
  est.stages.push_back(std::move(agg_stage));

  return est;
}

std::string ResourceEstimate::ToString() const {
  std::ostringstream os;
  os << "estimate (clause=" << clause << ")\n";
  for (const StageEstimate& stage : stages) {
    os << "  " << stage.name;
    for (size_t pad = stage.name.size(); pad < 15; ++pad) {
      os << ' ';
    }
    for (const auto& [key, value] : stage.attrs) {
      os << ' ' << key << '=' << value;
    }
    os << '\n';
  }
  os << "cost ~ " << static_cast<long long>(std::llround(cost))
     << " (bytes_decoded=" << bytes_decoded.ToString() << ")";
  return os.str();
}

AdmissionBudget AdmissionBudget::FromEnv() {
  AdmissionBudget budget;
  if (const char* v = std::getenv("PIET_EST_MAX_ROWS")) {
    budget.max_rows_scanned = std::strtoll(v, nullptr, 10);
  }
  if (const char* v = std::getenv("PIET_EST_MAX_BLOCKS")) {
    budget.max_blocks_decoded = std::strtoll(v, nullptr, 10);
  }
  if (const char* v = std::getenv("PIET_EST_MAX_COST")) {
    budget.max_cost = std::strtod(v, nullptr);
  }
  return budget;
}

std::string_view AdmissionVerdictToString(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAccept:
      return "accept";
    case AdmissionVerdict::kWarn:
      return "warn";
    case AdmissionVerdict::kReject:
      return "reject";
  }
  return "accept";
}

AdmissionDecision Admit(const ResourceEstimate& est,
                        const AdmissionBudget& budget) {
  AdmissionDecision decision;
  auto check = [&decision](double lo, double hi, double max,
                           const char* check_id, const char* metric,
                           const std::string& interval) {
    if (max <= 0.0) {
      return;
    }
    if (lo <= max && hi <= max) {
      return;
    }
    std::string message = "estimated ";
    message.append(metric);
    message.push_back(' ');
    message.append(interval);
    message.append(lo > max ? " provably exceeds the budget of "
                            : " may exceed the budget of ");
    message.append(std::to_string(static_cast<long long>(max)));
    if (lo > max) {
      decision.verdict = AdmissionVerdict::kReject;
      decision.diagnostics.AddError(check_id, "mo part", std::move(message));
    } else {
      if (decision.verdict == AdmissionVerdict::kAccept) {
        decision.verdict = AdmissionVerdict::kWarn;
      }
      decision.diagnostics.AddWarning(check_id, "mo part",
                                      std::move(message));
    }
  };
  check(static_cast<double>(est.rows_scanned.lo),
        static_cast<double>(est.rows_scanned.hi),
        static_cast<double>(budget.max_rows_scanned), "lint-est-budget-rows",
        "rows_scanned", est.rows_scanned.ToString());
  check(static_cast<double>(est.blocks_decoded.lo),
        static_cast<double>(est.blocks_decoded.hi),
        static_cast<double>(budget.max_blocks_decoded),
        "lint-est-budget-blocks", "blocks_decoded",
        est.blocks_decoded.ToString());
  // The lower cost score, from the lower bounds, decides provability.
  const double cost_lo = static_cast<double>(est.bytes_decoded.lo) +
                         32.0 * static_cast<double>(est.rows_scanned.lo) +
                         16.0 * static_cast<double>(est.tuples.lo);
  std::string cost_str = "~";
  cost_str.append(
      std::to_string(static_cast<long long>(std::llround(est.cost))));
  check(cost_lo, est.cost, budget.max_cost, "lint-est-budget-cost", "cost",
        cost_str);
  return decision;
}

std::vector<std::string> AllEstimateCheckIds() {
  return {"lint-est-budget-blocks", "lint-est-budget-cost",
          "lint-est-budget-rows"};
}

}  // namespace piet::analysis::estimate
