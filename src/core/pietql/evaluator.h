#ifndef PIET_CORE_PIETQL_EVALUATOR_H_
#define PIET_CORE_PIETQL_EVALUATOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/estimate/estimate.h"
#include "common/result.h"
#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/pietql/ast.h"
#include "obs/trace.h"
#include "olap/fact_table.h"

namespace piet::core::pietql {

/// The result of evaluating a Piet-QL query: the geometric part's
/// qualifying ids (of the result layer), plus — when a moving-object part
/// is present — either a scalar aggregate or a grouped table. In kWarn
/// check mode, semantic-analysis findings ride along in `diagnostics`.
struct QueryResult {
  std::string result_layer;
  std::vector<gis::GeometryId> geometry_ids;
  std::optional<Value> scalar;
  std::optional<olap::FactTable> table;
  analysis::DiagnosticList diagnostics;

  std::string ToString() const;
};

/// EXPLAIN ANALYZE output: the ordinary query result plus the span tree of
/// the evaluation that produced it (parse → analyze → geo_filter →
/// moft_intersect → aggregate, with per-stage attributes). `result` is
/// bit-identical to what Evaluate returns for the same query — profiling
/// only adds clock reads around the stages, never changes the data path.
struct ProfiledResult {
  QueryResult result;
  obs::SpanNode profile;
};

/// Evaluates Piet-QL queries against a GeoOlapDatabase, following the
/// Sec. 5 pipeline: the geometric part resolves to geometry identifiers,
/// which feed the moving-object part (trajectory-segment intersection
/// against the qualifying geometries). Every query runs exactly as
/// written; `pietql_lint --fix` offers the rw-* rewrites as fix-its.
///
/// With a check mode other than kOff, the Piet-QL semantic analyzer
/// (analysis::AnalyzeQuery) runs over the AST before evaluation: kStrict
/// rejects ill-formed queries with a diagnostic naming the offending
/// clause; kWarn downgrades the findings to warnings on the result. kOff
/// (the default) keeps evaluation byte-identical to the unchecked path.
class Evaluator {
 public:
  /// `db` must outlive the evaluator.
  explicit Evaluator(const GeoOlapDatabase* db,
                     analysis::CheckMode check_mode =
                         analysis::CheckMode::kOff)
      : db_(db), check_mode_(check_mode) {}

  void set_check_mode(analysis::CheckMode mode) { check_mode_ = mode; }
  analysis::CheckMode check_mode() const { return check_mode_; }

  /// The materialized (hit set × hour bucket) aggregate cache for the
  /// INSIDE RESULT aggregate branches. kOn serves hour-decomposable
  /// count/rate aggregates from the database's cached partials — full
  /// buckets from the materialized counts, fringe buckets row by row —
  /// bit-identical to kOff, which always runs the tuple scan. Defaults to
  /// the PIET_AGG_CACHE environment knob.
  void set_agg_cache_mode(aggcache::AggCacheMode mode) {
    agg_cache_mode_ = mode;
  }
  aggcache::AggCacheMode agg_cache_mode() const { return agg_cache_mode_; }

  /// The static resource estimator (analysis::estimate). kOn derives a
  /// sound ResourceEstimate between analyze and geo_filter, exports it as
  /// an `estimate` span (and flight-recorder fields), and applies the
  /// admission budget: provably-over-budget queries are rejected with
  /// lint-est-* diagnostics before any row is scanned; possibly-over
  /// queries evaluate with a warning attached. With an empty budget the
  /// evaluated result is byte-identical to kOff. Defaults to the
  /// PIET_ESTIMATE environment knob.
  void set_estimate_mode(analysis::estimate::EstimateMode mode) {
    estimate_mode_ = mode;
  }
  analysis::estimate::EstimateMode estimate_mode() const {
    return estimate_mode_;
  }

  /// Admission budget for estimate mode. Defaults to the
  /// PIET_EST_MAX_ROWS / PIET_EST_MAX_BLOCKS / PIET_EST_MAX_COST knobs.
  void set_admission_budget(const analysis::estimate::AdmissionBudget& b) {
    budget_ = b;
  }
  const analysis::estimate::AdmissionBudget& admission_budget() const {
    return budget_;
  }

  /// Worker threads for the moving-object branches (time-only, INSIDE
  /// RESULT, NEAR, PASSES THROUGH): > 0 is explicit, 0 (default) resolves through the
  /// PIET_THREADS environment variable. Results are bit-identical to
  /// `threads = 1` for every thread count.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  Result<QueryResult> Evaluate(const Query& query) const;

  /// Parses and evaluates in one step.
  Result<QueryResult> EvaluateString(std::string_view text) const;

  /// EXPLAIN ANALYZE: evaluates exactly like Evaluate (bit-identical
  /// result) while recording a span tree of the pipeline stages. Profiling
  /// is explicit — it works regardless of the PIET_OBS gate (the collector
  /// is the gate; passive registry counters still honor PIET_OBS).
  Result<ProfiledResult> EvaluateProfiled(const Query& query) const;

  /// Parses (under a "parse" span) and profiles in one step.
  Result<ProfiledResult> EvaluateStringProfiled(std::string_view text) const;

  /// The static resource estimate for `query` against this evaluator's
  /// database and modes, without evaluating anything. Works regardless of
  /// estimate_mode (the mode only gates the in-pipeline stage).
  Result<analysis::estimate::ResourceEstimate> EstimateQuery(
      const Query& query) const;

  /// EXPLAIN ESTIMATE: parses `text` and renders the plan next to its
  /// estimate tree. Purely static — nothing is evaluated.
  Result<std::string> ExplainEstimate(std::string_view text) const;

 private:
  /// The one evaluation path: Evaluate passes a null collector (spans
  /// no-op), EvaluateProfiled passes a live one.
  Result<QueryResult> EvaluateImpl(const Query& query,
                                   obs::TraceCollector* trace) const;
  /// Evaluate with flight recording: while PIET_OBS is on and the flight
  /// recorder is active, runs EvaluateImpl under a collector and files the
  /// per-query resource record (extracted from the finished span tree)
  /// with obs::FlightRecorder::Global(); plain EvaluateImpl(query,
  /// nullptr) otherwise. `text` is the original query string when
  /// evaluated from text (nullptr means printer round-trip). Results are
  /// bit-identical either way.
  Result<QueryResult> EvaluateRecorded(const Query& query,
                                       const std::string* text) const;
  /// EvaluateImpl under `trace` (which may hold a parse span already):
  /// files the flight record as EvaluateRecorded does while the recorder is
  /// active, and returns the result with the finished span tree.
  Result<ProfiledResult> Profile(const Query& query, const std::string* text,
                                 obs::TraceCollector* trace) const;
  Result<std::vector<gis::GeometryId>> EvaluateGeoPart(
      const GeoQuery& geo, obs::TraceCollector* trace) const;
  Result<bool> ElementsIntersect(const gis::Layer& a, gis::GeometryId ida,
                                 const gis::Layer& b,
                                 gis::GeometryId idb) const;
  Result<bool> ElementContains(const gis::Layer& a, gis::GeometryId ida,
                               const gis::Layer& b, gis::GeometryId idb) const;
  /// The estimator's view of the database: schema instance, overlay
  /// coverage, the named MOFT's storage stats, and this evaluator's modes.
  analysis::estimate::Catalog BuildEstimateCatalog(const Query& query) const;

  const GeoOlapDatabase* db_;
  analysis::CheckMode check_mode_ = analysis::CheckMode::kOff;
  aggcache::AggCacheMode agg_cache_mode_ = aggcache::AggCacheModeFromEnv();
  analysis::estimate::EstimateMode estimate_mode_ =
      analysis::estimate::EstimateModeFromEnv();
  analysis::estimate::AdmissionBudget budget_ =
      analysis::estimate::AdmissionBudget::FromEnv();
  int num_threads_ = 0;
};

}  // namespace piet::core::pietql

#endif  // PIET_CORE_PIETQL_EVALUATOR_H_
