#ifndef PIET_ANALYSIS_ESTIMATE_ESTIMATE_H_
#define PIET_ANALYSIS_ESTIMATE_ESTIMATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/result.h"
#include "core/pietql/ast.h"
#include "gis/instance.h"
#include "gis/overlay.h"
#include "moving/moft.h"

namespace piet::analysis::estimate {

/// Whether the evaluator runs the static resource estimator before
/// execution. kOff keeps the evaluation pipeline byte-identical to the
/// pre-estimator engine; kOn derives a ResourceEstimate per query, exports
/// it as an `estimate` trace span / flight-recorder fields, and applies the
/// admission budget. Resolved from PIET_ESTIMATE by default.
enum class EstimateMode {
  kOff = 0,
  kOn,
};

/// PIET_ESTIMATE unset / "0" / "off" / "false" -> kOff; else -> kOn.
EstimateMode EstimateModeFromEnv();

/// A closed integer interval [lo, hi]. The estimator's soundness contract:
/// for every emitted interval, the corresponding runtime counter of a
/// successfully evaluated query lies inside it.
struct EstInterval {
  int64_t lo = 0;
  int64_t hi = 0;

  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  bool exact() const { return lo == hi; }

  /// "[lo,hi]".
  std::string ToString() const;
};

/// What the estimator may look at: schema instance (layer element counts,
/// attribute tables, R-tree candidates), the optional overlay (cache
/// coverage), per-MOFT storage statistics (rows, per-block zonemaps,
/// tier), and whether the evaluator's aggregate cache may serve the query.
struct Catalog {
  const gis::GisDimensionInstance* gis = nullptr;
  const gis::OverlayDb* overlay = nullptr;
  /// Layer names the overlay covers (OverlayLayerIndex would resolve).
  std::vector<std::string> overlay_layers;
  std::map<std::string, moving::MoftCatalogStats> mofts;
  bool agg_cache_on = false;
};

/// One line of the estimate tree: a stage name mirroring the
/// EXPLAIN ANALYZE span taxonomy (geo_filter / moft_intersect / aggregate)
/// and its rendered attributes, in emission order.
struct StageEstimate {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Sound static resource bounds for one Piet-QL query, derived by abstract
/// interpretation of the (rewritten) plan against the Catalog — no MOFT
/// row is read and no block is decoded. Intervals bracket the counters the
/// flight recorder observes for a successful evaluation of the same query
/// under the same modes; a query the evaluator statically must reject
/// estimates to all-zero intervals (an errored query scans nothing).
struct ResourceEstimate {
  /// Mirrors the moft_intersect span's clause attribute:
  /// inside_result / passes_through / near / time_only; "none" for a
  /// geo-only query, "error" when evaluation is statically known to fail.
  std::string clause;

  EstInterval region_ids;     ///< Result-layer geometries after geo WHERE.
  bool region_exact = false;  ///< region_ids derived without spatial
                              ///< over-approximation.

  EstInterval rows_scanned;    ///< moft_intersect rows_scanned.
  EstInterval tuples;          ///< Qualifying (Oid, t) tuples.
  EstInterval blocks;          ///< Blocks in the store (attr `blocks`).
  EstInterval blocks_skipped;  ///< Zonemap whole-block skips.
  EstInterval blocks_decoded;  ///< Codec decodes within the query.
  EstInterval result_rows;     ///< Output rows (geometries / scalar /
                               ///< GROUP BY groups).
  EstInterval bytes_decoded;   ///< Payload bytes behind blocks_decoded.

  bool cache_servable = false;  ///< The aggregate-cache serve path may
                                ///< answer without a full scan.
  double cache_servable_fraction = 0.0;  ///< Fraction of touched hour
                                         ///< buckets servable from
                                         ///< partials (1.0 = all).

  /// Scalar admission score from the upper bounds:
  ///   cost = bytes_decoded.hi + 32 * rows_scanned.hi + 16 * tuples.hi
  double cost = 0.0;

  std::vector<StageEstimate> stages;

  /// Deterministic estimate tree mirroring the EXPLAIN ANALYZE span
  /// layout, one stage per line, `cost ~ N` as the footer (golden-tested).
  std::string ToString() const;
};

/// Derives the ResourceEstimate for `query` against `catalog`, mirroring
/// the evaluator's execution of the query as written. Fails only on a
/// null catalog.gis; statically-doomed queries succeed with clause
/// "error" and all-zero intervals.
Result<ResourceEstimate> EstimateQuery(const Catalog& catalog,
                                       const core::pietql::Query& query);

/// Admission budget for the verdict API. 0 (or <= 0) on any axis means
/// unlimited on that axis.
struct AdmissionBudget {
  int64_t max_rows_scanned = 0;
  int64_t max_blocks_decoded = 0;
  double max_cost = 0.0;

  bool any() const {
    return max_rows_scanned > 0 || max_blocks_decoded > 0 || max_cost > 0.0;
  }

  /// PIET_EST_MAX_ROWS / PIET_EST_MAX_BLOCKS / PIET_EST_MAX_COST.
  static AdmissionBudget FromEnv();
};

enum class AdmissionVerdict {
  kAccept = 0,  ///< Every upper bound fits the budget.
  kWarn,        ///< An upper bound exceeds the budget but the lower bound
                ///< does not — the query *may* blow it.
  kReject,      ///< A lower bound exceeds the budget — the query provably
                ///< blows it.
};

std::string_view AdmissionVerdictToString(AdmissionVerdict verdict);

/// The verdict plus one lint-est-* diagnostic per blown bound (Severity
/// kError for provable violations, kWarning for possible ones), naming the
/// metric, the interval and the budget.
struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAccept;
  DiagnosticList diagnostics;
};

/// Checks the estimate against the budget. Unlimited axes never fire.
AdmissionDecision Admit(const ResourceEstimate& est,
                        const AdmissionBudget& budget);

/// The stable admission check-ID catalog, sorted:
///   lint-est-budget-blocks  blocks_decoded bound exceeds PIET_EST_MAX_BLOCKS
///   lint-est-budget-cost    cost score exceeds PIET_EST_MAX_COST
///   lint-est-budget-rows    rows_scanned bound exceeds PIET_EST_MAX_ROWS
std::vector<std::string> AllEstimateCheckIds();

}  // namespace piet::analysis::estimate

#endif  // PIET_ANALYSIS_ESTIMATE_ESTIMATE_H_
