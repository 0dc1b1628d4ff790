#ifndef PIET_ANALYSIS_REWRITE_REWRITER_H_
#define PIET_ANALYSIS_REWRITE_REWRITER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/pietql/ast.h"
#include "gis/instance.h"
#include "gis/overlay.h"

namespace piet::analysis::rewrite {

/// Whether the evaluator runs the static plan rewriter. kOff keeps the
/// evaluation pipeline byte-identical to the un-rewritten path; kOn applies
/// every rule of the rw-* catalog. Resolved from PIET_REWRITE by default.
enum class RewriteMode {
  kOff = 0,
  kOn,
};

/// PIET_REWRITE unset / "0" / "off" / "false" -> kOff; anything else -> kOn.
RewriteMode RewriteModeFromEnv();

/// What the rewriter may look at. Like the linter it reasons against the
/// schema *instance*; the optional overlay refines spatial selectivity
/// estimates (cell-count coverage) but never affects correctness.
struct RewriteContext {
  const gis::GisDimensionInstance* gis = nullptr;
  const gis::OverlayDb* overlay = nullptr;
  /// True when the evaluator's (overlay cell × hour bucket) aggregate
  /// cache is live: the selectivity model then prefers spatial clauses
  /// whose layer the overlay covers (cache-servable, cheaper per
  /// candidate) over spatial clauses it would have to test geometrically.
  /// With the flag off every spatial clause shares one cost class, so
  /// plans are byte-identical to the pre-cache rewriter.
  bool agg_cache = false;
};

/// One applied rewrite: the stable rule id (rw-*, mirroring the lint-*
/// scheme), the clause or query part it anchored on, and a human-readable
/// explanation.
struct AppliedRewrite {
  std::string rule_id;
  std::string entity;
  std::string detail;
};

/// The rewritten plan. `query` is always evaluable and result-identical to
/// the input; `geo_zero` / `mo_zero` are short-circuit proofs: the
/// geometric part (resp. the moving-object tuple scan) is statically known
/// to produce zero rows, so the evaluator may skip the corresponding loops
/// outright — every validation the un-rewritten evaluator performs still
/// applies (the rewriter abstains from proofs that would suppress an
/// evaluation error).
struct RewritePlan {
  core::pietql::Query query;
  bool geo_zero = false;
  bool mo_zero = false;
  std::vector<AppliedRewrite> applied;
  size_t geo_clauses_before = 0;
  size_t geo_clauses_after = 0;
  size_t mo_clauses_before = 0;
  size_t mo_clauses_after = 0;

  bool changed() const { return !applied.empty(); }

  /// One line per applied rule: "rule-id entity: detail".
  std::string ToString() const;
};

/// The stable rule-id catalog, sorted (golden-tested like AllLintCheckIds):
///   rw-contradictory-spatial  NEAR with negative radius / empty node layer,
///                             or INSIDE/PASSES THROUGH a provably empty
///                             region -> zero-tuple short circuit
///   rw-drop-redundant-clause  exact geo ATTR clause implied by the flowed
///                             candidate set; TIME.all = 'all'; a T BETWEEN
///                             implied by another (one window is the
///                             intersection of all)
///   rw-empty-region           geo WHERE conjunction provably selects no
///                             geometry -> constant empty id list
///   rw-empty-time             mo time conjunction provably matches no
///                             instant -> zero-tuple short circuit
///   rw-fold-time-window       absolute TIME.<level> = literal constraints
///                             and several T BETWEEN windows fold into a
///                             single T BETWEEN window, enabling the
///                             sorted-time window probe
///   rw-select-reorder         surviving geo clauses reordered cheapest /
///                             most selective first (ATTR before spatial,
///                             ascending estimated selectivity)
std::vector<std::string> AllRewriteRuleIds();

/// Rewrites `query` under the exactness contract above. Never fails: when a
/// rule's preconditions do not hold the rule simply does not fire, and the
/// returned plan carries the query unchanged.
RewritePlan RewriteQuery(const RewriteContext& context,
                         const core::pietql::Query& query);

}  // namespace piet::analysis::rewrite

#endif  // PIET_ANALYSIS_REWRITE_REWRITER_H_
