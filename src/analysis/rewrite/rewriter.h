#ifndef PIET_ANALYSIS_REWRITE_REWRITER_H_
#define PIET_ANALYSIS_REWRITE_REWRITER_H_

#include <string>
#include <vector>

#include "core/pietql/ast.h"
#include "gis/instance.h"

namespace piet::analysis::rewrite {

/// What the rewriter may look at. Like the linter it reasons against the
/// schema *instance*.
struct RewriteContext {
  const gis::GisDimensionInstance* gis = nullptr;
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
/// the input; `geo_zero` / `mo_zero` are emptiness proofs: the geometric
/// part (resp. the moving-object tuple scan) is statically known to
/// produce zero rows. The rewriter abstains from proofs that would
/// suppress an evaluation error.
struct RewritePlan {
  core::pietql::Query query;
  bool geo_zero = false;
  bool mo_zero = false;
  std::vector<AppliedRewrite> applied;

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
///                             most selective first (exact ATTR before
///                             spatial, ascending bbox selectivity)
std::vector<std::string> AllRewriteRuleIds();

/// Rewrites `query` under the exactness contract above. Never fails: when a
/// rule's preconditions do not hold the rule simply does not fire, and the
/// returned plan carries the query unchanged.
RewritePlan RewriteQuery(const RewriteContext& context,
                         const core::pietql::Query& query);

}  // namespace piet::analysis::rewrite

#endif  // PIET_ANALYSIS_REWRITE_REWRITER_H_
