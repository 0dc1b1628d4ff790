#ifndef PIET_ANALYSIS_LINT_QUERY_LINT_H_
#define PIET_ANALYSIS_LINT_QUERY_LINT_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/query_check.h"
#include "core/pietql/ast.h"
#include "gis/layer.h"

namespace piet::analysis::lint {

/// The one static analysis of a Piet-QL query: an abstract-interpretation
/// walk over the parsed query and the loaded schema, without evaluating
/// anything. The geometric part flows a shrinking over-approximate
/// satisfying id set through the WHERE conjunction; the moving-object part
/// folds its time clauses into the TimeAbstract domain and checks its
/// spatial clauses. Because every abstract step over-approximates, each
/// fact is a proof: a dead clause really matches nothing, an empty region
/// really selects nothing. LintQuery renders the walks' facts as
/// diagnostics, FixQuery applies the edits they justify, and the static
/// estimator's geo_filter stage reads the geo walk (WalkGeo).
///
/// Check-ID catalog (stable; see DESIGN.md §11). Query findings are
/// warnings/notes — the query still evaluates, to an empty or trivial
/// result — so kStrict keeps accepting them:
///
///   lint-dead-clause          (warning) one clause matches no element /
///                             no instant by itself
///   lint-redundant-clause     (note) one clause provably filters nothing
///   lint-empty-region         (warning) the geo WHERE conjunction selects
///                             no geometry
///   lint-empty-time           (warning) the time conjunction is
///                             unsatisfiable though each clause alone is not
///   lint-contradictory-spatial (warning) a spatial MO condition can never
///                             hold (empty result region, empty NEAR layer,
///                             negative radius)
///   lint-fastpath-defeated    (note) mixing T BETWEEN with TIME.<level> =
///                             forces the row path instead of the
///                             SamplesMatchingTime binary-search fast path;
///                             its fix-it is FixQuery's rw-fold-time-window
///                             edit of the first foldable equality
///
/// Reuses the semantic analyzer's QueryContext; unknown layers/levels are
/// its findings and are skipped silently here.
DiagnosticList LintQuery(const QueryContext& context,
                         const core::pietql::Query& query);

/// What the geo walk proves about one geo WHERE clause.
struct GeoClause {
  bool exact = false;    ///< ATTR tests are exact; spatial ones use boxes.
  bool dead = false;     ///< No element of the layer satisfies it.
  bool implied = false;  ///< Exact, and every remaining candidate
                         ///< satisfies it.
  double selectivity = 1.0;  ///< |satisfying| / |layer|.
};

/// The geo-WHERE candidate flow: what LintQuery, FixQuery and the static
/// estimator's geo_filter stage read about the geometric part.
struct GeoFacts {
  const gis::Layer* layer = nullptr;  ///< Null: no select, or an unknown
                                      ///< result layer.
  std::vector<GeoClause> clauses;     ///< One per walked clause.
  bool foreign = false;  ///< A clause tests another layer's elements,
                         ///< which the evaluator rejects; the walk stopped
                         ///< there.
  bool abstained = false;     ///< Some clause's second layer is unknown.
  bool empty_region = false;  ///< The conjunction provably selects nothing.
  /// Sorted ids of the result layer that may survive the conjunction: a
  /// superset of the evaluator's answer, and exactly it when every clause
  /// is exact.
  std::vector<gis::GeometryId> candidates;
};

/// Flows the over-approximate satisfying id set through the geo WHERE
/// conjunction. Each clause's satisfying set is computed over the whole
/// layer: ATTR comparisons exactly, spatial clauses with the other layer's
/// R-tree candidates (a disjoint box proves the geometric test false, so
/// an empty set is still a proof), and CONTAINS over a non-polygon result
/// layer as exactly empty.
GeoFacts WalkGeo(const QueryContext& context,
                 const core::pietql::GeoQuery& geo);

/// Stable catalog of every lint check ID (query + schema groups), sorted —
/// golden-tested so renames are deliberate.
std::vector<std::string> AllLintCheckIds();

/// One edit FixQuery applied: the stable rule id (rw-*), the clause or
/// query part it anchored on, and what it did.
struct AppliedFix {
  std::string rule_id;
  std::string entity;
  std::string detail;
};

/// FixQuery's output: the edited query, which answers exactly like the
/// input, and the edits in the order they were applied.
struct FixedQuery {
  core::pietql::Query query;
  std::vector<AppliedFix> applied;
};

/// The stable rw-* rule-id catalog of FixQuery, sorted and golden-tested
/// like AllLintCheckIds; DESIGN.md §12 says what each rule edits.
std::vector<std::string> AllFixRuleIds();

/// The `pietql_lint --fix` edits of `query`. Applies only answer-preserving
/// edits and abstains wherever the evaluator reports an error (unknown or
/// foreign geo layer, PASSES THROUGH under a timeId/minute equality), so
/// the edited query answers exactly like the input, errors included. Never
/// fails: an edit whose preconditions do not hold is simply not applied.
FixedQuery FixQuery(const QueryContext& context,
                    const core::pietql::Query& query);

}  // namespace piet::analysis::lint

#endif  // PIET_ANALYSIS_LINT_QUERY_LINT_H_
