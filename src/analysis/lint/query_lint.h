#ifndef PIET_ANALYSIS_LINT_QUERY_LINT_H_
#define PIET_ANALYSIS_LINT_QUERY_LINT_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/query_check.h"
#include "core/pietql/ast.h"

namespace piet::analysis::lint {

/// The one static analysis of a Piet-QL query: an abstract-interpretation
/// walk over the parsed query and the loaded schema, without evaluating
/// anything. The geometric part flows a shrinking over-approximate
/// satisfying id set through the WHERE conjunction; the moving-object part
/// folds its time clauses into the TimeAbstract domain and checks its
/// spatial clauses. Because every abstract step over-approximates, each
/// fact is a proof: a dead clause really matches nothing, an empty region
/// really selects nothing. Two entry points read the same walk: LintQuery
/// renders its facts as diagnostics, FixQuery applies the edits they
/// justify.
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
