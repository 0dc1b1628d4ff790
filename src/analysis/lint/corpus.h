#ifndef PIET_ANALYSIS_LINT_CORPUS_H_
#define PIET_ANALYSIS_LINT_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/estimate/estimate.h"
#include "analysis/lint/schema_lint.h"
#include "common/result.h"
#include "gis/instance.h"
#include "moving/moft.h"

namespace piet::analysis::lint {

/// One `.lint` corpus case: a raw schema model (possibly defective), the
/// Piet-QL queries to lint against it, and the exact set of check IDs the
/// linter must report. Format — one whitespace-separated directive per
/// line, `#` comments:
///
///   layer <name> <kind>                       declare a layer
///   graph <layer> <fine>-><coarse> ...        raw H(L) edges (may be cyclic)
///   elem <layer> <WKT>                        add an element (POINT /
///                                             LINESTRING / POLYGON)
///   attrval <layer> <id> <name> <t:value>     element attribute
///                                             (t in i/d/s/b, as gis/io)
///   ids <layer> <kind> <id>...                declare a level universe
///   attr <name> <kind> <layer>                Att binding
///   rollup <layer> <fine> <coarse> <f>:<c>... stored rollup pairs
///   alpha <attr> <t:value> <geomId>           one alpha pair
///   fact <name> <layer> <kind> [<id>...]      fact table coverage (Def. 4)
///   moft <name>                               register a MOFT name
///   query <verbatim Piet-QL>                  a query to lint
///   expect <check-id> ...                     expected finding IDs
///   expect-rewrite <rule-id> ...              expected rw-* rule IDs
///                                             FixQuery applies over the
///                                             case's queries
///   expect-estimate q<N> <metric> <lo> <hi>   the static estimator's
///                                             interval for <metric> on the
///                                             case's N-th query (1-based)
///                                             must lie inside [lo, hi];
///                                             metrics: rows_scanned,
///                                             tuples, blocks,
///                                             blocks_skipped,
///                                             blocks_decoded, result_rows,
///                                             region_ids
///
/// Parse errors carry a `<case-name>:<line>:` prefix naming the offending
/// directive line. Layers with elements implicitly declare the universe of
/// their own kind.
/// One `expect-estimate` assertion: the estimator's computed interval for
/// `metric` on query `query_index` must be contained in [lo, hi]
/// (containment, not equality — corpus bounds stay stable while the
/// estimator tightens).
struct EstimateExpectation {
  size_t query_index = 0;  ///< 0-based; the directive counts from q1.
  std::string metric;
  int64_t lo = 0;
  int64_t hi = 0;
};

struct CorpusCase {
  std::string name;
  SchemaModel model;
  std::vector<std::string> queries;
  std::vector<std::string> expected_ids;  ///< Sorted, unique.
  /// Sorted, unique rw-* IDs from `expect-rewrite` directives. Meaningful
  /// only when `expect_rewrite_set` — an absent directive leaves the
  /// fix-its unconstrained, while a present-but-empty one asserts no rule
  /// fires.
  std::vector<std::string> expected_rewrite_ids;
  bool expect_rewrite_set = false;
  /// `expect-estimate` assertions, in directive order.
  std::vector<EstimateExpectation> estimate_expectations;
  /// A live instance for query linting, built when the schema is clean
  /// enough for the gis API to accept it; null for schema-defect cases
  /// (their queries are skipped).
  std::shared_ptr<gis::GisDimensionInstance> instance;
  std::vector<std::string> moft_names;
};

Result<CorpusCase> ParseCorpusText(std::string name, std::string_view text);
Result<CorpusCase> ParseCorpusFile(const std::string& path);

/// Lints one case: LintSchema over the raw model, then per query Parse
/// (failures become lint-parse-error) + AnalyzeQuery + LintQuery when an
/// instance is available.
DiagnosticList LintCase(const CorpusCase& c);

/// OK when the distinct check-ID set of `found` equals the case's expected
/// set exactly; otherwise InvalidArgument naming the missing / unexpected
/// IDs. An absent `expect` directive means the case must lint clean.
Status CheckExpectations(const CorpusCase& c, const DiagnosticList& found);

/// OK when `expect-rewrite` is absent, or when the distinct rw-* rule IDs
/// FixQuery applies across the case's parseable queries (none for a
/// schema-defect case, like LintCase) equal the expected set exactly;
/// otherwise InvalidArgument naming the missing / unexpected rule IDs.
Status CheckRewriteExpectations(const CorpusCase& c);

/// The deterministic MOFT every corpus `moft <name>` resolves to when
/// estimating: 8 objects, object o starting at kCorpusMoftBase + o * 1800 s
/// and sampling every 300 s for 6 hours (72 samples each, 576 rows total),
/// positions walking the [0, 100)^2 square; sealed into 64-row compressed
/// blocks, which closes one block per object span. Gives `expect-estimate`
/// cases real zonemaps, a real tier and a real block directory to bound.
moving::Moft CorpusEstimateMoft();

/// Absolute time base of CorpusEstimateMoft (2026-01-06 00:00:00 UTC).
inline constexpr double kCorpusMoftBase = 1767657600.0;

/// The estimator's result for the case's `query_index`-th query, against
/// the corpus catalog: the case's instance, a quadtree overlay over its
/// polygon layers, CorpusEstimateMoft for every declared MOFT name, and
/// the aggregate cache on. Fails on schema-defect cases, unparseable
/// queries and out-of-range indices.
Result<estimate::ResourceEstimate> EstimateForCase(const CorpusCase& c,
                                                   size_t query_index);

/// OK when every `expect-estimate` interval contains the computed one;
/// otherwise InvalidArgument naming the case, query, metric and both
/// intervals.
Status CheckEstimateExpectations(const CorpusCase& c);

}  // namespace piet::analysis::lint

#endif  // PIET_ANALYSIS_LINT_CORPUS_H_
