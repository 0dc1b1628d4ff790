#ifndef PIET_ANALYSIS_QUERY_CHECK_H_
#define PIET_ANALYSIS_QUERY_CHECK_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "core/pietql/ast.h"
#include "gis/instance.h"

namespace piet::analysis {

/// What the Piet-QL semantic analyzer resolves names against: the GIS
/// dimension instance (layers, schemas, attributes) and the registered MOFT
/// names. Built by the evaluator from its database; kept as a narrow view so
/// the analysis library stays below core in the dependency order.
struct QueryContext {
  const gis::GisDimensionInstance* gis = nullptr;
  std::vector<std::string> moft_names;

  /// The named layer; null without a GIS or when no layer has that name.
  const gis::Layer* FindLayer(const std::string& name) const;
};

/// Walks a parsed Piet-QL query before evaluation and reports semantic
/// errors the parser cannot see. Check-ID catalog (stable; see DESIGN.md):
///
///   query-unknown-layer      SELECT/WHERE/NEAR names a layer not in the GIS
///   query-unknown-moft       the MO part names an unregistered MOFT
///   query-unknown-attribute  ATTR names an attribute bound nowhere
///   query-attr-type-mismatch ATTR compares a literal against values of an
///                            incompatible type (string vs numeric)
///   query-unknown-time-level TIME.<level> / GROUP BY TIME.<level> names a
///                            level absent from the Time dimension
///   query-rollup-edge        a spatial MO condition rolls samples up along
///                            a point->polygon edge absent from H(L) of the
///                            result layer
///   query-conflicting-conditions  INSIDE RESULT / PASSES THROUGH RESULT /
///                            NEAR are not mutually exclusive in the query
///   query-layer-kind         NEAR names a non-point/node layer
///
/// Every diagnostic's entity names the offending clause (e.g. "geo WHERE
/// clause 2"), so strict-mode rejections point at the exact construct.
DiagnosticList AnalyzeQuery(const QueryContext& context,
                            const core::pietql::Query& query);

/// The entity of geo WHERE clause `index` (0-based) in every query
/// diagnostic, e.g. "geo WHERE clause 2 (ATTR layer.Ln, income)"; the
/// analyzer and the linter share it so both point at a clause alike.
std::string GeoClauseEntity(size_t index,
                            const core::pietql::GeoCondition& cond);

/// The entity of mo WHERE clause `index` (0-based): "mo WHERE clause 3".
std::string MoClauseEntity(size_t index);

}  // namespace piet::analysis

#endif  // PIET_ANALYSIS_QUERY_CHECK_H_
