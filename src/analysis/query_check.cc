#include "analysis/query_check.h"

#include <optional>
#include <string>

#include "gis/layer.h"
#include "temporal/time_dimension.h"
#include "temporal/time_point.h"

namespace piet::analysis {

namespace pietql = core::pietql;
using gis::GeometryKind;
using gis::Layer;

namespace {

/// Coarse type classes for ATTR / TIME literal compatibility: int and double
/// compare fine against each other, everything else must match exactly.
enum class TypeClass { kNumeric, kString, kBool, kNull };

TypeClass ClassOf(const Value& v) {
  if (v.is_numeric()) {
    return TypeClass::kNumeric;
  }
  if (v.is_string()) {
    return TypeClass::kString;
  }
  if (v.is_bool()) {
    return TypeClass::kBool;
  }
  return TypeClass::kNull;
}

std::string_view ClassName(TypeClass c) {
  switch (c) {
    case TypeClass::kNumeric:
      return "numeric";
    case TypeClass::kString:
      return "string";
    case TypeClass::kBool:
      return "bool";
    case TypeClass::kNull:
      return "null";
  }
  return "unknown";
}

void CheckLayerExists(const QueryContext& context, const std::string& name,
                      const std::string& entity, DiagnosticList* out) {
  if (context.FindLayer(name) == nullptr) {
    out->AddError("query-unknown-layer", entity,
                  "layer '" + name + "' is not registered in the GIS "
                  "dimension instance");
  }
}

void CheckAttrCondition(const QueryContext& context,
                        const pietql::GeoCondition& cond,
                        const std::string& entity, DiagnosticList* out) {
  const Layer* layer = context.FindLayer(cond.a.name);
  if (layer == nullptr) {
    return;  // Already reported as query-unknown-layer.
  }

  bool bound_in_schema =
      context.gis->schema().AttOf(cond.attribute).ok();
  std::optional<Value> witness;
  for (gis::GeometryId id : layer->ids()) {
    if (layer->HasAttribute(id, cond.attribute)) {
      auto value = layer->GetAttribute(id, cond.attribute);
      if (value.ok()) {
        witness = value.ValueOrDie();
      }
      break;
    }
  }

  if (!bound_in_schema && !witness.has_value()) {
    out->AddError("query-unknown-attribute", entity,
                  "attribute '" + cond.attribute + "' is neither bound in "
                  "the schema (Att) nor present on any element of layer '" +
                      cond.a.name + "'");
    return;
  }
  if (witness.has_value()) {
    TypeClass have = ClassOf(*witness);
    TypeClass want = ClassOf(cond.literal);
    if (have != want && have != TypeClass::kNull &&
        want != TypeClass::kNull) {
      out->AddError(
          "query-attr-type-mismatch", entity,
          "attribute '" + cond.attribute + "' of layer '" + cond.a.name +
              "' holds " + std::string(ClassName(have)) +
              " values but the literal " + cond.literal.ToString() + " is " +
              std::string(ClassName(want)));
    }
  }
}

void CheckTimeLevel(const std::string& level, const Value* literal,
                    const std::string& entity, DiagnosticList* out) {
  if (!temporal::TimeDimension::HasLevel(level)) {
    out->AddError("query-unknown-time-level", entity,
                  "'" + level + "' is not a level of the Time dimension");
    return;
  }
  if (literal != nullptr) {
    // The level's member domain is computed; probe it with a representative
    // rollup to learn the domain's type.
    temporal::TimeDimension time;
    auto member = time.Rollup(level, temporal::TimePoint(0.0));
    if (member.ok()) {
      TypeClass have = ClassOf(member.ValueOrDie());
      TypeClass want = ClassOf(*literal);
      if (have != want) {
        out->AddError("query-attr-type-mismatch", entity,
                      "TIME." + level + " members are " +
                          std::string(ClassName(have)) + " but the literal " +
                          literal->ToString() + " is " +
                          std::string(ClassName(want)));
      }
    }
  }
}

void CheckSpatialRollup(const QueryContext& context,
                        const std::string& result_layer,
                        const std::string& condition_name,
                        const std::string& entity, DiagnosticList* out) {
  const Layer* layer = context.FindLayer(result_layer);
  if (layer == nullptr) {
    return;  // Already reported against the SELECT clause.
  }
  // The MO aggregation rolls point samples up to the result layer's
  // geometries — the computed rollup r^{Pt,polygon}_L. That requires the
  // point->polygon path in H(L) and a polygon-kind layer.
  bool edge_ok = layer->kind() == GeometryKind::kPolygon;
  if (edge_ok) {
    auto graph = context.gis->schema().GraphOf(result_layer);
    edge_ok = graph.ok() &&
              graph.ValueOrDie()->HasNode(GeometryKind::kPolygon) &&
              graph.ValueOrDie()->RollsUp(GeometryKind::kPoint,
                                          GeometryKind::kPolygon);
  }
  if (!edge_ok) {
    out->AddError(
        "query-rollup-edge", entity,
        condition_name + " rolls samples up along point->polygon, an edge "
        "absent from H(L) of result layer '" + result_layer + "' (kind '" +
            std::string(gis::GeometryKindToString(layer->kind())) + "')");
  }
}

}  // namespace

std::string GeoClauseEntity(size_t index, const pietql::GeoCondition& cond) {
  using Kind = pietql::GeoCondition::Kind;
  const std::string entity =
      "geo WHERE clause " + std::to_string(index + 1) + " (";
  if (cond.kind == Kind::kAttrCompare) {
    return entity + "ATTR layer." + cond.a.name + ", " + cond.attribute + ")";
  }
  return entity +
         (cond.kind == Kind::kIntersection ? "INTERSECTION" : "CONTAINS") +
         " layer." + cond.a.name + ", layer." + cond.b.name + ")";
}

std::string MoClauseEntity(size_t index) {
  return "mo WHERE clause " + std::to_string(index + 1);
}

const Layer* QueryContext::FindLayer(const std::string& name) const {
  if (gis == nullptr) {
    return nullptr;
  }
  auto layer = gis->GetLayer(name);
  return layer.ok() ? layer.ValueOrDie() : nullptr;
}

DiagnosticList AnalyzeQuery(const QueryContext& context,
                            const pietql::Query& query) {
  DiagnosticList out;
  if (context.gis == nullptr) {
    out.AddError("query-unknown-layer", "query",
                 "no GIS dimension instance to resolve layers against");
    return out;
  }

  for (const pietql::LayerRef& ref : query.geo.select) {
    CheckLayerExists(context, ref.name, "SELECT layer." + ref.name, &out);
  }

  for (size_t i = 0; i < query.geo.where.size(); ++i) {
    const pietql::GeoCondition& cond = query.geo.where[i];
    const std::string entity = GeoClauseEntity(i, cond);
    CheckLayerExists(context, cond.a.name, entity, &out);
    if (cond.kind == pietql::GeoCondition::Kind::kAttrCompare) {
      CheckAttrCondition(context, cond, entity, &out);
    } else {
      CheckLayerExists(context, cond.b.name, entity, &out);
    }
  }

  if (!query.mo) {
    return out;
  }
  const pietql::MoQuery& mo = *query.mo;

  bool moft_known = false;
  for (const std::string& name : context.moft_names) {
    if (name == mo.moft) {
      moft_known = true;
      break;
    }
  }
  if (!moft_known) {
    out.AddError("query-unknown-moft", "mo FROM " + mo.moft,
                 "MOFT '" + mo.moft + "' is not registered in the database");
  }

  const std::string result_layer =
      query.geo.select.empty() ? std::string() : query.geo.select.front().name;

  int spatial_modes = 0;
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pietql::MoCondition& cond = mo.where[i];
    const std::string entity = MoClauseEntity(i);
    switch (cond.kind) {
      case pietql::MoCondition::Kind::kInsideResult:
        ++spatial_modes;
        CheckSpatialRollup(context, result_layer, "INSIDE RESULT",
                           entity + " (INSIDE RESULT)", &out);
        break;
      case pietql::MoCondition::Kind::kPassesThroughResult:
        ++spatial_modes;
        CheckSpatialRollup(context, result_layer, "PASSES THROUGH RESULT",
                           entity + " (PASSES THROUGH RESULT)", &out);
        break;
      case pietql::MoCondition::Kind::kTimeEquals:
        CheckTimeLevel(cond.time_level, &cond.literal,
                       entity + " (TIME." + cond.time_level + ")", &out);
        break;
      case pietql::MoCondition::Kind::kTimeBetween:
        // Inverted windows are a dead-clause finding: the abstract-domain
        // linter reports them as lint-dead-clause with a swap fix-it.
        break;
      case pietql::MoCondition::Kind::kNearLayer: {
        ++spatial_modes;
        std::string near_entity =
            entity + " (NEAR layer." + cond.near_layer + ")";
        CheckLayerExists(context, cond.near_layer, near_entity, &out);
        const Layer* near = context.FindLayer(cond.near_layer);
        if (near != nullptr && near->kind() != GeometryKind::kNode &&
            near->kind() != GeometryKind::kPoint) {
          out.AddError("query-layer-kind", near_entity,
                       "NEAR needs a point/node layer; '" + cond.near_layer +
                           "' holds kind '" +
                           std::string(gis::GeometryKindToString(
                               near->kind())) + "'");
        }
        break;
      }
    }
  }
  if (spatial_modes > 1) {
    out.AddError("query-conflicting-conditions", "mo WHERE clauses",
                 "INSIDE RESULT, PASSES THROUGH RESULT and NEAR are "
                 "mutually exclusive");
  }

  if (mo.group_by_level) {
    CheckTimeLevel(*mo.group_by_level, nullptr,
                   "GROUP BY TIME." + *mo.group_by_level, &out);
  }
  return out;
}

}  // namespace piet::analysis
