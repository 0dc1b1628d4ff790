#ifndef PIET_CORE_PIETQL_AST_H_
#define PIET_CORE_PIETQL_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/gamma.h"

namespace piet::core::pietql {

/// `layer.<name>` reference.
struct LayerRef {
  std::string name;
};

/// Comparison operators usable in ATTR conditions.
enum class CompareOp {
  kLt = 0,
  kGt,
  kLe,
  kGe,
  kEq,
};

/// `lhs op rhs` under Value's total order: the one ATTR comparison the
/// evaluator, the linter and the estimator all apply.
inline bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kGt:
      return rhs < lhs;
    case CompareOp::kLe:
      return !(rhs < lhs);
    case CompareOp::kGe:
      return !(lhs < rhs);
    case CompareOp::kEq:
      return lhs == rhs;
  }
  return false;
}

/// One condition of the geometric part.
struct GeoCondition {
  enum class Kind {
    kIntersection = 0,  ///< INTERSECTION(layer.A, layer.B)
    kContains,          ///< CONTAINS(layer.A, layer.B)
    kAttrCompare,       ///< ATTR(layer.A, name) <op> literal
  };

  Kind kind = Kind::kIntersection;
  LayerRef a;
  LayerRef b;            // For kIntersection / kContains.
  std::string attribute;  // For kAttrCompare.
  CompareOp op = CompareOp::kEq;
  Value literal;
};

/// The geometric part:
///   SELECT layer.<result>[, layer.<other>...];
///   FROM <schema>;
///   WHERE <cond> [AND <cond>]*;
/// The first selected layer is the result layer; its qualifying geometry
/// ids feed the moving-object part (paper Sec. 5).
struct GeoQuery {
  std::vector<LayerRef> select;
  std::string schema;
  std::vector<GeoCondition> where;
};

/// One condition of the moving-object part.
struct MoCondition {
  enum class Kind {
    kInsideResult = 0,       ///< INSIDE RESULT (sample semantics)
    kPassesThroughResult,    ///< PASSES THROUGH RESULT (LIT semantics)
    kTimeEquals,             ///< TIME.<level> = literal
    kTimeBetween,            ///< T BETWEEN <t0> AND <t1> (seconds)
    kNearLayer,              ///< NEAR(layer.<name>, radius)
  };

  Kind kind = Kind::kInsideResult;
  std::string time_level;  // For kTimeEquals.
  Value literal;           // For kTimeEquals.
  double t0 = 0.0;         // For kTimeBetween.
  double t1 = 0.0;
  std::string near_layer;  // For kNearLayer.
  double radius = 0.0;     // For kNearLayer.
};

/// The aggregate of the moving-object part: COUNT(*), COUNT(DISTINCT OID)
/// or RATE PER HOUR (Remark 1's buses-per-hour), all finished by γ.
struct MoAggregate {
  using Kind = gamma::Function;
  Kind kind = Kind::kCountAll;
};

/// The moving-object part:
///   SELECT <agg> FROM <moft> [WHERE <cond> [AND <cond>]*]
///   [GROUP BY TIME.<level>];
struct MoQuery {
  MoAggregate agg;
  std::string moft;
  std::vector<MoCondition> where;
  std::optional<std::string> group_by_level;
};

/// A full Piet-QL query: geometric part, then optionally a pipe `|` and a
/// moving-object part (the paper composes spatial | OLAP | MO parts; our
/// OLAP algebra is invoked programmatically, so the textual language keeps
/// the two parts that need syntax).
struct Query {
  GeoQuery geo;
  std::optional<MoQuery> mo;
};

}  // namespace piet::core::pietql

#endif  // PIET_CORE_PIETQL_AST_H_
