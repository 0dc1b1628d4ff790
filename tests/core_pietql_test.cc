#include <gtest/gtest.h>

#include <memory>

#include "core/pietql/evaluator.h"
#include "core/pietql/lexer.h"
#include "core/pietql/parser.h"
#include "geometry/polygon.h"
#include "gis/instance.h"
#include "gis/layer.h"
#include "workload/scenario.h"

namespace piet::core::pietql {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens =
      Tokenize("SELECT layer.x, 'str' | <= >= < > = ( ) * ; 3.5 -2").ValueOrDie();
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) {
    kinds.push_back(t.kind);
  }
  std::vector<TokenKind> expected = {
      TokenKind::kIdent, TokenKind::kIdent, TokenKind::kDot,
      TokenKind::kIdent, TokenKind::kComma, TokenKind::kString,
      TokenKind::kPipe,  TokenKind::kLe,    TokenKind::kGe,
      TokenKind::kLt,    TokenKind::kGt,    TokenKind::kEq,
      TokenKind::kLParen, TokenKind::kRParen, TokenKind::kStar,
      TokenKind::kSemicolon, TokenKind::kNumber, TokenKind::kNumber,
      TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
  EXPECT_DOUBLE_EQ(tokens[16].number, 3.5);
  EXPECT_DOUBLE_EQ(tokens[17].number, -2.0);
  EXPECT_EQ(tokens[5].text, "str");
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("SELECT @").status().IsParseError());
  EXPECT_TRUE(Tokenize("'unterminated").status().IsParseError());
}

TEST(ParserTest, GeoOnly) {
  auto query = Parse(
      "SELECT layer.usa_rivers, layer.usa_cities; FROM PietSchema; "
      "WHERE INTERSECTION(layer.usa_rivers, layer.usa_cities) "
      "AND ATTR(layer.usa_rivers, length) >= 100;");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const Query& q = query.ValueOrDie();
  EXPECT_EQ(q.geo.select.size(), 2u);
  EXPECT_EQ(q.geo.select[0].name, "usa_rivers");
  EXPECT_EQ(q.geo.schema, "PietSchema");
  ASSERT_EQ(q.geo.where.size(), 2u);
  EXPECT_EQ(q.geo.where[0].kind, GeoCondition::Kind::kIntersection);
  EXPECT_EQ(q.geo.where[1].kind, GeoCondition::Kind::kAttrCompare);
  EXPECT_EQ(q.geo.where[1].op, CompareOp::kGe);
  EXPECT_FALSE(q.mo.has_value());
}

TEST(ParserTest, FullQueryWithMoPart) {
  auto query = Parse(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning' "
      "GROUP BY TIME.hour");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const Query& q = query.ValueOrDie();
  ASSERT_TRUE(q.mo.has_value());
  EXPECT_EQ(q.mo->agg.kind, MoAggregate::Kind::kRatePerHour);
  EXPECT_EQ(q.mo->moft, "FMbus");
  ASSERT_EQ(q.mo->where.size(), 2u);
  EXPECT_EQ(q.mo->where[0].kind, MoCondition::Kind::kInsideResult);
  EXPECT_EQ(q.mo->where[1].kind, MoCondition::Kind::kTimeEquals);
  EXPECT_EQ(q.mo->where[1].time_level, "timeOfDay");
  ASSERT_TRUE(q.mo->group_by_level.has_value());
  EXPECT_EQ(*q.mo->group_by_level, "hour");
}

TEST(ParserTest, CountVariantsAndBetween) {
  auto q1 = Parse(
      "SELECT layer.L; FROM S; | SELECT COUNT(*) FROM M "
      "WHERE T BETWEEN 100 AND 200");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_EQ(q1.ValueOrDie().mo->agg.kind, MoAggregate::Kind::kCountAll);
  EXPECT_DOUBLE_EQ(q1.ValueOrDie().mo->where[0].t0, 100.0);

  auto q2 =
      Parse("SELECT layer.L; FROM S; | SELECT COUNT(DISTINCT OID) FROM M");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2.ValueOrDie().mo->agg.kind,
            MoAggregate::Kind::kCountDistinctOid);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(Parse("FROM x;").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT layer.L FROM S;").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT layer.L; FROM S; WHERE BOGUS(x)")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT layer.L; FROM S; | SELECT MEDIAN FROM M")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT layer.L; FROM S; trailing")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      Parse("SELECT layer.L; FROM S; WHERE ATTR(layer.L, x) ?? 3")
          .status()
          .IsParseError());
}

class PietQlEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).ValueOrDie();
  }
  workload::Figure1Scenario scenario_;
};

TEST_F(PietQlEvalTest, GeoPartAttrFilter) {
  Evaluator eval(scenario_.db.get());
  auto result = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.ValueOrDie().geometry_ids.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().geometry_ids[0],
            scenario_.low_income_neighborhood);
}

TEST_F(PietQlEvalTest, GeoPartIntersectionWithRiver) {
  Evaluator eval(scenario_.db.get());
  // The river runs along y ~ 40, rising to 41 mid-city: it touches the
  // three northern neighborhoods everywhere, plus N0 and N2 at its end
  // points (corners), but never the low-income N1.
  auto result = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().geometry_ids.size(), 5u);
  for (gis::GeometryId id : result.ValueOrDie().geometry_ids) {
    EXPECT_NE(id, scenario_.low_income_neighborhood);
  }
}

TEST_F(PietQlEvalTest, GeoPartContainsSchools) {
  Evaluator eval(scenario_.db.get());
  // Schools at (20,20) in N0, (70,25) in N1, (100,60) in N5.
  auto result = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE CONTAINS(layer.Ln, layer.Ls)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().geometry_ids.size(), 3u);
}

TEST(PietQlContainsTest, HolesLeaveTheirInteriorOut) {
  // Case k sits at x offset 100k: a 20x20 polygon of layer Lh with the
  // hole [8,12]^2, and one polygon of layer Lo placed against the hole.
  gis::GisDimensionSchema schema;
  ASSERT_TRUE(
      schema.AddLayerGraph("Lh", gis::GeometryGraph::PolygonLayerGraph())
          .ok());
  ASSERT_TRUE(
      schema.AddLayerGraph("Lo", gis::GeometryGraph::PolygonLayerGraph())
          .ok());
  gis::GisDimensionInstance instance(std::move(schema));
  auto holed = std::make_shared<gis::Layer>("Lh", gis::GeometryKind::kPolygon);
  auto others = std::make_shared<gis::Layer>("Lo", gis::GeometryKind::kPolygon);
  const double others_at[][4] = {
      {5, 5, 15, 15},   // 0: the hole strictly inside.
      {12, 12, 16, 16}, // 1: the hole touches it at a vertex.
      {12, 8, 16, 12},  // 2: the hole touches it along an edge.
      {8, 6, 12, 14},   // 3: hole vertices on its boundary, interior in.
  };
  for (int k = 0; k < 4; ++k) {
    const double dx = 100.0 * k;
    ASSERT_TRUE(holed
                    ->AddPolygon(geometry::Polygon(
                        geometry::Ring({{dx, 0}, {dx + 20, 0},
                                        {dx + 20, 20}, {dx, 20}}),
                        {geometry::Ring({{dx + 8, 8}, {dx + 12, 8},
                                         {dx + 12, 12}, {dx + 8, 12}})}))
                    .ok());
    const double* r = others_at[k];
    ASSERT_TRUE(others
                    ->AddPolygon(geometry::MakeRectangle(dx + r[0], r[1],
                                                         dx + r[2], r[3]))
                    .ok());
  }
  ASSERT_TRUE(instance.AddLayer(holed).ok());
  ASSERT_TRUE(instance.AddLayer(others).ok());
  GeoOlapDatabase db(std::move(instance));
  Evaluator eval(&db);
  auto result = eval.EvaluateString(
      "SELECT layer.Lh; FROM S; WHERE CONTAINS(layer.Lh, layer.Lo)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<gis::GeometryId> ids = result.ValueOrDie().geometry_ids;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<gis::GeometryId>{1, 2}));
}

TEST_F(PietQlEvalTest, PaperStyleCompositeGeoQuery) {
  Evaluator eval(scenario_.db.get());
  // Sec. 5 flavor: cities crossed by a river AND containing a store/school.
  auto result = eval.EvaluateString(
      "SELECT layer.Ln, layer.Lr, layer.Ls; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr) "
      "AND CONTAINS(layer.Ln, layer.Ls);");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // River-touching: {N0, N2, N3, N4, N5}; school-containing: {N0, N1, N5};
  // conjunction: {N0, N5}.
  EXPECT_EQ(result.ValueOrDie().geometry_ids.size(), 2u);
}

TEST_F(PietQlEvalTest, HeadlineRatePerHour) {
  Evaluator eval(scenario_.db.get());
  auto result = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.ValueOrDie().scalar.has_value());
  EXPECT_DOUBLE_EQ(result.ValueOrDie().scalar->AsDoubleUnchecked(),
                   4.0 / 3.0);
}

TEST_F(PietQlEvalTest, PassesThroughCatchesO6) {
  Evaluator eval(scenario_.db.get());
  auto inside = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT");
  ASSERT_TRUE(inside.ok());
  EXPECT_EQ(inside.ValueOrDie().scalar->AsIntUnchecked(), 2);  // O1, O2.

  auto passes = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT");
  ASSERT_TRUE(passes.ok());
  EXPECT_EQ(passes.ValueOrDie().scalar->AsIntUnchecked(), 3);  // + O6.
}

TEST_F(PietQlEvalTest, GroupByHour) {
  Evaluator eval(scenario_.db.get());
  auto result = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT "
      "AND TIME.timeOfDay = 'Morning' GROUP BY TIME.hour");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.ValueOrDie().table.has_value());
  const auto& table = *result.ValueOrDie().table;
  // Qualifying samples at hours 6 (O1), 7 (O1+O2), 8 (O1).
  ASSERT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.row(0)[0], Value(int64_t{6}));
  EXPECT_EQ(table.row(0)[1], Value(int64_t{1}));
  EXPECT_EQ(table.row(1)[1], Value(int64_t{2}));
  EXPECT_EQ(table.row(2)[1], Value(int64_t{1}));
}

TEST_F(PietQlEvalTest, TimeBetweenWindow) {
  Evaluator eval(scenario_.db.get());
  auto span = scenario_.db->GetMoft("FMbus").ValueOrDie()->TimeSpan()
                  .ValueOrDie();
  std::string q = "SELECT layer.Ln; FROM PietSchema; | SELECT COUNT(*) FROM "
                  "FMbus WHERE T BETWEEN " +
                  std::to_string(span.begin.seconds) + " AND " +
                  std::to_string(span.begin.seconds) + "";
  auto result = eval.EvaluateString(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only the first instant (t=1: O1's first sample).
  EXPECT_EQ(result.ValueOrDie().scalar->AsIntUnchecked(), 1);
}

TEST_F(PietQlEvalTest, NearConditionParsesAndEvaluates) {
  Evaluator eval(scenario_.db.get());
  // Schools at (20,20), (70,25), (100,60); O1's t=3 sample is (70,20),
  // within 10 of the second school. Radius 3 catches nothing.
  auto near = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus "
      "WHERE NEAR(layer.Ls, 10)");
  ASSERT_TRUE(near.ok()) << near.status().ToString();
  EXPECT_GE(near.ValueOrDie().scalar->AsIntUnchecked(), 1);

  // O2's (20,20) and O4's (100,60) samples sit exactly on schools, so
  // they match at any radius; O1's (70,20) needs radius >= 5.
  auto tight = eval.EvaluateString(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 3)");
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(tight.ValueOrDie().scalar->AsIntUnchecked(), 2);

  // NEAR against a polygon layer is rejected.
  EXPECT_TRUE(eval.EvaluateString(
                      "SELECT layer.Ln; FROM S; "
                      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ln, 5)")
                  .status()
                  .IsInvalidArgument());
  // NEAR + INSIDE is rejected.
  EXPECT_TRUE(eval.EvaluateString(
                      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
                      "WHERE NEAR(layer.Ls, 5) AND INSIDE RESULT")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PietQlEvalTest, EvaluationErrors) {
  Evaluator eval(scenario_.db.get());
  EXPECT_TRUE(eval.EvaluateString("SELECT layer.Bogus; FROM S;")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(eval.EvaluateString(
                      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM Bogus")
                  .status()
                  .IsNotFound());
  // Conditions must constrain the result layer.
  EXPECT_TRUE(eval.EvaluateString(
                      "SELECT layer.Ln; FROM S; "
                      "WHERE ATTR(layer.Lr, name) = 'x'")
                  .status()
                  .IsInvalidArgument());
  // INSIDE + PASSES together are rejected.
  EXPECT_TRUE(eval.EvaluateString(
                      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
                      "WHERE INSIDE RESULT AND PASSES THROUGH RESULT")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace piet::core::pietql
