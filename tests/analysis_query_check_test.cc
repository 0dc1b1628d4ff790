#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "analysis/diagnostic.h"
#include "analysis/query_check.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "workload/scenario.h"

namespace piet::analysis {
namespace {

using core::pietql::Evaluator;
using core::pietql::Parse;
using core::pietql::Query;

class QueryCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::move(scenario).ValueOrDie();
  }

  QueryContext Context() const {
    QueryContext context;
    context.gis = &scenario_.db->gis();
    context.moft_names = scenario_.db->MoftNames();
    return context;
  }

  DiagnosticList Analyze(const std::string& text) const {
    auto query = Parse(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    return AnalyzeQuery(Context(), query.ValueOrDie());
  }

  workload::Figure1Scenario scenario_;
};

// The paper's headline query (Remark 1) is semantically clean.
constexpr const char* kHeadlineQuery =
    "SELECT layer.Ln; FROM PietSchema; "
    "WHERE ATTR(layer.Ln, income) < 1500; "
    "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT "
    "GROUP BY TIME.hour;";

TEST_F(QueryCheckTest, HeadlineQueryIsClean) {
  DiagnosticList diags = Analyze(kHeadlineQuery);
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

TEST_F(QueryCheckTest, UnknownLayerFires) {
  DiagnosticList diags = Analyze("SELECT layer.Bogus; FROM S;");
  ASSERT_TRUE(diags.Has("query-unknown-layer")) << diags.ToString();
  EXPECT_NE(diags[0].entity.find("SELECT layer.Bogus"), std::string::npos);
}

TEST_F(QueryCheckTest, UnknownAttributeFires) {
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; WHERE ATTR(layer.Ln, elevation) > 3;");
  ASSERT_TRUE(diags.Has("query-unknown-attribute")) << diags.ToString();
  EXPECT_NE(diags[0].entity.find("geo WHERE clause 1"), std::string::npos);
}

TEST_F(QueryCheckTest, AttrTypeMismatchFires) {
  // `income` holds numeric values; comparing against a string literal can
  // never hold.
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; WHERE ATTR(layer.Ln, income) = 'low';");
  ASSERT_TRUE(diags.Has("query-attr-type-mismatch")) << diags.ToString();
  EXPECT_NE(diags[0].entity.find("geo WHERE clause 1"), std::string::npos);

  // And the converse: `name` holds strings.
  DiagnosticList converse = Analyze(
      "SELECT layer.Ln; FROM S; WHERE ATTR(layer.Ln, name) = 42;");
  EXPECT_TRUE(converse.Has("query-attr-type-mismatch"))
      << converse.ToString();
}

TEST_F(QueryCheckTest, UnknownMoftFires) {
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM NoSuchMoft "
      "WHERE INSIDE RESULT;");
  EXPECT_TRUE(diags.Has("query-unknown-moft")) << diags.ToString();
}

TEST_F(QueryCheckTest, RollupEdgeFiresOnNonPolygonResult) {
  // Lr is a polyline layer: INSIDE RESULT needs the point->polygon rollup,
  // which its H(L) does not provide.
  DiagnosticList diags = Analyze(
      "SELECT layer.Lr; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE INSIDE RESULT;");
  ASSERT_TRUE(diags.Has("query-rollup-edge")) << diags.ToString();
  EXPECT_NE(diags[0].entity.find("INSIDE RESULT"), std::string::npos);

  DiagnosticList ok = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE PASSES THROUGH RESULT;");
  EXPECT_FALSE(ok.Has("query-rollup-edge")) << ok.ToString();
}

TEST_F(QueryCheckTest, NearLayerKindFires) {
  // NEAR wants a point/node layer; Lr holds polylines.
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE NEAR(layer.Lr, 5);");
  EXPECT_TRUE(diags.Has("query-layer-kind")) << diags.ToString();

  DiagnosticList ok = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE NEAR(layer.Ls, 5);");
  EXPECT_FALSE(ok.Has("query-layer-kind")) << ok.ToString();
}

TEST_F(QueryCheckTest, ConflictingSpatialConditionsFire) {
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE INSIDE RESULT AND NEAR(layer.Ls, 5);");
  EXPECT_TRUE(diags.Has("query-conflicting-conditions")) << diags.ToString();
}

TEST_F(QueryCheckTest, TimeLevelChecksFire) {
  DiagnosticList diags = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "GROUP BY TIME.fortnight;");
  EXPECT_TRUE(diags.Has("query-unknown-time-level")) << diags.ToString();

  // hour members are numeric; timeOfDay members are strings.
  DiagnosticList mismatch = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE TIME.hour = 'morning';");
  EXPECT_TRUE(mismatch.Has("query-attr-type-mismatch"))
      << mismatch.ToString();

  DiagnosticList ok = Analyze(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE TIME.timeOfDay = 'morning';");
  EXPECT_FALSE(ok.Has("query-attr-type-mismatch")) << ok.ToString();
}

// --- Evaluator wiring: kOff / kWarn / kStrict ---

TEST_F(QueryCheckTest, StrictModeRejectsNamingTheClause) {
  Evaluator strict(scenario_.db.get(), CheckMode::kStrict);
  auto result = strict.EvaluateString(
      "SELECT layer.Ln; FROM S; WHERE ATTR(layer.Ln, income) = 'low';");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_NE(result.status().message().find("query-attr-type-mismatch"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("geo WHERE clause 1"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(QueryCheckTest, WarnModeDowngradesAndEvaluates) {
  Evaluator warn(scenario_.db.get(), CheckMode::kWarn);
  auto result = warn.EvaluateString(
      "SELECT layer.Ln; FROM S; WHERE ATTR(layer.Ln, income) = 'low';");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The type mismatch rides along as a warning; the query still evaluates
  // (to no qualifying neighborhoods — the predicate can never hold).
  EXPECT_TRUE(result.ValueOrDie().diagnostics.Has("query-attr-type-mismatch"))
      << result.ValueOrDie().diagnostics.ToString();
  EXPECT_FALSE(result.ValueOrDie().diagnostics.HasErrors());
  EXPECT_TRUE(result.ValueOrDie().geometry_ids.empty());
}

TEST_F(QueryCheckTest, OffModeIsByteIdenticalToUnchecked) {
  Evaluator unchecked(scenario_.db.get());
  Evaluator off(scenario_.db.get(), CheckMode::kOff);
  auto a = unchecked.EvaluateString(kHeadlineQuery);
  auto b = off.EvaluateString(kHeadlineQuery);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b.ValueOrDie().diagnostics.empty());
  EXPECT_EQ(a.ValueOrDie().ToString(), b.ValueOrDie().ToString());
}

TEST_F(QueryCheckTest, StrictModeAcceptsCleanQueries) {
  Evaluator strict(scenario_.db.get(), CheckMode::kStrict);
  auto result = strict.EvaluateString(kHeadlineQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().diagnostics.empty());
}

// --- Database load-path wiring ---

TEST_F(QueryCheckTest, StrictLoadRejectsCorruptMoft) {
  // Moft::Add refuses NaN positions; a block file bypasses it.
  Result<moving::Moft> bad_file = moving::MoftFromBlockFile(
      moving::NanPositionColumns(), "piet_query_check_nan.pietblk");
  ASSERT_TRUE(bad_file.ok()) << bad_file.status().ToString();
  moving::Moft bad = std::move(bad_file).ValueOrDie();

  scenario_.db->set_check_mode(CheckMode::kStrict);
  Status status = scenario_.db->AddMoft("bad", std::move(bad));
  ASSERT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("moft-finite-coords"), std::string::npos);
  EXPECT_TRUE(scenario_.db->GetMoft("bad").status().IsNotFound());

  // kWarn records the finding but loads the MOFT.
  Result<moving::Moft> bad2_file = moving::MoftFromBlockFile(
      moving::NanPositionColumns(), "piet_query_check_nan2.pietblk");
  ASSERT_TRUE(bad2_file.ok()) << bad2_file.status().ToString();
  moving::Moft bad2 = std::move(bad2_file).ValueOrDie();
  scenario_.db->set_check_mode(CheckMode::kWarn);
  ASSERT_TRUE(scenario_.db->AddMoft("bad", std::move(bad2)).ok());
  EXPECT_TRUE(
      scenario_.db->last_load_diagnostics().Has("moft-finite-coords"));
  EXPECT_TRUE(scenario_.db->GetMoft("bad").ok());
}

}  // namespace
}  // namespace piet::analysis
