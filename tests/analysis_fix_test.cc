// Tests for the linter's fix-its (lint::FixQuery, src/analysis/lint/):
//
//  - the rw-* rule-id catalog is golden-tested like AllLintCheckIds, and the
//    lint corpus covers every rule via `expect-rewrite` directives;
//  - per-rule behavior and abstention;
//  - fixing is idempotent through the printer round-trip;
//  - the fix-it contract: evaluating a query's fix (the printed FixQuery
//    edit, as `pietql_lint --fix` emits it) is result-bit-identical to
//    evaluating the query as written, for every corpus query and all eight
//    Figure-1 query shapes, on a generated city with real trajectories,
//    serial and at four threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint/corpus.h"
#include "analysis/lint/query_lint.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet::analysis::lint {
namespace {

using core::pietql::Evaluator;
using core::pietql::Parse;
using core::pietql::Print;
using core::pietql::Query;
using core::pietql::QueryResult;

std::vector<std::string> CorpusPaths() {
  std::vector<std::string> paths;
  const std::filesystem::path dir =
      std::filesystem::path(PIET_SOURCE_DIR) / "tests" / "lint_corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".lint") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// --- Rule catalog ---

TEST(RewriteCatalogTest, AllRuleIdsGolden) {
  const std::vector<std::string> kExpected = {
      "rw-contradictory-spatial", "rw-drop-redundant-clause",
      "rw-empty-region",          "rw-empty-time",
      "rw-fold-time-window",      "rw-select-reorder",
  };
  EXPECT_EQ(AllFixRuleIds(), kExpected);
}

TEST(RewriteCatalogTest, CorpusExpectationsAreInCatalogAndCoverIt) {
  const std::vector<std::string> catalog = AllFixRuleIds();
  std::set<std::string> covered;
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    for (const std::string& id : parsed.ValueOrDie().expected_rewrite_ids) {
      EXPECT_TRUE(std::binary_search(catalog.begin(), catalog.end(), id))
          << path << " expects unknown rewrite rule " << id;
      covered.insert(id);
    }
  }
  // Every catalogued rule must be exercised by at least one corpus case.
  for (const std::string& id : catalog) {
    EXPECT_TRUE(covered.count(id)) << "no corpus case covers " << id;
  }
}

// --- Corpus sweep ---

TEST(RewriteCorpusTest, EveryCaseMatchesItsRewriteExpectations) {
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    Status verdict = CheckRewriteExpectations(parsed.ValueOrDie());
    EXPECT_TRUE(verdict.ok()) << path << ": " << verdict.ToString();
  }
}

TEST(RewriteCorpusTest, RewritingIsIdempotentOnEveryCorpusQuery) {
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path;
    const CorpusCase& c = parsed.ValueOrDie();
    if (c.instance == nullptr) {
      continue;
    }
    QueryContext context;
    context.gis = c.instance.get();
    for (const std::string& text : c.queries) {
      auto query = Parse(text);
      if (!query.ok()) {
        continue;  // lint-parse-error territory; nothing to fix.
      }
      FixedQuery once = FixQuery(context, query.ValueOrDie());
      const std::string printed = Print(once.query);
      auto reparsed = Parse(printed);
      ASSERT_TRUE(reparsed.ok())
          << path << ": fixed text does not re-parse: " << printed;
      FixedQuery twice = FixQuery(context, reparsed.ValueOrDie());
      EXPECT_EQ(Print(twice.query), printed) << path << ": not idempotent";
    }
  }
}

TEST(RewriteCorpusTest, ParseErrorsNameFileAndLine) {
  auto bad = ParseCorpusText("badcase.lint",
                             "# comment\nlayer Ln polygon\nbogus stuff\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("badcase.lint:3:"), std::string::npos)
      << bad.status().ToString();

  auto bad_args = ParseCorpusText("argcase.lint", "layer Ln\n");
  ASSERT_FALSE(bad_args.ok());
  EXPECT_NE(bad_args.status().ToString().find("argcase.lint:1:"),
            std::string::npos)
      << bad_args.status().ToString();
}

// --- Per-rule behavior against the Figure 1 schema ---

class RewriteRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::move(scenario).ValueOrDie();
    context_.gis = &scenario_.db->gis();
  }

  FixedQuery Fix(const char* text) {
    auto query = Parse(text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    return FixQuery(context_, query.ValueOrDie());
  }

  static bool Applied(const FixedQuery& plan, const std::string& rule) {
    return std::any_of(
        plan.applied.begin(), plan.applied.end(),
        [&](const AppliedFix& a) { return a.rule_id == rule; });
  }

  // One line per applied rule, for failure messages.
  static std::string Describe(const FixedQuery& plan) {
    std::string out;
    for (const AppliedFix& a : plan.applied) {
      out += a.rule_id + " [" + a.entity + "]: " + a.detail + "\n";
    }
    return out;
  }

  workload::Figure1Scenario scenario_;
  QueryContext context_;
};

TEST_F(RewriteRuleTest, EmptyTimeShortCircuits) {
  FixedQuery plan = Fix(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE TIME.hour = 25");
  EXPECT_TRUE(Applied(plan, "rw-empty-time")) << Describe(plan);
  EXPECT_FALSE(Applied(plan, "rw-empty-region")) << Describe(plan);
}

TEST_F(RewriteRuleTest, NegativeNearRadiusIsContradictory) {
  FixedQuery plan = Fix(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, -5)");
  EXPECT_FALSE(Applied(plan, "rw-empty-time")) << Describe(plan);
  EXPECT_TRUE(Applied(plan, "rw-contradictory-spatial")) << Describe(plan);
}

TEST_F(RewriteRuleTest, ShadowedWindowIsDropped) {
  FixedQuery plan = Fix(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 0 AND 100 AND T BETWEEN 50 AND 80");
  EXPECT_FALSE(Applied(plan, "rw-empty-time")) << Describe(plan);
  EXPECT_TRUE(Applied(plan, "rw-drop-redundant-clause")) << Describe(plan);
  ASSERT_TRUE(plan.query.mo.has_value());
  EXPECT_EQ(plan.query.mo->where.size(), 1u);
  EXPECT_NE(Print(plan.query).find("T BETWEEN 50 AND 80"), std::string::npos);
}

TEST_F(RewriteRuleTest, AttrBeforeSpatialReorder) {
  FixedQuery plan = Fix(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr) "
      "AND ATTR(layer.Ln, income) < 1500");
  EXPECT_TRUE(Applied(plan, "rw-select-reorder")) << Describe(plan);
  const std::string printed = Print(plan.query);
  EXPECT_LT(printed.find("ATTR"), printed.find("INTERSECTION")) << printed;
}

TEST_F(RewriteRuleTest, EmptyRegionConstantFoldsGeoPart) {
  FixedQuery plan = Fix(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < -10");
  EXPECT_TRUE(Applied(plan, "rw-empty-region")) << Describe(plan);
}

TEST_F(RewriteRuleTest, CleanQueryIsUntouched) {
  const char* text =
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT";
  FixedQuery plan = Fix(text);
  EXPECT_TRUE(plan.applied.empty()) << Describe(plan);
  auto query = Parse(text);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(Print(plan.query), Print(query.ValueOrDie()));
}

// Lint and FixQuery read one time fold. Under sample semantics the hour
// bucket is half-open, so a window from its exclusive end on is empty for
// both; under PASSES THROUGH the bucket's pieces are closed, so neither
// proves the conjunction empty.
TEST_F(RewriteRuleTest, LintAndFixShareTheTimeFold) {
  for (const bool passes : {false, true}) {
    const std::string text =
        std::string("SELECT layer.Ln; FROM PietSchema; "
                    "| SELECT COUNT(*) FROM FMbus WHERE ") +
        (passes ? "PASSES THROUGH RESULT AND " : "") +
        "TIME.hourBucket = 3600 AND T BETWEEN 7200 AND 9000";
    auto query = Parse(text);
    ASSERT_TRUE(query.ok()) << text;
    const FixedQuery plan = FixQuery(context_, query.ValueOrDie());
    const DiagnosticList diags = LintQuery(context_, query.ValueOrDie());
    EXPECT_EQ(Applied(plan, "rw-empty-time"), !passes)
        << text << "\n" << Describe(plan);
    EXPECT_EQ(diags.Has("lint-empty-time"), !passes)
        << text << "\n" << diags.ToString();
    // The fast-path fix-it is the fold edit, which PASSES THROUGH skips.
    for (const Diagnostic& d : diags) {
      if (d.check_id == "lint-fastpath-defeated") {
        EXPECT_EQ(d.fixit, passes ? "" : "rewrite TIME.hourBucket = 3600 as "
                                         "T BETWEEN 3600 AND 7199.999999999999")
            << text;
      }
    }
    EXPECT_TRUE(diags.Has("lint-fastpath-defeated")) << diags.ToString();
  }
}

// FixQuery abstains wherever evaluation errors, so a fix never hides the
// error: an unknown result layer, a clause on another layer, and PASSES
// THROUGH under a timeId/minute equality all come back untouched.
TEST_F(RewriteRuleTest, AbstainsWhereEvaluationErrors) {
  for (const char* text : {
           "SELECT layer.Nowhere; FROM PietSchema; "
           "WHERE ATTR(layer.Nowhere, income) < -10",
           "SELECT layer.Ln; FROM PietSchema; "
           "WHERE ATTR(layer.Ln, income) < 1e9 "
           "AND ATTR(layer.Lr, income) < -10",
           "SELECT layer.Ln; FROM PietSchema; "
           "| SELECT COUNT(*) FROM FMbus WHERE PASSES THROUGH RESULT "
           "AND TIME.minute = '1976-01-01 07:00' AND T BETWEEN 9 AND 1",
       }) {
    FixedQuery plan = Fix(text);
    EXPECT_TRUE(plan.applied.empty()) << text << "\n" << Describe(plan);
    auto query = Parse(text);
    ASSERT_TRUE(query.ok()) << text;
    EXPECT_EQ(Print(plan.query), Print(query.ValueOrDie())) << text;
  }
}

// --- Fix-it exactness: the fixed query answers like the original ---

void ExpectSameOutcome(const Result<QueryResult>& original,
                       const Result<QueryResult>& fixed,
                       const std::string& tag) {
  ASSERT_EQ(original.ok(), fixed.ok())
      << tag << ": original=" << original.status().ToString()
      << " fixed=" << fixed.status().ToString();
  if (!original.ok()) {
    // FixQuery must abstain from edits that would suppress an evaluation
    // error: same status, same message.
    EXPECT_EQ(original.status().ToString(), fixed.status().ToString())
        << tag;
    return;
  }
  const QueryResult& a = original.ValueOrDie();
  const QueryResult& b = fixed.ValueOrDie();
  EXPECT_EQ(a.ToString(), b.ToString()) << tag;
  EXPECT_EQ(a.geometry_ids, b.geometry_ids) << tag;
  ASSERT_EQ(a.scalar.has_value(), b.scalar.has_value()) << tag;
  if (a.scalar && b.scalar) {
    EXPECT_EQ(*a.scalar, *b.scalar) << tag;
  }
  ASSERT_EQ(a.table.has_value(), b.table.has_value()) << tag;
  if (a.table && b.table) {
    EXPECT_EQ(a.table->rows(), b.table->rows()) << tag;
  }
}

// Evaluates `text` as written and as its fix-it (FixQuery's edit printed
// back to Piet-QL) on the same evaluator; both must agree.
void ExpectFixItPreservesAnswer(const Evaluator& eval,
                                const QueryContext& context,
                                const std::string& text,
                                const std::string& tag) {
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << tag << ": " << parsed.status().ToString();
  const std::string fixed =
      Print(FixQuery(context, parsed.ValueOrDie()).query);
  ExpectSameOutcome(eval.EvaluateString(text), eval.EvaluateString(fixed),
                    tag + " fixed=" + fixed);
}

// All eight Figure-1 query shapes (the frozen-baseline list of
// parallel_determinism_test.cc) plus fix-triggering variants.
const char* kFigure1Queries[] = {
    "SELECT layer.Ln; FROM PietSchema; "
    "WHERE ATTR(layer.Ln, income) < 1500 "
    "| SELECT RATE PER HOUR FROM FMbus "
    "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(*) FROM FMbus",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(*) FROM FMbus WHERE T BETWEEN 189493200 AND 189500000",
    "SELECT layer.Ln; FROM PietSchema; "
    "WHERE ATTR(layer.Ln, income) < 1500 "
    "| SELECT RATE PER HOUR FROM FMbus WHERE INSIDE RESULT "
    "GROUP BY TIME.hour",
    "SELECT layer.Ln, layer.Lr; FROM PietSchema; "
    "WHERE INTERSECTION(layer.Ln, layer.Lr)",
    // Fix-triggering variants of the same shapes.
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(*) FROM FMbus "
    "WHERE T BETWEEN 189400000 AND 189600000 "
    "AND T BETWEEN 189493200 AND 189500000",
    "SELECT layer.Ln; FROM PietSchema; "
    "| SELECT COUNT(*) FROM FMbus WHERE TIME.hour = 25",
    "SELECT layer.Ln; FROM PietSchema; "
    "WHERE INTERSECTION(layer.Ln, layer.Lr) "
    "AND ATTR(layer.Ln, income) < 1500",
    "SELECT layer.Ln; FROM PietSchema; "
    "WHERE ATTR(layer.Ln, income) < -10 "
    "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT",
};

TEST(RewriteEvaluatorTest, FixItPreservesAnswerOnFigure1) {
  for (int threads : {1, 4}) {
    auto scenario = workload::BuildFigure1Scenario().ValueOrDie();
    ASSERT_TRUE(
        scenario.db->BuildOverlay({scenario.neighborhoods_layer}).ok());
    scenario.db->set_num_threads(threads);
    Evaluator eval(scenario.db.get());
    eval.set_num_threads(threads);
    QueryContext context;
    context.gis = &scenario.db->gis();
    for (const char* q : kFigure1Queries) {
      ExpectFixItPreservesAnswer(
          eval, context, q,
          std::string(q) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(RewriteEvaluatorTest, FixItPreservesAnswerOnCorpusQueries) {
  // Corpus queries reference layers Ln/Lr/Ls and MOFT FM; run them against
  // the Figure-1 database (which has the layers but not the MOFT). Queries
  // that evaluate must agree bit-for-bit; queries that error must produce
  // the same status — a fix-it may not suppress a validation error.
  auto scenario = workload::BuildFigure1Scenario().ValueOrDie();
  ASSERT_TRUE(scenario.db->BuildOverlay({scenario.neighborhoods_layer}).ok());
  Evaluator eval(scenario.db.get());
  QueryContext context;
  context.gis = &scenario.db->gis();
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path;
    for (const std::string& text : parsed.ValueOrDie().queries) {
      if (!Parse(text).ok()) {
        continue;  // Unparseable text has no fix-it.
      }
      ExpectFixItPreservesAnswer(eval, context, text, path + ": " + text);
    }
  }
}

// A generated city with real trajectories: large enough that the batch
// kernels, the window fast paths, and the empty-region skip all actually
// run.
TEST(RewriteEvaluatorTest, FixItPreservesAnswerOnGeneratedCity) {
  for (int threads : {1, 4}) {
    workload::CityConfig config;
    config.seed = 20260807;
    config.grid_cols = 6;
    config.grid_rows = 6;
    config.nonconvex_fraction = 0.4;
    auto city = std::move(workload::GenerateCity(config)).ValueOrDie();
    city.db->set_num_threads(threads);
    workload::TrajectoryConfig traj;
    traj.seed = 99;
    traj.num_objects = 40;
    traj.duration = 3600.0;
    traj.sample_period = 30.0;
    traj.speed = 12.0;
    auto moft = workload::GenerateTrajectories(city, traj).ValueOrDie();
    ASSERT_TRUE(city.db->AddMoft("cars", std::move(moft)).ok());

    Evaluator eval(city.db.get());
    eval.set_num_threads(threads);
    QueryContext context;
    context.gis = &city.db->gis();

    const std::string n = city.neighborhoods_layer;
    const std::vector<std::string> queries = {
        // Window-only time scan: the SamplesBetween fast path.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(*) FROM cars WHERE T BETWEEN 600 AND 1200",
        // An implied window dropped, then the same window probe.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(*) FROM cars "
        "WHERE T BETWEEN 0 AND 3000 AND T BETWEEN 600 AND 1200",
        // The same two windows in the other order: the WHERE is a
        // conjunction, so the order does not matter.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(*) FROM cars "
        "WHERE T BETWEEN 600 AND 1200 AND T BETWEEN 0 AND 3000",
        // INSIDE + window: batch point-in-polygon over the sealed columns.
        "SELECT layer." + n + "; FROM SimCity; "
        "WHERE ATTR(layer." + n + ", income) < 1500 "
        "| SELECT COUNT(*) FROM cars "
        "WHERE INSIDE RESULT AND T BETWEEN 0 AND 1800",
        // PASSES THROUGH: the per-span leg-intersection prefilter.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(DISTINCT OID) FROM cars WHERE PASSES THROUGH RESULT",
        // NEAR + window: absolute row indices from the sample window.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(*) FROM cars "
        "WHERE NEAR(layer." + city.schools_layer + ", 25) "
        "AND T BETWEEN 0 AND 1800",
        // Empty window: the fix-it proves rw-empty-time.
        "SELECT layer." + n + "; FROM SimCity; "
        "| SELECT COUNT(*) FROM cars WHERE T BETWEEN 100 AND 50",
        // Empty region feeding INSIDE: the evaluator skips the scan.
        "SELECT layer." + n + "; FROM SimCity; "
        "WHERE ATTR(layer." + n + ", income) < -10 "
        "| SELECT COUNT(*) FROM cars WHERE INSIDE RESULT",
        // Grouped aggregate downstream of the fixed scan.
        "SELECT layer." + n + "; FROM SimCity; "
        "WHERE ATTR(layer." + n + ", income) < 1500 "
        "| SELECT RATE PER HOUR FROM cars WHERE INSIDE RESULT "
        "GROUP BY TIME.hour",
    };
    for (const std::string& q : queries) {
      ExpectFixItPreservesAnswer(eval, context, q,
                                 q + " threads=" + std::to_string(threads));
    }
    // Both orders of the two windows count the single window's samples.
    auto count = [&eval](const std::string& q) {
      auto r = eval.EvaluateString(q);
      EXPECT_TRUE(r.ok() && r.ValueOrDie().scalar) << q;
      return r.ok() && r.ValueOrDie().scalar
                 ? r.ValueOrDie().scalar->ToString()
                 : std::string();
    };
    const std::string single = count(queries[0]);
    EXPECT_EQ(count(queries[1]), single);
    EXPECT_EQ(count(queries[2]), single);
  }
}

}  // namespace
}  // namespace piet::analysis::lint
