#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pietql/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/scenario.h"

namespace piet::obs {
namespace {

TEST(TraceCollectorTest, NestingAndAttrs) {
  TraceCollector collector("root");
  {
    TraceSpan outer(&collector, "outer");
    outer.Attr("k", "v");
    outer.Attr("n", int64_t{7});
    {
      TraceSpan inner(&collector, "inner");
      inner.Attr("ratio", 0.5);
    }
    TraceSpan sibling(&collector, "sibling");
  }
  SpanNode root = collector.Finish();

  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.start_ns, 0);
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.Attr("k"), "v");
  EXPECT_EQ(outer.Attr("n"), "7");
  EXPECT_EQ(outer.Attr("missing"), "");
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].Attr("ratio"), "0.5");
  EXPECT_EQ(outer.children[1].name, "sibling");

  // Find searches depth-first through the tree.
  EXPECT_EQ(root.Find("inner"), &outer.children[0]);
  EXPECT_EQ(root.Find("nope"), nullptr);

  // Children start within and end within their parent.
  for (const SpanNode& child : outer.children) {
    EXPECT_GE(child.start_ns, outer.start_ns);
    EXPECT_LE(child.end_ns(), outer.end_ns());
  }
  EXPECT_LE(outer.end_ns(), root.end_ns());
}

TEST(TraceCollectorTest, NullCollectorIsNoOp) {
  TraceSpan span(nullptr, "ignored");
  span.Attr("k", "v");
  span.Attr("n", int64_t{1});
  // Destruction must be safe; nothing to assert beyond no crash.
}

// The Chrome exporter's byte-exact output on a hand-built tree: fixed
// timestamps make the golden stable (the exporter formats microseconds
// with exactly three decimals).
TEST(ChromeTraceTest, GoldenExport) {
  SpanNode root;
  root.name = "query";
  root.start_ns = 0;
  root.duration_ns = 5000;
  SpanNode parse;
  parse.name = "parse";
  parse.start_ns = 100;
  parse.duration_ns = 200;
  parse.attrs = {{"bytes", "42"}};
  SpanNode geo;
  geo.name = "geo_filter";
  geo.start_ns = 400;
  geo.duration_ns = 1600;
  SpanNode cond;
  cond.name = "geo_condition:attr_compare";
  cond.start_ns = 450;
  cond.duration_ns = 1000;
  geo.children.push_back(cond);
  root.children.push_back(parse);
  root.children.push_back(geo);

  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"query\",\"ph\":\"X\",\"ts\":0.000,\"dur\":5.000,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"parse\",\"ph\":\"X\",\"ts\":0.100,\"dur\":0.200,"
      "\"pid\":1,\"tid\":1,\"args\":{\"bytes\":\"42\"}},"
      "{\"name\":\"geo_filter\",\"ph\":\"X\",\"ts\":0.400,\"dur\":1.600,"
      "\"pid\":1,\"tid\":1},"
      "{\"name\":\"geo_condition:attr_compare\",\"ph\":\"X\",\"ts\":0.450,"
      "\"dur\":1.000,\"pid\":1,\"tid\":1}"
      "]}";
  EXPECT_EQ(ToChromeTraceJson(root), expected);
}

TEST(ChromeTraceTest, EscapesQuotesAndBackslashes) {
  SpanNode root;
  root.name = "a\"b\\c";
  std::string json = ToChromeTraceJson(root);
  EXPECT_NE(json.find("\"a\\\"b\\\\c\""), std::string::npos);
}

TEST(PrettyPrintTest, RendersTreeWithDurations) {
  SpanNode root;
  root.name = "query";
  root.duration_ns = 2'500'000;  // 2.50ms
  SpanNode child;
  child.name = "aggregate";
  child.duration_ns = 800;  // 800ns
  child.attrs = {{"kind", "count_all"}};
  root.children.push_back(child);
  std::string pretty = root.ToPrettyString();
  EXPECT_NE(pretty.find("query  2.50ms"), std::string::npos);
  EXPECT_NE(pretty.find("  aggregate  800ns  [kind=count_all]"),
            std::string::npos);
}

class EvaluateProfiledTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok());
    scenario_ = std::move(scenario).ValueOrDie();
  }

  // Profiled evaluation must return a bit-identical result and a
  // well-formed span tree for the query.
  void CheckProfiledMatches(const std::string& text) {
    core::pietql::Evaluator eval(scenario_.db.get());
    auto plain = eval.EvaluateString(text);
    auto profiled = eval.EvaluateStringProfiled(text);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
    EXPECT_EQ(plain.ValueOrDie().ToString(),
              profiled.ValueOrDie().result.ToString())
        << text;

    const SpanNode& root = profiled.ValueOrDie().profile;
    EXPECT_EQ(root.name, "query");
    EXPECT_FALSE(root.children.empty());
    EXPECT_NE(root.Find("parse"), nullptr);
    EXPECT_NE(root.Find("geo_filter"), nullptr);
    CheckDurations(root);
  }

  // Spans nest and time monotonically: children start after their parent,
  // end before it, follow their previous sibling, and their durations sum
  // to at most the parent's.
  void CheckDurations(const SpanNode& node) {
    int64_t child_sum = 0;
    int64_t prev_end = node.start_ns;
    for (const SpanNode& child : node.children) {
      EXPECT_GE(child.duration_ns, 0) << child.name;
      EXPECT_GE(child.start_ns, prev_end) << child.name;
      EXPECT_LE(child.end_ns(), node.end_ns()) << child.name;
      prev_end = child.end_ns();
      child_sum += child.duration_ns;
      CheckDurations(child);
    }
    EXPECT_LE(child_sum, node.duration_ns) << node.name;
  }

  workload::Figure1Scenario scenario_;
};

TEST_F(EvaluateProfiledTest, BitIdenticalAcrossQueryForms) {
  const std::vector<std::string> queries = {
      // Geo-only: attribute filter, intersection, containment, composite.
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500",
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr)",
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE CONTAINS(layer.Ln, layer.Ls)",
      "SELECT layer.Ln, layer.Lr, layer.Ls; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr) "
      "AND CONTAINS(layer.Ln, layer.Ls);",
      // Moving-object clauses: INSIDE RESULT, PASSES THROUGH, NEAR,
      // time-only, plus grouped and rate aggregates.
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT",
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE T BETWEEN 0 AND 100000",
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT "
      "AND TIME.timeOfDay = 'Morning' GROUP BY TIME.hour",
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'",
  };
  for (const std::string& q : queries) {
    CheckProfiledMatches(q);
  }
}

TEST_F(EvaluateProfiledTest, SpanTaxonomyOnHeadlineQuery) {
  core::pietql::Evaluator eval(scenario_.db.get());
  auto profiled = eval.EvaluateStringProfiled(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();

  // The Remark 1 answer rides along unchanged: 4 bus-hour pairs over 3
  // morning hours.
  ASSERT_TRUE(profiled.ValueOrDie().result.scalar.has_value());
  EXPECT_DOUBLE_EQ(profiled.ValueOrDie().result.scalar->AsDoubleUnchecked(),
                   4.0 / 3.0);

  const SpanNode& root = profiled.ValueOrDie().profile;
  const SpanNode* geo = root.Find("geo_filter");
  ASSERT_NE(geo, nullptr);
  EXPECT_EQ(geo->Attr("layer"), "Ln");
  EXPECT_EQ(geo->Attr("ids"), "1");  // Only the low-income neighborhood.
  EXPECT_NE(geo->Find("geo_condition:attr_compare"), nullptr);

  const SpanNode* intersect = root.Find("moft_intersect");
  ASSERT_NE(intersect, nullptr);
  EXPECT_EQ(intersect->Attr("clause"), "inside_result");
  EXPECT_EQ(intersect->Attr("moft"), "FMbus");
  EXPECT_EQ(intersect->Attr("tuples"), "4");  // The four morning samples.

  const SpanNode* agg = root.Find("aggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->Attr("kind"), "rate_per_hour");

  // moft_intersect and aggregate are siblings under the root, in order.
  std::vector<std::string> names;
  for (const SpanNode& child : root.children) {
    names.push_back(child.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"parse", "geo_filter",
                                             "moft_intersect", "aggregate"}));
}

// Queries run exactly as written: even a query the `pietql_lint --fix`
// rewriter would rewrite (the wider of two nested windows is implied)
// profiles with no rewrite stage anywhere in its span tree.
TEST_F(EvaluateProfiledTest, SpanTaxonomyWithRewriteStage) {
  core::pietql::Evaluator eval(scenario_.db.get());
  auto profiled = eval.EvaluateStringProfiled(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT RATE PER HOUR FROM FMbus "
      "WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning' "
      "AND T BETWEEN 0 AND 999999999 AND T BETWEEN 100 AND 999999990");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  ASSERT_TRUE(profiled.ValueOrDie().result.scalar.has_value());
  EXPECT_DOUBLE_EQ(profiled.ValueOrDie().result.scalar->AsDoubleUnchecked(),
                   4.0 / 3.0);

  const SpanNode& root = profiled.ValueOrDie().profile;
  std::vector<const SpanNode*> stack = {&root};
  while (!stack.empty()) {
    const SpanNode* node = stack.back();
    stack.pop_back();
    EXPECT_NE(node->name, "rewrite");
    EXPECT_NE(node->name.rfind("rewrite_rule:", 0), 0u) << node->name;
    for (const SpanNode& child : node->children) {
      stack.push_back(&child);
    }
  }
  std::vector<std::string> names;
  for (const SpanNode& child : root.children) {
    names.push_back(child.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"parse", "geo_filter",
                                             "moft_intersect", "aggregate"}));
}

// INSIDE RESULT over an empty region skips the scan outright: no sample
// classification (hit or miss) and no row read, and the count is still 0.
TEST_F(EvaluateProfiledTest, EmptyRegionSkipsTheScan) {
  const bool was_enabled = Enabled();
  SetEnabled(true);
  ASSERT_TRUE(
      scenario_.db->BuildOverlay({scenario_.neighborhoods_layer}).ok());
  core::pietql::Evaluator eval(scenario_.db.get());
  auto& registry = MetricsRegistry::Global();
  const int64_t misses0 =
      registry.GetCounter("db.classify.cache_misses").Value();
  const int64_t hits0 = registry.GetCounter("db.classify.cache_hits").Value();
  auto profiled = eval.EvaluateStringProfiled(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 0 "
      "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT");
  SetEnabled(was_enabled);
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_EQ(registry.GetCounter("db.classify.cache_misses").Value(), misses0);
  EXPECT_EQ(registry.GetCounter("db.classify.cache_hits").Value(), hits0);

  const core::pietql::QueryResult& result = profiled.ValueOrDie().result;
  EXPECT_TRUE(result.geometry_ids.empty());
  ASSERT_TRUE(result.scalar.has_value());
  EXPECT_EQ(*result.scalar, Value(int64_t{0}));
  const SpanNode* intersect =
      profiled.ValueOrDie().profile.Find("moft_intersect");
  ASSERT_NE(intersect, nullptr);
  EXPECT_EQ(intersect->Attr("rows_scanned"), "0");
  EXPECT_EQ(intersect->Attr("short_circuit"), "empty_region_c");
}

TEST_F(EvaluateProfiledTest, ClauseAttrTracksEachBranch) {
  core::pietql::Evaluator eval(scenario_.db.get());
  struct Case {
    const char* query;
    const char* clause;
  };
  const std::vector<Case> cases = {
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus WHERE PASSES THROUGH RESULT",
       "passes_through"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)",
       "near"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT",
       "inside_result"},
      {"SELECT layer.Ln; FROM PietSchema; "
       "| SELECT COUNT(*) FROM FMbus",
       "time_only"},
  };
  for (const Case& c : cases) {
    auto profiled = eval.EvaluateStringProfiled(c.query);
    ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
    const SpanNode* intersect =
        profiled.ValueOrDie().profile.Find("moft_intersect");
    ASSERT_NE(intersect, nullptr) << c.query;
    EXPECT_EQ(intersect->Attr("clause"), c.clause) << c.query;
  }
}

TEST_F(EvaluateProfiledTest, AnalyzeSpanAppearsInCheckMode) {
  core::pietql::Evaluator eval(scenario_.db.get(),
                               analysis::CheckMode::kWarn);
  auto profiled = eval.EvaluateStringProfiled(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE INSIDE RESULT");
  ASSERT_TRUE(profiled.ok()) << profiled.status().ToString();
  EXPECT_NE(profiled.ValueOrDie().profile.Find("analyze"), nullptr);
}

}  // namespace
}  // namespace piet::obs
