// Tests for the static plan rewriter (src/analysis/rewrite/) and the batch
// geometry kernels (src/core/geometry/batch.*):
//
//  - the rw-* rule-id catalog is golden-tested like AllLintCheckIds, and the
//    lint corpus covers every rule via `expect-rewrite` directives;
//  - per-rule behavior and the rewriter's exactness/abstention flags;
//  - rewriting is idempotent through the printer round-trip;
//  - the batch kernels are bit-identical to the scalar Polygon::Contains /
//    Polygon::IntersectsSegment, boundary and vertex points included;
//  - the fix-it contract: evaluating a query's rewrite (the printed
//    RewriteQuery plan, as `pietql_lint --fix` emits it) is
//    result-bit-identical to evaluating the query as written, for every
//    corpus query and all eight Figure-1 query shapes, on a generated city
//    with real trajectories, serial and at four threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint/corpus.h"
#include "analysis/rewrite/rewriter.h"
#include "core/geometry/batch.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/segment.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet::analysis::rewrite {
namespace {

using core::batch::BatchScratch;
using core::batch::PolygonBatcher;
using core::pietql::Evaluator;
using core::pietql::Parse;
using core::pietql::Print;
using core::pietql::Query;
using core::pietql::QueryResult;
using geometry::Point;
using geometry::Polygon;
using geometry::Ring;
using geometry::Segment;
using lint::CheckRewriteExpectations;
using lint::CorpusCase;
using lint::ParseCorpusFile;
using lint::ParseCorpusText;
using lint::RewriteRuleIdsForCase;

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
  EXPECT_EQ(AllRewriteRuleIds(), kExpected);
}

TEST(RewriteCatalogTest, CorpusExpectationsAreInCatalogAndCoverIt) {
  const std::vector<std::string> catalog = AllRewriteRuleIds();
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
    RewriteContext context;
    context.gis = c.instance.get();
    for (const std::string& text : c.queries) {
      auto query = Parse(text);
      if (!query.ok()) {
        continue;  // lint-parse-error territory; nothing to rewrite.
      }
      RewritePlan once = RewriteQuery(context, query.ValueOrDie());
      const std::string printed = Print(once.query);
      auto reparsed = Parse(printed);
      ASSERT_TRUE(reparsed.ok())
          << path << ": rewritten text does not re-parse: " << printed;
      RewritePlan twice = RewriteQuery(context, reparsed.ValueOrDie());
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

  RewritePlan Rewrite(const char* text) {
    auto query = Parse(text);
    EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    return RewriteQuery(context_, query.ValueOrDie());
  }

  static bool Applied(const RewritePlan& plan, const std::string& rule) {
    return std::any_of(
        plan.applied.begin(), plan.applied.end(),
        [&](const AppliedRewrite& a) { return a.rule_id == rule; });
  }

  workload::Figure1Scenario scenario_;
  RewriteContext context_;
};

TEST_F(RewriteRuleTest, EmptyTimeShortCircuits) {
  RewritePlan plan = Rewrite(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE TIME.hour = 25");
  EXPECT_TRUE(plan.mo_zero);
  EXPECT_FALSE(plan.geo_zero);
  EXPECT_TRUE(Applied(plan, "rw-empty-time")) << plan.ToString();
}

TEST_F(RewriteRuleTest, NegativeNearRadiusIsContradictory) {
  RewritePlan plan = Rewrite(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, -5)");
  EXPECT_TRUE(plan.mo_zero);
  EXPECT_TRUE(Applied(plan, "rw-contradictory-spatial")) << plan.ToString();
}

TEST_F(RewriteRuleTest, ShadowedWindowIsDropped) {
  RewritePlan plan = Rewrite(
      "SELECT layer.Ln; FROM PietSchema; "
      "| SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 0 AND 100 AND T BETWEEN 50 AND 80");
  EXPECT_FALSE(plan.mo_zero);
  EXPECT_TRUE(Applied(plan, "rw-drop-redundant-clause")) << plan.ToString();
  ASSERT_TRUE(plan.query.mo.has_value());
  EXPECT_EQ(plan.query.mo->where.size(), 1u);
  EXPECT_NE(Print(plan.query).find("T BETWEEN 50 AND 80"), std::string::npos);
}

TEST_F(RewriteRuleTest, AttrBeforeSpatialReorder) {
  RewritePlan plan = Rewrite(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE INTERSECTION(layer.Ln, layer.Lr) "
      "AND ATTR(layer.Ln, income) < 1500");
  EXPECT_TRUE(Applied(plan, "rw-select-reorder")) << plan.ToString();
  const std::string printed = Print(plan.query);
  EXPECT_LT(printed.find("ATTR"), printed.find("INTERSECTION")) << printed;
}

TEST_F(RewriteRuleTest, EmptyRegionConstantFoldsGeoPart) {
  RewritePlan plan = Rewrite(
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < -10");
  EXPECT_TRUE(plan.geo_zero);
  EXPECT_TRUE(Applied(plan, "rw-empty-region")) << plan.ToString();
}

TEST_F(RewriteRuleTest, CleanQueryIsUntouched) {
  const char* text =
      "SELECT layer.Ln; FROM PietSchema; "
      "WHERE ATTR(layer.Ln, income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT";
  RewritePlan plan = Rewrite(text);
  EXPECT_FALSE(plan.changed()) << plan.ToString();
  EXPECT_FALSE(plan.geo_zero);
  EXPECT_FALSE(plan.mo_zero);
  auto query = Parse(text);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(Print(plan.query), Print(query.ValueOrDie()));
}

// --- Batch geometry kernels vs the scalar predicates ---

// A deliberately nasty polygon: nonconvex L-shaped shell with horizontal
// and vertical edges plus a square hole, so the grid probes below hit
// interior, exterior, hole interior, edges, and vertices exactly.
Polygon MakeLWithHole() {
  Ring shell(std::vector<Point>{{0, 0},
                                {10, 0},
                                {10, 4},
                                {6, 4},
                                {6, 10},
                                {0, 10}});
  Ring hole(std::vector<Point>{{1, 1}, {3, 1}, {3, 3}, {1, 3}});
  return Polygon(std::move(shell), {std::move(hole)});
}

TEST(BatchKernelTest, ContainsBatchMatchesScalarOnAlignedGrid) {
  const Polygon poly = MakeLWithHole();
  PolygonBatcher batcher(&poly);
  std::vector<double> xs;
  std::vector<double> ys;
  // Half-unit grid spanning past the bbox: lands on every edge, every
  // vertex, hole corners, and plenty of strict interior/exterior points.
  for (double y = -1.0; y <= 11.0; y += 0.5) {
    for (double x = -1.0; x <= 11.0; x += 0.5) {
      xs.push_back(x);
      ys.push_back(y);
    }
  }
  BatchScratch scratch;
  std::vector<uint8_t> out;
  batcher.ContainsBatch(xs, ys, &scratch, &out);
  ASSERT_EQ(out.size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(out[i] != 0, poly.Contains(Point(xs[i], ys[i])))
        << "(" << xs[i] << ", " << ys[i] << ")";
  }
}

TEST(BatchKernelTest, ContainsBatchMatchesScalarOnRandomPoints) {
  std::mt19937 rng(20260809);
  std::uniform_real_distribution<double> coord(-2.0, 12.0);
  std::uniform_int_distribution<int> sides(3, 9);
  for (int round = 0; round < 8; ++round) {
    Polygon poly =
        round % 2 == 0
            ? MakeLWithHole()
            : geometry::MakeRegularPolygon(Point(coord(rng), coord(rng)),
                                           1.0 + round, sides(rng));
    PolygonBatcher batcher(&poly);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < 500; ++i) {
      xs.push_back(coord(rng));
      ys.push_back(coord(rng));
    }
    // Also replay the polygon's own vertices: exact boundary hits.
    for (const Point& v : poly.shell().vertices()) {
      xs.push_back(v.x);
      ys.push_back(v.y);
    }
    BatchScratch scratch;
    std::vector<uint8_t> out;
    batcher.ContainsBatch(xs, ys, &scratch, &out);
    ASSERT_EQ(out.size(), xs.size());
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(out[i] != 0, poly.Contains(Point(xs[i], ys[i])))
          << "round " << round << " (" << xs[i] << ", " << ys[i] << ")";
    }
  }
}

TEST(BatchKernelTest, AnyLegIntersectsMatchesScalarSegments) {
  const Polygon poly = MakeLWithHole();
  PolygonBatcher batcher(&poly);
  std::mt19937 rng(424242);
  std::uniform_real_distribution<double> coord(-4.0, 14.0);
  std::uniform_int_distribution<int> len(1, 12);
  for (int walk = 0; walk < 200; ++walk) {
    const int n = len(rng);
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < n; ++i) {
      xs.push_back(coord(rng));
      ys.push_back(coord(rng));
    }
    bool scalar = false;
    for (int i = 0; i + 1 < n; ++i) {
      if (poly.IntersectsSegment(Segment(Point(xs[i], ys[i]),
                                         Point(xs[i + 1], ys[i + 1])))) {
        scalar = true;
        break;
      }
    }
    EXPECT_EQ(batcher.AnyLegIntersects(xs, ys), scalar) << "walk " << walk;
  }
  // Fewer than two points can have no leg.
  std::vector<double> one{5.0};
  EXPECT_FALSE(batcher.AnyLegIntersects(one, one));
  // A leg that only grazes a vertex still counts (closed polygon).
  std::vector<double> gx{-1.0, 1.0};
  std::vector<double> gy{1.0, -1.0};
  EXPECT_EQ(batcher.AnyLegIntersects(gx, gy),
            poly.IntersectsSegment(Segment(Point(-1, 1), Point(1, -1))));
}

// --- Fix-it exactness: the rewritten query answers like the original ---

void ExpectSameOutcome(const Result<QueryResult>& original,
                       const Result<QueryResult>& fixed,
                       const std::string& tag) {
  ASSERT_EQ(original.ok(), fixed.ok())
      << tag << ": original=" << original.status().ToString()
      << " fixed=" << fixed.status().ToString();
  if (!original.ok()) {
    // The rewriter must abstain from rewrites that would suppress an
    // evaluation error: same status, same message.
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

// Evaluates `text` as written and as its fix-it (the rewriter's plan
// printed back to Piet-QL) on the same evaluator; both must agree.
void ExpectFixItPreservesAnswer(const Evaluator& eval,
                                const RewriteContext& context,
                                const std::string& text,
                                const std::string& tag) {
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << tag << ": " << parsed.status().ToString();
  const std::string fixed =
      Print(RewriteQuery(context, parsed.ValueOrDie()).query);
  ExpectSameOutcome(eval.EvaluateString(text), eval.EvaluateString(fixed),
                    tag + " fixed=" + fixed);
}

// All eight Figure-1 query shapes (the frozen-baseline list of
// parallel_determinism_test.cc) plus rewrite-triggering variants.
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
    // Rewrite-triggering variants of the same shapes.
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
    RewriteContext context;
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
  RewriteContext context;
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
    RewriteContext context;
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
        // Grouped aggregate downstream of the rewritten scan.
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
}  // namespace piet::analysis::rewrite
