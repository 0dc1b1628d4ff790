#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/lint/corpus.h"
#include "analysis/lint/query_lint.h"
#include "analysis/lint/schema_lint.h"
#include "analysis/lint/time_domain.h"
#include "analysis/query_check.h"
#include "common/random.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "geometry/point.h"
#include "moving/moft.h"
#include "temporal/interval.h"
#include "temporal/time_point.h"
#include "workload/scenario.h"

namespace piet::analysis::lint {
namespace {

using temporal::Interval;
using temporal::TimePoint;

constexpr double kHour = 3600.0;
constexpr double kDay = 24.0 * kHour;

// --- TimeAbstract domain ---

TEST(TimeDomainTest, HourOutOfRangeIsDead) {
  TimeAbstract t;
  EXPECT_EQ(t.MeetLevelEquals("hour", Value(int64_t{25})), TimeFold::kDead);
  EXPECT_TRUE(t.IsBottom());
}

TEST(TimeDomainTest, AllLevelIsAlways) {
  TimeAbstract t;
  EXPECT_EQ(t.MeetLevelEquals("all", Value(std::string("all"))),
            TimeFold::kAlways);
  EXPECT_FALSE(t.IsBottom());
}

TEST(TimeDomainTest, DisjointHourMasksMeetToBottom) {
  TimeAbstract t;
  // Morning is [6, 12); hour 3 lies in Night.
  EXPECT_EQ(t.MeetLevelEquals("timeOfDay", Value(std::string("Morning"))),
            TimeFold::kFolded);
  EXPECT_FALSE(t.IsBottom());
  EXPECT_EQ(t.MeetLevelEquals("hour", Value(int64_t{3})), TimeFold::kFolded);
  EXPECT_TRUE(t.IsBottom());
}

TEST(TimeDomainTest, WindowAgainstWeekPeriodicMask) {
  // The epoch (2000-01-01) is a Saturday, so the first day never overlaps
  // a Wednesday...
  TimeAbstract wed;
  wed.MeetWindow(Interval(TimePoint(0.0), TimePoint(kDay)));
  EXPECT_EQ(wed.MeetLevelEquals("dayOfWeek", Value(std::string("Wednesday"))),
            TimeFold::kFolded);
  EXPECT_TRUE(wed.IsBottom());

  // ...but does overlap Saturday.
  TimeAbstract sat;
  sat.MeetWindow(Interval(TimePoint(0.0), TimePoint(kDay)));
  EXPECT_EQ(sat.MeetLevelEquals("dayOfWeek", Value(std::string("Saturday"))),
            TimeFold::kFolded);
  EXPECT_FALSE(sat.IsBottom());
}

TEST(TimeDomainTest, LongWindowAlwaysFeasibleAgainstNonEmptyMasks) {
  // Day-of-week and hour masks are week-periodic: any window of at least
  // eight days meets every surviving mask bit.
  TimeAbstract t;
  t.MeetWindow(Interval(TimePoint(0.0), TimePoint(9.0 * kDay)));
  t.MeetLevelEquals("dayOfWeek", Value(std::string("Wednesday")));
  t.MeetLevelEquals("timeOfDay", Value(std::string("Night")));
  EXPECT_FALSE(t.IsBottom());
}

TEST(TimeDomainTest, DisjointWindowsMeetToBottom) {
  TimeAbstract t;
  t.MeetWindow(Interval(TimePoint(0.0), TimePoint(100.0)));
  EXPECT_FALSE(t.IsBottom());
  t.MeetWindow(Interval(TimePoint(200.0), TimePoint(300.0)));
  EXPECT_TRUE(t.IsBottom());
}

TEST(TimeDomainTest, LevelEqualsWindowFoldsAbsoluteLevels) {
  auto bucket = TimeAbstract::LevelEqualsWindow("hourBucket",
                                               Value(int64_t{3600}));
  ASSERT_TRUE(bucket.has_value());
  EXPECT_DOUBLE_EQ(bucket->begin.seconds, 3600.0);
  EXPECT_DOUBLE_EQ(bucket->end.seconds, 7200.0);

  // Non-canonical bucket start: no window (the clause is dead, which
  // MeetLevelEquals reports separately).
  EXPECT_FALSE(
      TimeAbstract::LevelEqualsWindow("hourBucket", Value(int64_t{100}))
          .has_value());
  // Periodic levels never fold to a window.
  EXPECT_FALSE(TimeAbstract::LevelEqualsWindow("hour", Value(int64_t{9}))
                   .has_value());
}

// --- Check-ID catalog ---

TEST(LintCatalogTest, CatalogIsSortedAndUnique) {
  std::vector<std::string> ids = AllLintCheckIds();
  EXPECT_GE(ids.size(), 17u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  for (const std::string& id : ids) {
    EXPECT_EQ(id.rfind("lint-", 0), 0u) << id;
  }
}

// --- Schema lattice verifier on raw models ---

TEST(SchemaLintTest, NonFunctionalRollupFires) {
  SchemaModel model;
  SchemaModel::Graph graph;
  graph.layer = "Lr";
  graph.edges = {{gis::GeometryKind::kPoint, gis::GeometryKind::kLine},
                 {gis::GeometryKind::kLine, gis::GeometryKind::kPolyline},
                 {gis::GeometryKind::kPolyline, gis::GeometryKind::kAll}};
  model.graphs.push_back(graph);
  SchemaModel::Rollup rollup;
  rollup.layer = "Lr";
  rollup.fine = gis::GeometryKind::kLine;
  rollup.coarse = gis::GeometryKind::kPolyline;
  rollup.pairs = {{0, 0}, {0, 1}};
  model.rollups.push_back(rollup);

  DiagnosticList diags = LintSchema(model);
  EXPECT_TRUE(diags.Has("lint-rollup-functional")) << diags.ToString();
  EXPECT_TRUE(diags.HasErrors());
}

/// Layer "Ln" with polygons 0 and 1 declared, and attribute "nb" bound to
/// `kind` of it.
SchemaModel AlphaModel(gis::GeometryKind kind) {
  SchemaModel model;
  model.graphs.push_back(
      {"Ln", gis::GeometryGraph::PolygonLayerGraph().edges()});
  model.attributes.push_back({"nb", kind, "Ln"});
  model.levels.push_back({"Ln", gis::GeometryKind::kPolygon, {0, 1}});
  return model;
}

TEST(SchemaLintTest, AlphaFunctionalityIsCheckedPerMember) {
  SchemaModel model = AlphaModel(gis::GeometryKind::kPolygon);
  // "a" binds two geometries (and repeats one pair); "b" binds one.
  model.alphas.push_back(
      {"nb", {{Value("a"), 0}, {Value("b"), 1}, {Value("a"), 1},
              {Value("a"), 0}}});
  const DiagnosticList diags = LintSchema(model);
  ASSERT_EQ(diags.size(), 1u) << diags.ToString();
  EXPECT_EQ(diags[0].check_id, "lint-alpha-functional");
  EXPECT_NE(diags[0].message.find("member \"a\" maps to 2 geometries"),
            std::string::npos)
      << diags.ToString();
}

TEST(SchemaLintTest, AlphaBoundToAnUndeclaredLevelIsCheckedAgainstItsLayer) {
  // Att names the point level, which declares no universe; the α geometry
  // must still be an element of layer Ln, as a live instance resolves it.
  SchemaModel model = AlphaModel(gis::GeometryKind::kPoint);
  model.alphas.push_back({"nb", {{Value("a"), 1}}});
  EXPECT_TRUE(LintSchema(model).empty()) << LintSchema(model).ToString();

  model.alphas.front().pairs.emplace_back(Value("b"), 7);
  const DiagnosticList diags = LintSchema(model);
  EXPECT_EQ(diags.CheckIds(), std::vector<std::string>{"lint-alpha-dangling"})
      << diags.ToString();
}

TEST(SchemaLintTest, CleanFigure1InstanceLintsClean) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  SchemaModel model = SchemaModel::FromInstance(scenario.ValueOrDie().db->gis());
  DiagnosticList diags = LintSchema(model);
  EXPECT_TRUE(diags.empty()) << diags.ToString();
}

// --- Seeded-defect corpus sweep ---

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

TEST(LintCorpusTest, EveryCaseMatchesItsExpectations) {
  std::vector<std::string> paths = CorpusPaths();
  ASSERT_GE(paths.size(), 15u);
  for (const std::string& path : paths) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    const CorpusCase& c = parsed.ValueOrDie();
    DiagnosticList found = LintCase(c);
    EXPECT_TRUE(CheckExpectations(c, found).ok())
        << path << ": " << CheckExpectations(c, found).ToString() << "\n"
        << found.ToString();
  }
}

TEST(LintCorpusTest, EveryExpectedIdIsInTheCatalog) {
  std::vector<std::string> catalog = AllLintCheckIds();
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    for (const std::string& id : parsed.ValueOrDie().expected_ids) {
      EXPECT_TRUE(std::binary_search(catalog.begin(), catalog.end(), id))
          << path << " expects unknown check ID " << id;
    }
  }
}

TEST(LintCorpusTest, EstimateExpectationsHold) {
  for (const std::string& path : CorpusPaths()) {
    auto parsed = ParseCorpusFile(path);
    ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    const Status st = CheckEstimateExpectations(parsed.ValueOrDie());
    EXPECT_TRUE(st.ok()) << path << ": " << st.ToString();
  }
}

// --- Corpus fuzzing ---

/// One random edit of corpus text: a byte replaced by a character the
/// grammar gives meaning to, a line dropped, duplicated or swapped, or a
/// number token replaced by an extreme one.
std::string Mutate(Random* rng, std::string text) {
  static const std::string kBytes = "0123456789 -.:()>,'\"\n#abcdefsix";
  static const std::vector<std::string> kNumbers = {
      "-1", "0", "4294967296", "99999999999999999999", "1e308", "-1e308",
      "nan", "inf", "0.5", ""};
  std::vector<std::string> lines;
  for (size_t begin = 0; begin < text.size();) {
    size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    lines.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  if (lines.empty()) {
    return text;
  }
  const size_t line = rng->Uniform(lines.size());
  switch (rng->Uniform(5)) {
    case 0:
      if (!lines[line].empty()) {
        lines[line][rng->Uniform(lines[line].size())] =
            kBytes[rng->Uniform(kBytes.size())];
      }
      break;
    case 1:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(line));
      break;
    case 2:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(line),
                   lines[line]);
      break;
    case 3:
      std::swap(lines[line], lines[rng->Uniform(lines.size())]);
      break;
    default: {
      std::string& l = lines[line];
      const size_t digit = l.find_first_of("0123456789", rng->Uniform(
                                                             l.size() + 1));
      if (digit != std::string::npos) {
        const size_t end = l.find_first_not_of("0123456789.", digit);
        l.replace(digit, (end == std::string::npos ? l.size() : end) - digit,
                  kNumbers[rng->Uniform(kNumbers.size())]);
      }
      break;
    }
  }
  std::string out;
  for (const std::string& l : lines) {
    out += l;
  }
  return out;
}

TEST(LintCorpusFuzzTest, MutatedCasesReturnStatusAndNeverCrash) {
  std::vector<std::string> texts;
  for (const std::string& path : CorpusPaths()) {
    std::ifstream in(path);
    texts.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(texts.empty());
  Random rng(20261019);
  size_t parsed = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::string text = texts[rng.Uniform(texts.size())];
    const uint64_t edits = 1 + rng.Uniform(4);
    for (uint64_t e = 0; e < edits; ++e) {
      text = Mutate(&rng, std::move(text));
    }
    auto c = ParseCorpusText("fuzz" + std::to_string(iter), text);
    if (!c.ok()) {
      ++rejected;
      continue;
    }
    ++parsed;
    const CorpusCase& corpus_case = c.ValueOrDie();
    (void)CheckExpectations(corpus_case, LintCase(corpus_case));
    (void)CheckRewriteExpectations(corpus_case);
    (void)CheckEstimateExpectations(corpus_case);
  }
  // The mutations must exercise both the parser's rejections and the
  // analyses behind it.
  EXPECT_GT(parsed, 200u);
  EXPECT_GT(rejected, 200u);
}

// --- Evaluator wiring ---

class LintEvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::move(scenario).ValueOrDie();
  }

  workload::Figure1Scenario scenario_;
};

TEST_F(LintEvaluatorTest, WarnModeSurfacesLintFindings) {
  core::pietql::Evaluator warn(scenario_.db.get(), CheckMode::kWarn);
  auto result = warn.EvaluateString(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 200 AND 100;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const DiagnosticList& diags = result.ValueOrDie().diagnostics;
  ASSERT_TRUE(diags.Has("lint-dead-clause")) << diags.ToString();
  // The finding carries a machine-applicable swap fix-it.
  bool has_fixit = false;
  for (const Diagnostic& d : diags) {
    if (d.check_id == "lint-dead-clause") {
      has_fixit = d.fixit == "T BETWEEN 100 AND 200";
    }
  }
  EXPECT_TRUE(has_fixit) << diags.ToString();
}

TEST_F(LintEvaluatorTest, StrictModeStillAcceptsLintWarnings) {
  // Query lint findings are warnings/notes by design: a dead clause
  // evaluates to an empty result, which kStrict must keep accepting.
  core::pietql::Evaluator strict(scenario_.db.get(), CheckMode::kStrict);
  auto result = strict.EvaluateString(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 200 AND 100;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().diagnostics.Has("lint-dead-clause"));
  EXPECT_FALSE(result.ValueOrDie().diagnostics.HasErrors());
}

TEST_F(LintEvaluatorTest, OffModeRunsNoLint) {
  core::pietql::Evaluator off(scenario_.db.get(), CheckMode::kOff);
  auto result = off.EvaluateString(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 200 AND 100;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().diagnostics.empty());
}

TEST_F(LintEvaluatorTest, FastpathNoteCarriesRewriteFixit) {
  QueryContext context;
  context.gis = &scenario_.db->gis();
  context.moft_names = scenario_.db->MoftNames();
  auto query = core::pietql::Parse(
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FMbus "
      "WHERE T BETWEEN 0 AND 7200 AND TIME.hourBucket = 3600;");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  DiagnosticList diags = LintQuery(context, query.ValueOrDie());
  ASSERT_TRUE(diags.Has("lint-fastpath-defeated")) << diags.ToString();
  bool found = false;
  for (const Diagnostic& d : diags) {
    if (d.check_id == "lint-fastpath-defeated") {
      found = true;
      // T BETWEEN is closed and the hour bucket half-open, so the window
      // ends at the double before 7200 (FixQuery's rw-fold-time-window).
      EXPECT_EQ(d.fixit,
                "rewrite TIME.hourBucket = 3600 as T BETWEEN 3600 AND "
                "7199.999999999999");
      EXPECT_EQ(d.severity, Severity::kNote);
    }
  }
  EXPECT_TRUE(found);
}

// The fast-path fix-it, applied as written, answers like the query: on a
// MOFT with samples at the bucket's start, inside it, and two at its
// exclusive end (7200, hour bucket 7200), both count the first two only.
TEST_F(LintEvaluatorTest, FastpathFixitAnswersLikeTheQuery) {
  moving::Moft edge;
  ASSERT_TRUE(edge.Add(1, TimePoint(3600), geometry::Point(0, 0)).ok());
  ASSERT_TRUE(edge.Add(2, TimePoint(5000), geometry::Point(0, 0)).ok());
  ASSERT_TRUE(edge.Add(3, TimePoint(7200), geometry::Point(0, 0)).ok());
  ASSERT_TRUE(edge.Add(4, TimePoint(7200), geometry::Point(0, 0)).ok());
  ASSERT_TRUE(scenario_.db->AddMoft("edge", std::move(edge)).ok());
  QueryContext context;
  context.gis = &scenario_.db->gis();
  context.moft_names = scenario_.db->MoftNames();
  const std::string clause = "TIME.hourBucket = 3600";
  const std::string text =
      "SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM edge "
      "WHERE T BETWEEN 0 AND 7200 AND " + clause;
  auto query = core::pietql::Parse(text);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::string fixit;
  for (const Diagnostic& d : LintQuery(context, query.ValueOrDie())) {
    if (d.check_id == "lint-fastpath-defeated") {
      fixit = d.fixit;
    }
  }
  // "rewrite <clause> as <replacement>": substitute it into the text.
  const std::string prefix = "rewrite " + clause + " as ";
  ASSERT_EQ(fixit.rfind(prefix, 0), 0u) << fixit;
  const std::string fixed =
      text.substr(0, text.size() - clause.size()) + fixit.substr(prefix.size());

  core::pietql::Evaluator eval(scenario_.db.get());
  auto original = eval.EvaluateString(text);
  auto rewritten = eval.EvaluateString(fixed);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(rewritten.ok()) << fixed << ": " << rewritten.status().ToString();
  ASSERT_TRUE(original.ValueOrDie().scalar.has_value());
  EXPECT_EQ(original.ValueOrDie().scalar->ToString(), "2");
  EXPECT_EQ(original.ValueOrDie().ToString(),
            rewritten.ValueOrDie().ToString())
      << fixed;
}

}  // namespace
}  // namespace piet::analysis::lint
