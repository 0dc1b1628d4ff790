#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/estimate/estimate.h"
#include "analysis/lint/corpus.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "era_city.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "workload/scenario.h"

namespace piet::analysis::estimate {
namespace {

using lint::CorpusCase;
using lint::EstimateForCase;
using lint::ParseCorpusText;
using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::QueryRecord;

// ---------------------------------------------------------------------------
// Fixture: the era city (tests/era_city.h) rebuilt in each storage tier.
// The tiers exercise the decoded/skipped accounting the estimator bounds.

enum class Tier { kRaw, kCompressed, kSpilled };

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kRaw:
      return "raw";
    case Tier::kCompressed:
      return "compressed";
    case Tier::kSpilled:
      return "spilled";
  }
  return "?";
}

std::unique_ptr<core::GeoOlapDatabase> MakeCityDb(Tier tier) {
  moving::BlockOptions opts;
  if (tier != Tier::kRaw) {
    opts.block_rows = 256;
    opts.compress = true;
    opts.spill_dir = ::testing::TempDir();
  }
  std::unique_ptr<core::GeoOlapDatabase> db =
      test_support::MakeEraCity(opts, /*overlay=*/true);
  const moving::Moft* stored = db->GetMoft("cars").ValueOrDie();
  if (tier == Tier::kSpilled) {
    EXPECT_TRUE(stored->SpillToDisk().ok());
  } else if (tier == Tier::kCompressed) {
    stored->ReleaseHot();
  }
  return db;
}

// ---------------------------------------------------------------------------
// Property: for every successfully evaluated query, the flight-recorder
// counters land inside the static intervals — across storage tiers and
// thread counts, warm and cold caches alike.

TEST(EstimateSoundnessTest, FlightCountersLandInsideStaticIntervals) {
  obs::SetEnabled(true);
  const std::vector<std::string> queries = test_support::MakeEraQueries(7);
  for (Tier tier : {Tier::kRaw, Tier::kCompressed, Tier::kSpilled}) {
    std::unique_ptr<core::GeoOlapDatabase> db = MakeCityDb(tier);
    core::pietql::Evaluator eval(db.get());
    eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOn);
    eval.set_estimate_mode(EstimateMode::kOn);
    eval.set_admission_budget(AdmissionBudget{});
    const std::string arm = TierName(tier);
    for (int threads : {1, 4}) {
      eval.set_num_threads(threads);
      MetricsRegistry::Global().Reset();
      FlightRecorder::Options opts;
      opts.capacity = queries.size() + 8;
      FlightRecorder::Global().Configure(opts);
      for (const std::string& q : queries) {
        (void)eval.EvaluateString(q);
      }
      const std::vector<QueryRecord> flight =
          FlightRecorder::Global().Snapshot();
      ASSERT_EQ(flight.size(), queries.size());
      size_t checked = 0;
      for (const QueryRecord& rec : flight) {
        if (!rec.error.empty()) {
          continue;
        }
        ASSERT_TRUE(rec.has_estimate)
            << arm << "/" << threads << ": " << rec.text;
        EXPECT_EQ(rec.EstimateViolation(), "")
            << arm << "/" << threads << ": " << rec.text;
        ++checked;
      }
      // The generator must not degenerate into all-error queries.
      EXPECT_GE(checked, queries.size() / 2);
      const obs::MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
      auto counter = [&snap](const std::string& name) {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? int64_t{0} : it->second;
      };
      EXPECT_EQ(counter("pietql.estimate.violations"), 0)
          << arm << "/" << threads;
      EXPECT_EQ(counter("pietql.estimate.checked"),
                static_cast<int64_t>(checked))
          << arm << "/" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// The evaluator skips the scan of INSIDE RESULT over an empty region. A
// spatial geo clause is over-approximated by bbox candidates, so the
// estimator cannot prove the region empty — it must still admit the
// skipped scan: 0 rows scanned, 0 blocks skipped. Here the triangle's box
// meets the square's box, but the shapes are disjoint.

TEST(EstimateSoundnessTest, InexactEmptyRegionAdmitsTheSkippedScan) {
  const char* kCase =
      "layer Ln polygon\n"
      "layer Lr polygon\n"
      "graph Ln point->polygon polygon->All\n"
      "graph Lr point->polygon polygon->All\n"
      "elem Ln POLYGON((0 0, 100 0, 0 100, 0 0))\n"
      "elem Lr POLYGON((80 80, 100 80, 100 100, 80 100, 80 80))\n"
      "moft FM\n";
  auto case_or = ParseCorpusText("inexact_empty_region", kCase);
  ASSERT_TRUE(case_or.ok()) << case_or.status().ToString();
  const CorpusCase& c = case_or.ValueOrDie();
  core::GeoOlapDatabase db(*c.instance);
  ASSERT_TRUE(db.AddMoft("FM", lint::CorpusEstimateMoft()).ok());
  ASSERT_TRUE(db.BuildOverlay({"Ln", "Lr"}, /*convex=*/false,
                              /*quadtree_depth=*/6)
                  .ok());
  core::pietql::Evaluator eval(&db);
  eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOff);
  eval.set_estimate_mode(EstimateMode::kOn);
  eval.set_admission_budget(AdmissionBudget{});

  obs::SetEnabled(true);
  FlightRecorder::Options opts;
  opts.capacity = 8;
  FlightRecorder::Global().Configure(opts);
  const std::string q =
      "SELECT layer.Ln; FROM S; WHERE INTERSECTION(layer.Ln, layer.Lr) "
      "| SELECT COUNT(*) FROM FM WHERE INSIDE RESULT";
  auto result = eval.EvaluateString(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().geometry_ids.empty());

  const std::vector<QueryRecord> flight = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(flight.size(), 1u);
  const QueryRecord& rec = flight.front();
  ASSERT_TRUE(rec.has_estimate);
  EXPECT_EQ(rec.rows_scanned, 0);
  EXPECT_EQ(rec.blocks_skipped, 0);
  EXPECT_GT(rec.est_rows_hi, 0);  // The estimator cannot prove emptiness.
  EXPECT_EQ(rec.EstimateViolation(), "") << rec.text;
}

// ---------------------------------------------------------------------------
// CONTAINS needs a polygon left layer: over a polyline result layer every
// per-pair test errors, the evaluator swallows each error as a miss, and
// the clause keeps nothing. The estimate proves that exactly.

TEST(EstimateSoundnessTest, ContainsOverNonPolygonLayerKeepsNothing) {
  const char* kCase =
      "layer Ln polygon\n"
      "layer Lr polyline\n"
      "graph Ln point->polygon polygon->All\n"
      "graph Lr point->line line->polyline polyline->All\n"
      "elem Ln POLYGON((0 0, 100 0, 100 100, 0 100, 0 0))\n"
      "elem Lr LINESTRING(10 10, 20 20)\n"
      "query SELECT layer.Lr; FROM S; WHERE CONTAINS(layer.Lr, layer.Ln)\n";
  auto case_or = ParseCorpusText("contains_non_polygon", kCase);
  ASSERT_TRUE(case_or.ok()) << case_or.status().ToString();
  const CorpusCase& c = case_or.ValueOrDie();
  ASSERT_NE(c.instance, nullptr);

  core::GeoOlapDatabase db(*c.instance);
  core::pietql::Evaluator eval(&db);
  auto result = eval.EvaluateString(c.queries.front());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.ValueOrDie().geometry_ids.empty());

  auto est = EstimateForCase(c, 0);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(est.ValueOrDie().region_ids.lo, 0);
  EXPECT_EQ(est.ValueOrDie().region_ids.hi, 0);
  EXPECT_TRUE(est.ValueOrDie().region_exact);
  EXPECT_NE(est.ValueOrDie().ToString().find("ids=[0,0] exact=yes"),
            std::string::npos)
      << est.ValueOrDie().ToString();

  // The estimate reads the lint geo walk, so lint proves the clause dead.
  const DiagnosticList findings = lint::LintCase(c);
  EXPECT_TRUE(findings.Has("lint-dead-clause")) << findings.ToString();
  EXPECT_TRUE(findings.Has("lint-empty-region")) << findings.ToString();
}

// ---------------------------------------------------------------------------
// Property: with an empty budget the estimator is observation-only — query
// results (and error statuses) are byte-identical with the estimator on or
// off, serially and under a thread pool.

TEST(EstimateByteIdentityTest, ResultsMatchWithEstimatorOnAndOff) {
  obs::SetEnabled(false);
  const std::vector<std::string> queries = test_support::MakeEraQueries(13);
  for (int threads : {1, 4}) {
    // Two identically-built databases so cache warm-up states stay aligned.
    std::unique_ptr<core::GeoOlapDatabase> db_off = MakeCityDb(Tier::kCompressed);
    std::unique_ptr<core::GeoOlapDatabase> db_on = MakeCityDb(Tier::kCompressed);
    core::pietql::Evaluator off(db_off.get());
    core::pietql::Evaluator on(db_on.get());
    for (core::pietql::Evaluator* eval : {&off, &on}) {
      eval->set_agg_cache_mode(core::aggcache::AggCacheMode::kOn);
      eval->set_admission_budget(AdmissionBudget{});
      eval->set_num_threads(threads);
    }
    off.set_estimate_mode(EstimateMode::kOff);
    on.set_estimate_mode(EstimateMode::kOn);
    for (const std::string& q : queries) {
      auto a = off.EvaluateString(q);
      auto b = on.EvaluateString(q);
      ASSERT_EQ(a.ok(), b.ok()) << q;
      if (a.ok()) {
        EXPECT_EQ(a.ValueOrDie().ToString(), b.ValueOrDie().ToString()) << q;
      } else {
        EXPECT_EQ(a.status().ToString(), b.status().ToString()) << q;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ESTIMATE golden over the Figure 1 scenario (deterministic seed
// data, no overlay): the rendered plan + estimate tree is part of the
// shell's contract.

constexpr const char* kInsideCount =
    "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500 "
    "| SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT";

// The Figure 1 database with FMbus registered under explicit storage (the
// default options: one block without a payload), so the golden does not
// follow PIET_BLOCK_ROWS / PIET_COMPRESS from the environment.
std::unique_ptr<core::GeoOlapDatabase> Figure1WithoutBlocks() {
  auto scenario = workload::BuildFigure1Scenario();
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  const core::GeoOlapDatabase& src = *scenario.ValueOrDie().db;
  auto db = std::make_unique<core::GeoOlapDatabase>(src.gis());
  const moving::MoftColumns& cols =
      src.GetMoft("FMbus").ValueOrDie()->Columns();
  moving::Moft fmbus;
  fmbus.SetBlockOptions(moving::BlockOptions{});
  for (size_t i = 0; i < cols.size(); ++i) {
    const moving::Sample s = cols.at(i);
    EXPECT_TRUE(fmbus.Add(s.oid, s.t, s.pos).ok());
  }
  EXPECT_TRUE(db->AddMoft("FMbus", std::move(fmbus)).ok());
  return db;
}

TEST(ExplainEstimateTest, GoldenOverFigure1) {
  const std::unique_ptr<core::GeoOlapDatabase> db = Figure1WithoutBlocks();
  core::pietql::Evaluator eval(db.get());
  eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOn);
  eval.set_estimate_mode(EstimateMode::kOn);
  auto out = eval.ExplainEstimate(kInsideCount);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.ValueOrDie(),
            "plan: SELECT layer.Ln; FROM PietSchema; "
            "WHERE ATTR(layer.Ln, income) < 1500 | "
            "SELECT COUNT(DISTINCT OID) FROM FMbus WHERE INSIDE RESULT\n"
            "estimate (clause=inside_result)\n"
            "  geo_filter      layer=Ln conditions=1 ids=[1,1] exact=yes\n"
            "  moft_intersect  moft=FMbus rows_scanned=[12,12] tuples=[0,12] "
            "blocks=[1,1] blocks_skipped=[0,0] blocks_decoded=[0,0] "
            "cache_servable=no\n"
            "  aggregate       kind=count_distinct_oid result_rows=[1,1]\n"
            "cost ~ 576 (bytes_decoded=[0,0])");
}

// A window far past the calendar's range, met with an hour mask: the time
// domain's feasibility walk steps hour by hour, and at 1e20 s a one-hour
// step no longer advances t. The estimate, the analyze stage and the
// evaluation must all finish, and the estimate must hold.
TEST(ExplainEstimateTest, WindowsPastTheCalendarFinishAndStaySound) {
  const std::unique_ptr<core::GeoOlapDatabase> db = Figure1WithoutBlocks();
  core::pietql::Evaluator eval(db.get());
  eval.set_estimate_mode(EstimateMode::kOn);
  eval.set_admission_budget(AdmissionBudget{});
  eval.set_check_mode(CheckMode::kWarn);
  obs::SetEnabled(true);
  FlightRecorder::Options opts;
  opts.capacity = 8;
  FlightRecorder::Global().Configure(opts);
  for (const char* t : {"1e20", "1e300", "-1e300"}) {
    SCOPED_TRACE(t);
    const std::string q =
        std::string("SELECT layer.Ln; FROM PietSchema; | SELECT COUNT(*) "
                    "FROM FMbus WHERE T BETWEEN ") +
        t + " AND " + t + " AND TIME.hour = 5";
    auto explained = eval.ExplainEstimate(q);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    auto result = eval.EvaluateString(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().scalar, Value(int64_t{0}));
    const std::vector<QueryRecord> flight =
        FlightRecorder::Global().Snapshot();
    ASSERT_FALSE(flight.empty());
    ASSERT_TRUE(flight.back().has_estimate);
    EXPECT_EQ(flight.back().EstimateViolation(), "");
  }
  FlightRecorder::Options off;
  off.capacity = 0;
  FlightRecorder::Global().Configure(off);
  obs::SetEnabled(false);
}

// ---------------------------------------------------------------------------
// The admission check-ID catalog is stable and sorted (docs and the lint
// corpus reference these IDs by name).

TEST(EstimateCheckCatalogTest, StableSortedIds) {
  const std::vector<std::string> ids = AllEstimateCheckIds();
  EXPECT_EQ(ids, (std::vector<std::string>{"lint-est-budget-blocks",
                                           "lint-est-budget-cost",
                                           "lint-est-budget-rows"}));
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// ---------------------------------------------------------------------------
// Admission verdicts, on estimates obtained through the real derivation
// paths (Evaluator::EstimateQuery and the corpus harness — ResourceEstimate
// is never constructed outside src/analysis/estimate/).

TEST(AdmissionTest, ExactIntervalAcceptsAtAndRejectsBelowTheBound) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::pietql::Evaluator eval(scenario.ValueOrDie().db.get());
  eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOn);
  auto query = core::pietql::Parse(kInsideCount);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto est_or = eval.EstimateQuery(query.ValueOrDie());
  ASSERT_TRUE(est_or.ok()) << est_or.status().ToString();
  const ResourceEstimate& est = est_or.ValueOrDie();
  // Figure 1 has no overlay, so nothing is cache-servable and the full
  // scan is a certainty: a provable lower bound to reject against.
  ASSERT_FALSE(est.cache_servable);
  ASSERT_GT(est.rows_scanned.lo, 0);

  EXPECT_EQ(Admit(est, AdmissionBudget{}).verdict, AdmissionVerdict::kAccept);

  AdmissionBudget fits;
  fits.max_rows_scanned = est.rows_scanned.hi;
  EXPECT_EQ(Admit(est, fits).verdict, AdmissionVerdict::kAccept);

  AdmissionBudget blown;
  blown.max_rows_scanned = est.rows_scanned.lo - 1;
  const AdmissionDecision reject = Admit(est, blown);
  EXPECT_EQ(reject.verdict, AdmissionVerdict::kReject);
  EXPECT_TRUE(reject.diagnostics.HasErrors());
  EXPECT_TRUE(reject.diagnostics.Has("lint-est-budget-rows"))
      << reject.diagnostics.ToString();

  AdmissionBudget costly;
  costly.max_cost = 1.0;
  ASSERT_GT(est.cost, costly.max_cost);
  const AdmissionDecision cost_reject = Admit(est, costly);
  EXPECT_EQ(cost_reject.verdict, AdmissionVerdict::kReject);
  EXPECT_TRUE(cost_reject.diagnostics.Has("lint-est-budget-cost"))
      << cost_reject.diagnostics.ToString();
}

TEST(AdmissionTest, WideIntervalWarnsInsteadOfRejecting) {
  // The cache-servable corpus case lower-bounds rows at 0: the budget can
  // only *possibly* be blown, so the verdict must stay a warning.
  const char* kCase =
      "layer Ln polygon\n"
      "graph Ln point->polygon polygon->All\n"
      "elem Ln POLYGON((0 0, 100 0, 100 100, 0 100, 0 0))\n"
      "moft FM\n"
      "query SELECT layer.Ln; FROM S; | SELECT COUNT(*) FROM FM WHERE "
      "INSIDE RESULT AND T BETWEEN 1767657600 AND 1767664800 "
      "GROUP BY TIME.hour\n";
  auto case_or = ParseCorpusText("admission_warn", kCase);
  ASSERT_TRUE(case_or.ok()) << case_or.status().ToString();
  auto est_or = EstimateForCase(case_or.ValueOrDie(), 0);
  ASSERT_TRUE(est_or.ok()) << est_or.status().ToString();
  const ResourceEstimate& est = est_or.ValueOrDie();
  ASSERT_TRUE(est.cache_servable);
  ASSERT_EQ(est.rows_scanned.lo, 0);
  ASSERT_GT(est.rows_scanned.hi, 0);

  AdmissionBudget tight;
  tight.max_rows_scanned = est.rows_scanned.hi - 1;
  tight.max_blocks_decoded =
      est.blocks_decoded.hi > 0 ? est.blocks_decoded.hi - 1 : 1;
  const AdmissionDecision warn = Admit(est, tight);
  EXPECT_EQ(warn.verdict, AdmissionVerdict::kWarn);
  EXPECT_FALSE(warn.diagnostics.HasErrors()) << warn.diagnostics.ToString();
  EXPECT_TRUE(warn.diagnostics.Has("lint-est-budget-rows"))
      << warn.diagnostics.ToString();
}

// ---------------------------------------------------------------------------
// Admission wired into evaluation: a provably-over-budget query is rejected
// with the lint-est-* status before any scan; a possibly-over-budget one
// evaluates and carries the warning in its diagnostics.

TEST(AdmissionTest, EvaluatorRejectsAndWarnsThroughTheBudget) {
  auto scenario = workload::BuildFigure1Scenario();
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  core::pietql::Evaluator eval(scenario.ValueOrDie().db.get());
  eval.set_agg_cache_mode(core::aggcache::AggCacheMode::kOn);
  eval.set_estimate_mode(EstimateMode::kOn);

  AdmissionBudget one_row;
  one_row.max_rows_scanned = 1;
  eval.set_admission_budget(one_row);
  auto rejected = eval.EvaluateString(kInsideCount);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("lint-est-budget-rows"),
            std::string::npos)
      << rejected.status().ToString();

  AdmissionBudget unlimited;
  eval.set_admission_budget(unlimited);
  auto accepted = eval.EvaluateString(kInsideCount);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(accepted.ValueOrDie().diagnostics.empty())
      << accepted.ValueOrDie().diagnostics.ToString();
}

}  // namespace
}  // namespace piet::analysis::estimate
