// Calibration harness for the static resource estimator (the CI gate
// behind the estimate-calibration job).
//
// Two phases, both evaluating real queries with PIET-style observability
// on and the estimator enabled, then joining each query's static
// estimate — exported on the flight record — against the runtime
// counters the flight recorder measured:
//
//   Phase A  replays every lint-corpus case that carries a live schema
//            instance: the case's schema becomes a real GeoOlapDatabase
//            (quadtree overlay over its polygon layers, the deterministic
//            corpus MOFT under each declared name) and every corpus query
//            is evaluated end to end.
//   Phase B  sweeps an era-staggered synthetic city workload across the
//            three storage tiers (raw / compressed / spilled) and thread
//            counts {1, 4} with seeded random queries over every clause
//            form, window shape and rollup level.
//
// Gates (non-zero exit on failure):
//   soundness    zero interval violations — every measured counter lies
//                inside its static [lo, hi];
//   non-vacuity  median(est_rows_hi / rows_scanned) over queries that
//                scanned at least one row is <= 8, so the upper bounds
//                stay close enough to be useful for admission control.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/estimate/estimate.h"
#include "analysis/lint/corpus.h"
#include "core/pietql/evaluator.h"
#include "gis/instance.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "temporal/time_point.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace {

using piet::Status;
using piet::analysis::estimate::AdmissionBudget;
using piet::analysis::estimate::EstimateMode;
using piet::analysis::lint::CorpusCase;
using piet::analysis::lint::CorpusEstimateMoft;
using piet::analysis::lint::ParseCorpusFile;
using piet::core::GeoOlapDatabase;
using piet::obs::FlightRecorder;
using piet::obs::MetricsRegistry;
using piet::obs::QueryRecord;

constexpr double kMaxMedianRatio = 8.0;

struct Tally {
  int64_t queries = 0;
  int64_t checked = 0;
  int64_t errored = 0;
  int64_t violations = 0;
  std::vector<double> row_ratios;  // est_rows_hi / rows_scanned, rows > 0.

  void Absorb(const std::vector<QueryRecord>& flight,
              const std::string& context) {
    for (const QueryRecord& rec : flight) {
      ++queries;
      if (!rec.error.empty()) {
        ++errored;
        continue;
      }
      if (!rec.has_estimate) {
        ++violations;
        std::fprintf(stderr, "FAIL %s: no estimate on record: %s\n",
                     context.c_str(), rec.text.c_str());
        continue;
      }
      ++checked;
      const std::string violation = rec.EstimateViolation();
      if (!violation.empty()) {
        ++violations;
        std::fprintf(stderr, "FAIL %s: %s\n  query: %s\n", context.c_str(),
                     violation.c_str(), rec.text.c_str());
      }
      if (rec.rows_scanned > 0) {
        row_ratios.push_back(static_cast<double>(rec.est_rows_hi) /
                             static_cast<double>(rec.rows_scanned));
      }
    }
  }
};

void ConfigureEvaluator(piet::core::pietql::Evaluator* eval) {
  eval->set_agg_cache_mode(piet::core::aggcache::AggCacheMode::kOn);
  eval->set_estimate_mode(EstimateMode::kOn);
  eval->set_admission_budget(AdmissionBudget{});  // Observation only.
}

std::vector<QueryRecord> RunQueries(piet::core::pietql::Evaluator* eval,
                                    const std::vector<std::string>& queries) {
  MetricsRegistry::Global().Reset();
  FlightRecorder::Options opts;
  opts.capacity = queries.size() + 8;
  FlightRecorder::Global().Configure(opts);
  for (const std::string& q : queries) {
    (void)eval->EvaluateString(q);
  }
  return FlightRecorder::Global().Snapshot();
}

// --- Phase A: lint-corpus replay ------------------------------------------

int ReplayCorpus(const std::string& corpus_dir, Tally* tally) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
    if (entry.path().extension() == ".lint") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  int cases = 0;
  for (const std::string& path : paths) {
    auto parsed = ParseCorpusFile(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "FAIL corpus %s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      ++tally->violations;
      continue;
    }
    const CorpusCase& c = parsed.ValueOrDie();
    if (c.instance == nullptr || c.queries.empty()) {
      continue;  // Defective-schema cases have nothing to evaluate.
    }
    GeoOlapDatabase db(*c.instance);
    for (const std::string& name : c.moft_names) {
      (void)db.AddMoft(name, CorpusEstimateMoft());
    }
    std::vector<std::string> polygon_layers;
    for (const std::string& name : db.gis().LayerNames()) {
      auto layer = db.gis().GetLayer(name);
      if (layer.ok() &&
          layer.ValueOrDie()->kind() == piet::gis::GeometryKind::kPolygon &&
          layer.ValueOrDie()->size() > 0) {
        polygon_layers.push_back(name);
      }
    }
    if (!polygon_layers.empty()) {
      // Quadtree: corpus polygons are arbitrary, not convex partitions.
      (void)db.BuildOverlay(polygon_layers, /*convex=*/false,
                            /*quadtree_depth=*/6);
    }
    piet::core::pietql::Evaluator eval(&db);
    ConfigureEvaluator(&eval);
    tally->Absorb(RunQueries(&eval, c.queries), "corpus " + path);
    ++cases;
  }
  return cases;
}

// --- Phase B: era-staggered synthetic workload ----------------------------

constexpr double kBase = 1767657600.0;  // 2026-01-06 00:00:00 UTC.
constexpr double kDuration = 2.0 * 3600.0;
constexpr int kEras = 3;

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

std::unique_ptr<GeoOlapDatabase> MakeCityDb(Tier tier) {
  piet::workload::CityConfig cc;
  cc.seed = 2026;
  cc.grid_cols = 6;
  cc.grid_rows = 6;
  auto city_or = piet::workload::GenerateCity(cc);
  if (!city_or.ok()) {
    return nullptr;
  }
  piet::workload::City city = std::move(city_or).ValueOrDie();

  piet::workload::TrajectoryConfig tc;
  tc.seed = 11;
  tc.num_objects = 36;
  tc.start = piet::temporal::TimePoint(kBase);
  tc.duration = kDuration;
  tc.sample_period = 120.0;
  auto gen_or = piet::workload::GenerateTrajectories(city, tc);
  if (!gen_or.ok()) {
    return nullptr;
  }
  const piet::moving::MoftColumns& gen = gen_or.ValueOrDie().Columns();

  piet::moving::BlockOptions opts;
  if (tier != Tier::kRaw) {
    opts.block_rows = 256;
    opts.compress = true;
    opts.spill_dir = std::filesystem::temp_directory_path().string();
  }
  piet::moving::Moft cars;
  cars.SetBlockOptions(opts);
  for (size_t sp = 0; sp < gen.spans.size(); ++sp) {
    const double offset =
        kDuration * static_cast<double>(
                        (sp * static_cast<size_t>(kEras)) / gen.spans.size());
    for (size_t i = gen.spans[sp].begin; i < gen.spans[sp].end; ++i) {
      piet::moving::Sample s = gen.at(i);
      (void)cars.Add(s.oid, piet::temporal::TimePoint(s.t.seconds + offset),
                     s.pos);
    }
  }
  (void)cars.Scan();

  std::unique_ptr<GeoOlapDatabase> db = std::move(city.db);
  if (!db->AddMoft("cars", std::move(cars)).ok() ||
      !db->BuildOverlay({city.neighborhoods_layer}).ok()) {
    return nullptr;
  }
  const piet::moving::Moft* stored = db->GetMoft("cars").ValueOrDie();
  if (tier == Tier::kSpilled) {
    if (!stored->SpillToDisk().ok()) {
      return nullptr;
    }
  } else if (tier == Tier::kCompressed) {
    stored->ReleaseHot();
  }
  return db;
}

std::vector<std::string> MakeQueries(uint64_t seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  auto stamp = [](double s) {
    return std::to_string(static_cast<int64_t>(s));
  };
  const double span = kEras * kDuration;
  std::vector<std::string> out;
  for (int i = 0; i < 64; ++i) {
    std::string geo = "SELECT layer.neighborhoods; FROM City;";
    switch (pick(3)) {
      case 1:
        geo += " WHERE ATTR(layer.neighborhoods, income) < 1500";
        break;
      case 2:
        geo += " WHERE ATTR(layer.neighborhoods, income) < 0";
        break;
      default:
        break;
    }
    std::string q = geo;
    q += " | SELECT ";
    q += pick(2) == 0 ? "COUNT(*)" : "COUNT(DISTINCT OID)";
    q += " FROM cars WHERE ";
    const int clause = pick(4);
    switch (clause) {
      case 0:
        q += "INSIDE RESULT";
        break;
      case 1:
        q += "PASSES THROUGH RESULT";
        break;
      case 2:
        q += "NEAR(layer.stops, 60)";
        break;
      default:
        break;  // time_only: the window below is the whole clause.
    }
    const bool windowed = clause == 3 || pick(2) == 0;
    if (windowed) {
      const int steps = static_cast<int>(span / 300.0) + 12;
      const double a = kBase + 300.0 * pick(steps) - 1800.0;
      const double b = kBase + 300.0 * pick(steps) - 1800.0;
      if (clause != 3) {
        q += " AND ";
      }
      q += "T BETWEEN " + stamp(a) + " AND " + stamp(b);
    }
    switch (pick(6)) {
      case 0:
        q += " GROUP BY TIME.hour";
        break;
      case 1:
        q += " GROUP BY TIME.minute";
        break;
      case 2:
        q += " GROUP BY TIME.timeId";
        break;
      case 3:
        q += " GROUP BY TIME.timeOfDay";
        break;
      default:
        break;
    }
    out.push_back(std::move(q));
  }
  return out;
}

int SweepWorkload(Tally* tally) {
  const std::vector<std::string> queries = MakeQueries(7);
  int runs = 0;
  for (Tier tier : {Tier::kRaw, Tier::kCompressed, Tier::kSpilled}) {
    std::unique_ptr<GeoOlapDatabase> db = MakeCityDb(tier);
    if (db == nullptr) {
      std::fprintf(stderr, "FAIL workload: could not build %s tier\n",
                   TierName(tier));
      ++tally->violations;
      continue;
    }
    piet::core::pietql::Evaluator eval(db.get());
    ConfigureEvaluator(&eval);
    for (int threads : {1, 4}) {
      eval.set_num_threads(threads);
      tally->Absorb(
          RunQueries(&eval, queries),
          std::string("workload ") + TierName(tier) + "/threads=" +
              std::to_string(threads));
      ++runs;
    }
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir = "tests/lint_corpus";
  if (argc > 1) {
    corpus_dir = argv[1];
  }
  if (!std::filesystem::is_directory(corpus_dir)) {
    std::fprintf(stderr, "usage: %s [lint_corpus_dir]\n(not a directory: %s)\n",
                 argv[0], corpus_dir.c_str());
    return 2;
  }
  // The join needs the flight recorder, which needs observability on.
  piet::obs::SetEnabled(true);

  Tally tally;
  const int cases = ReplayCorpus(corpus_dir, &tally);
  const int runs = SweepWorkload(&tally);

  double median_ratio = 0.0;
  if (!tally.row_ratios.empty()) {
    std::vector<double> ratios = tally.row_ratios;
    const auto mid =
        static_cast<std::ptrdiff_t>(ratios.size() / 2);
    std::nth_element(ratios.begin(), ratios.begin() + mid, ratios.end());
    median_ratio = ratios[static_cast<size_t>(mid)];
  }

  std::printf(
      "estimate-calibration: %d corpus cases + %d workload runs\n"
      "  queries=%lld checked=%lld errored=%lld violations=%lld\n"
      "  rows upper-bound ratio: median=%.2f over %zu scans (gate <= %.1f)\n",
      cases, runs, static_cast<long long>(tally.queries),
      static_cast<long long>(tally.checked),
      static_cast<long long>(tally.errored),
      static_cast<long long>(tally.violations), median_ratio,
      tally.row_ratios.size(), kMaxMedianRatio);

  bool ok = true;
  if (tally.checked == 0) {
    std::fprintf(stderr, "GATE: nothing was checked\n");
    ok = false;
  }
  if (tally.violations != 0) {
    std::fprintf(stderr, "GATE: soundness violated (%lld violations)\n",
                 static_cast<long long>(tally.violations));
    ok = false;
  }
  if (tally.row_ratios.empty() || median_ratio > kMaxMedianRatio) {
    std::fprintf(stderr, "GATE: upper bounds too loose (median %.2f > %.1f)\n",
                 median_ratio, kMaxMedianRatio);
    ok = false;
  }
  std::printf("estimate-calibration: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
