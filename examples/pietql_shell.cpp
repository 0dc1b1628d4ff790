// Interactive Piet-QL shell over a generated city — a minimal "database
// console" for the framework. Reads one query per line, prints the result.
//
// Usage:
//   pietql_shell                # interactive (reads stdin)
//   echo "<query>" | pietql_shell
//   PIETQL_CHECK=strict pietql_shell   # semantic analysis: off|warn|strict
//
// Prefix any query with `EXPLAIN ANALYZE` to run it under a trace collector
// and print the span tree (parse -> analyze -> geo_filter -> moft_intersect
// -> aggregate, with per-stage durations and work counters) above the
// result. The result is bit-identical to the unprefixed query.
//
// Prefix a query with `EXPLAIN ESTIMATE` to print the static resource
// estimate instead — the plan plus sound [lo,hi] bounds per pipeline stage
// (rows scanned, blocks decoded vs skipped, cache servability, result
// rows) and the scalar cost score, without evaluating anything. With
// PIET_ESTIMATE=1 every ordinary query also runs the estimator before the
// scan, and PIET_EST_MAX_ROWS / PIET_EST_MAX_BLOCKS / PIET_EST_MAX_COST
// reject provably-over-budget queries up front (lint-est-* diagnostics).
//
// Telemetry commands (meaningful with PIET_OBS=1):
//   \stat    metrics snapshot (counters, gauges, latency histograms with
//            p50/p95/p99) plus the sampler's sliding-window rates when
//            PIET_OBS_SAMPLE_MS > 0
//   \flight  the flight recorder's last-N query records, one line each
//   \slow    the slow-query log (>= PIET_SLOW_QUERY_MS) with full span trees
//   \prom [path]  Prometheus text exposition of the registry (to stdout,
//            or written to `path` — .prom/.json chosen by extension)
//
// The database is a deterministic 8x8 city with a 200-car random-waypoint
// MOFT named `cars`. Available layers: neighborhoods (polygon; attributes
// income, population, name), streets, schools, stores, stops, rivers.
//
// Example session:
//   SELECT layer.neighborhoods; FROM SimCity;
//       WHERE ATTR(layer.neighborhoods, income) < 1500
//       | SELECT COUNT(DISTINCT OID) FROM cars WHERE INSIDE RESULT
//   SELECT layer.neighborhoods; FROM SimCity;
//       | SELECT RATE PER HOUR FROM cars WHERE INSIDE RESULT
//         GROUP BY TIME.hour

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>

#include "analysis/diagnostic.h"
#include "core/pietql/evaluator.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace {

piet::analysis::CheckMode CheckModeFromEnv() {
  const char* mode = std::getenv("PIETQL_CHECK");
  if (mode == nullptr || std::strcmp(mode, "off") == 0) {
    return piet::analysis::CheckMode::kOff;
  }
  if (std::strcmp(mode, "warn") == 0) {
    return piet::analysis::CheckMode::kWarn;
  }
  if (std::strcmp(mode, "strict") == 0) {
    return piet::analysis::CheckMode::kStrict;
  }
  std::fprintf(stderr, "unknown PIETQL_CHECK '%s' (off|warn|strict)\n", mode);
  std::exit(2);
}

}  // namespace

int main() {
  const piet::analysis::CheckMode check_mode = CheckModeFromEnv();
  piet::workload::CityConfig config;
  config.seed = 1;
  config.grid_cols = 8;
  config.grid_rows = 8;
  auto city_r = piet::workload::GenerateCity(config);
  if (!city_r.ok()) {
    std::fprintf(stderr, "city generation failed: %s\n",
                 city_r.status().ToString().c_str());
    return 1;
  }
  piet::workload::City city = std::move(city_r).ValueOrDie();

  piet::workload::TrajectoryConfig traj;
  traj.seed = 2;
  traj.num_objects = 200;
  traj.duration = 3 * 3600.0;
  traj.sample_period = 60.0;
  traj.speed = 12.0;
  auto moft = piet::workload::GenerateTrajectories(city, traj);
  if (!moft.ok() ||
      !city.db->AddMoft("cars", std::move(moft).ValueOrDie()).ok()) {
    std::fprintf(stderr, "trajectory generation failed\n");
    return 1;
  }

  std::fprintf(stderr,
               "piet-ql shell — layers: neighborhoods streets schools "
               "stores stops rivers; MOFT: cars (%d objects)\n"
               "one query per line; empty line or EOF quits\n",
               traj.num_objects);

  piet::core::pietql::Evaluator evaluator(city.db.get(), check_mode);

  // Continuous telemetry: the sampler snapshots the registry on the
  // PIET_OBS_SAMPLE_MS interval (no thread when unset) with this
  // database's storage gauges refreshed at every tick. Free while
  // PIET_OBS is off — ticks are fully gated.
  piet::obs::TelemetrySampler sampler;
  const piet::core::GeoOlapDatabase* db = city.db.get();
  sampler.AddCollector([db] { db->PublishStorageGauges(); });
  sampler.Start();

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) {
      break;
    }
    if (line[0] == '\\') {
      if (line == "\\stat") {
        db->PublishStorageGauges();
        std::printf("%s",
                    piet::obs::MetricsRegistry::Global().Snapshot().ToText()
                        .c_str());
        if (sampler.ticks() > 0) {
          std::printf("%s", sampler.ToText().c_str());
        }
      } else if (line == "\\flight") {
        auto records = piet::obs::FlightRecorder::Global().Snapshot();
        if (records.empty()) {
          std::printf("flight recorder empty (PIET_OBS=1 to record)\n");
        }
        for (const piet::obs::QueryRecord& r : records) {
          std::printf("%s\n", r.ToLine().c_str());
        }
      } else if (line == "\\slow") {
        auto records = piet::obs::FlightRecorder::Global().SlowLog();
        if (records.empty()) {
          std::printf("slow-query log empty (threshold %lld ms)\n",
                      static_cast<long long>(
                          piet::obs::FlightRecorder::Global().options()
                              .slow_threshold_ms));
        }
        for (const piet::obs::QueryRecord& r : records) {
          std::printf("%s\n%s", r.ToLine().c_str(),
                      r.profile.ToPrettyString().c_str());
        }
      } else if (line == "\\prom" || line.rfind("\\prom ", 0) == 0) {
        db->PublishStorageGauges();
        auto snap = piet::obs::MetricsRegistry::Global().Snapshot();
        std::string path =
            line.size() > 6 ? line.substr(6) : std::string();
        while (!path.empty() && path.front() == ' ') {
          path.erase(path.begin());
        }
        if (path.empty()) {
          std::printf("%s", piet::obs::ToPrometheusText(snap).c_str());
        } else {
          std::string error;
          if (piet::obs::ExportSnapshotToFile(snap, path, &error)) {
            std::printf("wrote %s\n", path.c_str());
          } else {
            std::printf("error: %s\n", error.c_str());
          }
        }
      } else {
        std::printf(
            "unknown command '%s' (\\stat, \\flight, \\slow, \\prom)\n",
            line.c_str());
      }
      continue;
    }
    std::string_view text = line;
    bool explain = false;
    constexpr std::string_view kExplain = "EXPLAIN ANALYZE";
    constexpr std::string_view kEstimate = "EXPLAIN ESTIMATE";
    if (text.substr(0, kEstimate.size()) == kEstimate) {
      // Purely static: the estimate tree next to the plan, no evaluation.
      text.remove_prefix(kEstimate.size());
      while (!text.empty() && text.front() == ' ') {
        text.remove_prefix(1);
      }
      auto explained = evaluator.ExplainEstimate(text);
      if (!explained.ok()) {
        std::printf("error: %s\n", explained.status().ToString().c_str());
      } else {
        std::printf("%s\n", explained.ValueOrDie().c_str());
      }
      continue;
    }
    if (text.substr(0, kExplain.size()) == kExplain) {
      explain = true;
      text.remove_prefix(kExplain.size());
      while (!text.empty() && text.front() == ' ') {
        text.remove_prefix(1);
      }
    }
    if (explain) {
      auto profiled = evaluator.EvaluateStringProfiled(text);
      if (!profiled.ok()) {
        std::printf("error: %s\n", profiled.status().ToString().c_str());
        continue;
      }
      const auto& value = profiled.ValueOrDie();
      std::printf("%s", value.profile.ToPrettyString().c_str());
      for (const piet::analysis::Diagnostic& d : value.result.diagnostics) {
        std::printf("%s\n", d.ToString().c_str());
      }
      std::printf("%s\n", value.result.ToString().c_str());
      continue;
    }
    auto result = evaluator.EvaluateString(text);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    for (const piet::analysis::Diagnostic& d :
         result.ValueOrDie().diagnostics) {
      std::printf("%s\n", d.ToString().c_str());
    }
    std::printf("%s\n", result.ValueOrDie().ToString().c_str());
  }
  return 0;
}
