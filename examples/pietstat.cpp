// pietstat — a top-style snapshot of a Piet metrics dump.
//
// Reads a Prometheus text-format dump (the ".prom" shape written by
// obs::ExportSnapshotToFile: PIET_OBS_OUT=metrics.prom on any bench or
// engine run, or the \prom command of pietql_shell) and renders it as a
// compact dashboard: storage tiers, cache effectiveness, per-query-type
// latency quantiles, and the busiest counters.
//
// Usage:
//   PIET_OBS=1 PIET_OBS_OUT=metrics.prom ./build/bench/bench_engine
//   ./build/examples/pietstat metrics.prom
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

/// One parsed exposition sample: family name, `le`/`quantile` label value
/// (empty when unlabelled), numeric value.
struct Sample {
  std::string name;
  std::string label;
  double value = 0.0;
};

/// Parses one non-comment exposition line ("name 3", "name{le=\"0.25\"} 7").
bool ParseLine(const std::string& line, Sample* out) {
  std::string_view s = line;
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  if (s.empty() || s.front() == '#') {
    return false;
  }
  size_t name_end = s.find_first_of("{ ");
  if (name_end == std::string_view::npos) {
    return false;
  }
  out->name = std::string(s.substr(0, name_end));
  out->label.clear();
  if (s[name_end] == '{') {
    const size_t close = s.find('}', name_end);
    if (close == std::string_view::npos) {
      return false;
    }
    // Single-label families only (le= / quantile=): take the quoted value.
    const std::string_view labels = s.substr(name_end + 1, close - name_end - 1);
    const size_t q0 = labels.find('"');
    const size_t q1 = labels.rfind('"');
    if (q0 != std::string_view::npos && q1 > q0) {
      out->label = std::string(labels.substr(q0 + 1, q1 - q0 - 1));
    }
    name_end = close + 1;
  }
  const std::string value_text(s.substr(name_end));
  char* end = nullptr;
  out->value = std::strtod(value_text.c_str(), &end);
  return end != value_text.c_str();
}

std::string HumanBytes(double v) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", v,
                kUnits[unit]);
  return buf;
}

class Dump {
 public:
  void Add(const Sample& s) {
    if (s.label.empty()) {
      plain_[s.name] = s.value;
    } else {
      labelled_[s.name][s.label] = s.value;
    }
  }

  double Get(const std::string& name, double fallback = 0.0) const {
    auto it = plain_.find(name);
    return it == plain_.end() ? fallback : it->second;
  }
  bool Has(const std::string& name) const { return plain_.count(name) > 0; }

  double Label(const std::string& name, const std::string& label) const {
    auto it = labelled_.find(name);
    if (it == labelled_.end()) {
      return 0.0;
    }
    auto jt = it->second.find(label);
    return jt == it->second.end() ? 0.0 : jt->second;
  }
  bool HasLabelled(const std::string& name) const {
    return labelled_.count(name) > 0;
  }

  const std::map<std::string, double>& plain() const { return plain_; }
  const std::map<std::string, std::map<std::string, double>>& labelled() const {
    return labelled_;
  }

 private:
  std::map<std::string, double> plain_;
  std::map<std::string, std::map<std::string, double>> labelled_;
};

void PrintStorage(const Dump& d) {
  if (!d.Has("piet_db_moft_resident_bytes")) {
    return;
  }
  std::printf("storage\n");
  std::printf("  resident   %12s\n",
              HumanBytes(d.Get("piet_db_moft_resident_bytes")).c_str());
  std::printf("  compressed %12s\n",
              HumanBytes(d.Get("piet_db_moft_compressed_bytes")).c_str());
  std::printf("  spilled    %12s\n",
              HumanBytes(d.Get("piet_db_moft_spilled_bytes")).c_str());
  std::printf("  hot tiers  %12.0f    live pins %.0f    overlay epoch %.0f\n",
              d.Get("piet_db_moft_hot_tiers"), d.Get("piet_db_moft_live_pins"),
              d.Get("piet_db_overlay_epoch"));
  std::printf("\n");
}

void PrintCaches(const Dump& d) {
  const double hits = d.Get("piet_pietql_aggcache_hits_total");
  const double misses = d.Get("piet_pietql_aggcache_misses_total");
  const double fallback = d.Get("piet_pietql_aggcache_fallback_subhour_total");
  const double classify_hits = d.Get("piet_db_classify_cache_hits_total");
  if (hits + misses + fallback + classify_hits == 0.0) {
    return;
  }
  std::printf("caches\n");
  const double serves = hits + misses;
  if (serves > 0.0) {
    std::printf(
        "  aggcache   hit %.1f%% (%.0f/%.0f)  fallback %.0f  "
        "entries %.0f (%s)\n",
        100.0 * hits / serves, hits, serves, fallback,
        d.Get("piet_pietql_aggcache_entries"),
        HumanBytes(d.Get("piet_pietql_aggcache_bytes")).c_str());
  }
  std::printf(
      "  classify   hits %.0f  entries %.0f (%s)  invalidations %.0f\n",
      classify_hits, d.Get("piet_db_classify_entries"),
      HumanBytes(d.Get("piet_db_classify_bytes")).c_str(),
      d.Get("piet_db_classify_invalidations_total"));
  std::printf("\n");
}

void PrintLatencies(const Dump& d) {
  constexpr std::string_view kSuffix = "_quantile_seconds";
  bool header = false;
  for (const auto& [name, labels] : d.labelled()) {
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    // piet_engine_query_count_in_region_latency_quantile_seconds -> the
    // family stem, count from the matching histogram's _count sample.
    const std::string stem = name.substr(0, name.size() - kSuffix.size());
    const double count = d.Get(stem + "_seconds_count");
    if (!header) {
      std::printf("latency (ms)%28s %10s %10s %10s %10s\n", "", "count", "p50",
                  "p95", "p99");
      header = true;
    }
    std::string label = stem;
    constexpr std::string_view kPrefix = "piet_";
    if (label.compare(0, kPrefix.size(), kPrefix) == 0) {
      label = label.substr(kPrefix.size());
    }
    std::printf("  %-38s %10.0f %10.3f %10.3f %10.3f\n", label.c_str(), count,
                1e3 * d.Label(name, "0.5"), 1e3 * d.Label(name, "0.95"),
                1e3 * d.Label(name, "0.99"));
  }
  if (header) {
    std::printf("\n");
  }
}

void PrintTopCounters(const Dump& d) {
  constexpr std::string_view kTotal = "_total";
  std::vector<std::pair<std::string, double>> counters;
  for (const auto& [name, value] : d.plain()) {
    if (name.size() > kTotal.size() &&
        name.compare(name.size() - kTotal.size(), kTotal.size(), kTotal) == 0) {
      counters.emplace_back(name, value);
    }
  }
  std::stable_sort(counters.begin(), counters.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (counters.empty()) {
    return;
  }
  std::printf("top counters\n");
  const size_t n = std::min<size_t>(counters.size(), 10);
  for (size_t i = 0; i < n; ++i) {
    std::printf("  %-48s %14.0f\n", counters[i].first.c_str(),
                counters[i].second);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <metrics.prom>\n", argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
    return 1;
  }
  Dump dump;
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    Sample s;
    if (ParseLine(line, &s)) {
      dump.Add(s);
      ++samples;
    }
  }
  if (samples == 0) {
    std::fprintf(stderr,
                 "no samples in '%s' — expected Prometheus text format "
                 "(PIET_OBS_OUT=<file>.prom)\n",
                 argv[1]);
    return 1;
  }
  std::printf("pietstat — %zu samples from %s\n\n", samples, argv[1]);
  PrintStorage(dump);
  PrintCaches(dump);
  PrintLatencies(dump);
  PrintTopCounters(dump);
  return 0;
}
