#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace piet::bench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

// A "Vm...:   1234 kB" line of /proc/self/status, in bytes.
int64_t ProcStatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::stoll(line.substr(key_len)) * 1024;
    }
  }
  return 0;
}

}  // namespace

int64_t RssBytes() { return ProcStatusBytes("VmRSS:"); }
int64_t PeakRssBytes() { return ProcStatusBytes("VmHWM:"); }
void TrimHeap() { malloc_trim(0); }

uint64_t Fingerprint(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Span recorder.

SpanRecorder::SpanRecorder(std::string root_name) : epoch_ns_(NowNs()) {
  root_.name = std::move(root_name);
  stack_.push_back(&root_);
}

void SpanRecorder::Graft(obs::SpanNode tree, int64_t start_rel) {
  struct Shift {
    static void Apply(obs::SpanNode* n, int64_t by) {
      n->start_ns += by;
      for (obs::SpanNode& c : n->children) {
        Apply(&c, by);
      }
    }
  };
  Shift::Apply(&tree, start_rel - tree.start_ns);
  stack_.back()->children.push_back(std::move(tree));
}

obs::SpanNode SpanRecorder::Finish() {
  root_.duration_ns = NowRel() - root_.start_ns;
  stack_.clear();
  return std::move(root_);
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string_view name)
    : rec_(rec) {
  if (rec_ == nullptr) {
    return;
  }
  obs::SpanNode* parent = rec_->stack_.back();
  parent->children.emplace_back();
  node_ = &parent->children.back();
  node_->name = std::string(name);
  node_->start_ns = rec_->NowRel();
  rec_->stack_.push_back(node_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) {
    return;
  }
  node_->duration_ns = rec_->NowRel() - node_->start_ns;
  rec_->stack_.pop_back();
}

void AccumulateSelfTimes(const obs::SpanNode& node,
                         std::map<std::string, int64_t>* self_ns) {
  int64_t children = 0;
  for (const obs::SpanNode& c : node.children) {
    children += c.duration_ns;
    AccumulateSelfTimes(c, self_ns);
  }
  (*self_ns)[node.name] += node.duration_ns - children;
}

// ---------------------------------------------------------------------------
// Metric catalog.

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> kCatalog = {
      // End to end (untraced run).
      {"setup_s", "s", "lower", Tier::kEndToEnd},
      {"qps", "1/s", "higher", Tier::kEndToEnd},
      {"latency_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"latency_ms_p90", "ms", "lower", Tier::kEndToEnd},
      {"window_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"region_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"trajectory_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"proximity_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"geo_us_p50", "us", "lower", Tier::kEndToEnd},
      {"freshness_ms_p50", "ms", "lower", Tier::kEndToEnd},
      {"ingest_msamples_per_s", "Msamples/s", "higher", Tier::kEndToEnd},
      {"load_rss_bytes_per_sample", "B/sample", "lower", Tier::kEndToEnd},
      {"stored_bytes_per_sample", "B/sample", "lower", Tier::kEndToEnd},
      {"peak_rss_mb", "MB", "lower", Tier::kEndToEnd},
      // Per layer (traced run).
      {"workload.generate_s", "s", "lower", Tier::kPerLayer},
      {"moving.add_ns_per_sample", "ns", "lower", Tier::kPerLayer},
      {"moving.seal_ms", "ms", "lower", Tier::kPerLayer},
      {"moving.add_moft_ms", "ms", "lower", Tier::kPerLayer},
      {"moving.spill_ms", "ms", "lower", Tier::kPerLayer},
      {"moving.rematerialize_ms", "ms", "lower", Tier::kPerLayer},
      {"moving.rematerializations_per_query", "count", "lower",
       Tier::kPerLayer},
      {"moving.blocks_decoded_per_query", "count", "lower", Tier::kPerLayer},
      {"moving.blocks_skipped_per_query", "count", "higher", Tier::kPerLayer},
      {"moving.block_skip_ratio", "ratio", "higher", Tier::kPerLayer},
      {"moving.window_probe_us", "us", "lower", Tier::kPerLayer},
      {"moving.resident_bytes", "B", "lower", Tier::kPerLayer},
      {"moving.compressed_bytes", "B", "lower", Tier::kPerLayer},
      {"moving.spilled_bytes", "B", "lower", Tier::kPerLayer},
      {"gis.overlay_build_ms", "ms", "lower", Tier::kPerLayer},
      {"gis.locate_ns_per_point", "ns", "lower", Tier::kPerLayer},
      {"gis.overlay_cells", "count", "lower", Tier::kPerLayer},
      {"db.classify_ms", "ms", "lower", Tier::kPerLayer},
      {"db.classify_hit_ratio", "ratio", "higher", Tier::kPerLayer},
      {"aggcache.build_ms", "ms", "lower", Tier::kPerLayer},
      {"aggcache.served_ratio", "ratio", "higher", Tier::kPerLayer},
      {"aggcache.fallback_subhour", "count", "lower", Tier::kPerLayer},
      {"engine.call_ms", "ms", "lower", Tier::kPerLayer},
      {"engine.samples_scanned", "count", "lower", Tier::kPerLayer},
      {"engine.point_tests", "count", "lower", Tier::kPerLayer},
      {"engine.legs_tested", "count", "lower", Tier::kPerLayer},
      {"geometry.pip_ns_per_point", "ns", "lower", Tier::kPerLayer},
      {"geometry.leg_ns_per_leg", "ns", "lower", Tier::kPerLayer},
      {"pietql.parse_us", "us", "lower", Tier::kPerLayer},
      {"pietql.analyze_us", "us", "lower", Tier::kPerLayer},
      {"pietql.estimate_us", "us", "lower", Tier::kPerLayer},
      {"pietql.rewrite_us", "us", "lower", Tier::kPerLayer},
      {"pietql.geo_filter_us", "us", "lower", Tier::kPerLayer},
      {"pietql.moft_intersect_ms", "ms", "lower", Tier::kPerLayer},
      {"pietql.aggregate_us", "us", "lower", Tier::kPerLayer},
      {"pietql.unattributed_us", "us", "lower", Tier::kPerLayer},
      {"pietql.rows_scanned", "count", "lower", Tier::kPerLayer},
      {"pietql.tuples", "count", "lower", Tier::kPerLayer},
      {"pietql.rows_per_tuple", "ratio", "lower", Tier::kPerLayer},
      {"olap.aggregate_us", "us", "lower", Tier::kPerLayer},
      {"parallel.threads", "count", "higher", Tier::kPerLayer},
      {"parallel.loops_per_query", "count", "lower", Tier::kPerLayer},
      {"parallel.chunk_imbalance", "count", "lower", Tier::kPerLayer},
      {"obs.trace_overhead_ratio", "ratio", "lower", Tier::kPerLayer},
      {"trace.attributed_ratio", "ratio", "higher", Tier::kPerLayer},
      {"trace.unattributed_ms", "ms", "lower", Tier::kPerLayer},
  };
  return kCatalog;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace piet::bench
