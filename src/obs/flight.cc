#include "obs/flight.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace piet::obs {

namespace {

void AppendJsonEscaped(std::ostringstream* os, std::string_view s) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      case '\r':
        *os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
  *os << '"';
}

void AppendSpanJson(std::ostringstream* os, const SpanNode& node) {
  *os << "{\"name\":";
  AppendJsonEscaped(os, node.name);
  *os << ",\"start_ns\":" << node.start_ns
      << ",\"duration_ns\":" << node.duration_ns << ",\"attrs\":{";
  for (size_t i = 0; i < node.attrs.size(); ++i) {
    if (i > 0) {
      *os << ",";
    }
    AppendJsonEscaped(os, node.attrs[i].first);
    *os << ":";
    AppendJsonEscaped(os, node.attrs[i].second);
  }
  *os << "},\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) {
      *os << ",";
    }
    AppendSpanJson(os, node.children[i]);
  }
  *os << "]}";
}

}  // namespace

std::string QueryRecord::EstimateViolation() const {
  if (!has_estimate || !error.empty()) {
    return "";
  }
  struct Check {
    const char* metric;
    int64_t lo;
    int64_t hi;
    int64_t actual;
  };
  const Check checks[] = {
      {"rows_scanned", est_rows_lo, est_rows_hi, rows_scanned},
      {"tuples", est_tuples_lo, est_tuples_hi, tuples},
      {"blocks", est_blocks_lo, est_blocks_hi, blocks},
      {"blocks_skipped", est_blocks_skipped_lo, est_blocks_skipped_hi,
       blocks_skipped},
      {"blocks_decoded", est_blocks_decoded_lo, est_blocks_decoded_hi,
       blocks_decoded},
  };
  for (const Check& c : checks) {
    if (c.actual < c.lo || c.actual > c.hi) {
      std::ostringstream os;
      os << c.metric << " [" << c.lo << "," << c.hi
         << "] actual=" << c.actual;
      return os.str();
    }
  }
  return "";
}

std::string QueryRecord::ToLine() const {
  std::ostringstream os;
  os << "#" << seq << " " << (slow ? "SLOW " : "")
     << (error.empty() ? "" : "ERROR ")
     << static_cast<double>(wall_ns) / 1e6 << "ms"
     << " cpu=" << static_cast<double>(cpu_ns) / 1e6 << "ms";
  if (!clause.empty()) {
    os << " clause=" << clause;
  }
  os << " rows=" << rows_scanned << " tuples=" << tuples;
  if (blocks > 0) {
    os << " blocks=" << blocks << " skipped=" << blocks_skipped
       << " decoded=" << blocks_decoded;
  }
  if (agg_cache_served) {
    os << " agg_cache=hit";
  } else if (!agg_cache_fallback.empty()) {
    os << " agg_cache=fallback:" << agg_cache_fallback;
  }
  if (has_estimate) {
    os << " est_rows=[" << est_rows_lo << "," << est_rows_hi << "]"
       << " est_cost=" << est_cost;
    if (!est_verdict.empty()) {
      os << " verdict=" << est_verdict;
    }
  }
  os << " | " << text;
  return os.str();
}

std::string QueryRecord::ToJson() const {
  std::ostringstream os;
  os << "{\"seq\":" << seq << ",\"text\":";
  AppendJsonEscaped(&os, text);
  os << ",\"clause\":";
  AppendJsonEscaped(&os, clause);
  os << ",\"error\":";
  AppendJsonEscaped(&os, error);
  os << ",\"wall_ns\":" << wall_ns << ",\"cpu_ns\":" << cpu_ns
     << ",\"rows_scanned\":" << rows_scanned << ",\"tuples\":" << tuples
     << ",\"blocks\":" << blocks << ",\"blocks_skipped\":" << blocks_skipped
     << ",\"blocks_decoded\":" << blocks_decoded << ",\"agg_cache_served\":"
     << (agg_cache_served ? "true" : "false") << ",\"agg_cache_fallback\":";
  AppendJsonEscaped(&os, agg_cache_fallback);
  if (has_estimate) {
    os << ",\"estimate\":{\"rows\":[" << est_rows_lo << "," << est_rows_hi
       << "],\"tuples\":[" << est_tuples_lo << "," << est_tuples_hi
       << "],\"blocks\":[" << est_blocks_lo << "," << est_blocks_hi
       << "],\"blocks_skipped\":[" << est_blocks_skipped_lo << ","
       << est_blocks_skipped_hi << "],\"blocks_decoded\":["
       << est_blocks_decoded_lo << "," << est_blocks_decoded_hi
       << "],\"cost\":" << est_cost << ",\"verdict\":";
    AppendJsonEscaped(&os, est_verdict);
    os << "}";
  }
  os << ",\"slow\":" << (slow ? "true" : "false") << ",\"profile\":";
  AppendSpanJson(&os, profile);
  os << "}";
  return os.str();
}

FlightRecorder::Options FlightRecorder::Options::FromEnv() {
  Options opts;
  if (const char* env = std::getenv("PIET_OBS_FLIGHT_N");
      env != nullptr && *env != '\0') {
    const long n = std::atol(env);
    opts.capacity = n < 0 ? 0 : static_cast<size_t>(n);
  }
  if (const char* env = std::getenv("PIET_SLOW_QUERY_MS");
      env != nullptr && *env != '\0') {
    opts.slow_threshold_ms = std::atol(env);
  }
  if (const char* env = std::getenv("PIET_OBS_FLIGHT_OUT");
      env != nullptr && *env != '\0') {
    opts.jsonl_path = env;
  }
  return opts;
}

FlightRecorder::FlightRecorder(Options opts) { Configure(std::move(opts)); }

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder(Options::FromEnv());
  return *recorder;
}

bool FlightRecorder::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_.capacity > 0;
}

void FlightRecorder::Configure(Options opts) {
  std::lock_guard<std::mutex> lock(mu_);
  opts_ = std::move(opts);
  ring_.clear();
  slow_.clear();
  if (jsonl_.is_open()) {
    jsonl_.close();
  }
  if (!opts_.jsonl_path.empty()) {
    jsonl_.open(opts_.jsonl_path, std::ios::app);
    if (!jsonl_) {
      std::fprintf(stderr, "flight recorder: cannot open JSONL sink '%s'\n",
                   opts_.jsonl_path.c_str());
    }
  }
}

FlightRecorder::Options FlightRecorder::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opts_;
}

void FlightRecorder::Record(QueryRecord record) {
  if (!Enabled()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (opts_.capacity == 0) {
    return;
  }
  record.seq = next_seq_++;
  record.slow =
      record.wall_ns >= opts_.slow_threshold_ms * 1'000'000;
  if (jsonl_.is_open()) {
    jsonl_ << record.ToJson() << "\n";
    jsonl_.flush();
  }
  if (record.slow && opts_.slow_capacity > 0) {
    slow_.push_back(record);
    while (slow_.size() > opts_.slow_capacity) {
      slow_.pop_front();
    }
  }
  ring_.push_back(std::move(record));
  while (ring_.size() > opts_.capacity) {
    ring_.pop_front();
  }
}

std::vector<QueryRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<QueryRecord> FlightRecorder::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {slow_.begin(), slow_.end()};
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

size_t FlightRecorder::slow_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_.size();
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  slow_.clear();
}

}  // namespace piet::obs
