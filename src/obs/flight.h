#ifndef PIET_OBS_FLIGHT_H_
#define PIET_OBS_FLIGHT_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace piet::obs {

/// The per-query resource record of one evaluated query: what ran, how
/// long it took, how much data it touched and which accelerations fired.
/// Produced by the Piet-QL evaluator for every query while observability
/// is enabled; retained in the flight recorder's bounded ring (and, past
/// the slow-query threshold, in the slow-query log with the full span
/// tree).
struct QueryRecord {
  /// Monotone sequence number over the process (assigned by Record).
  uint64_t seq = 0;
  /// Canonical query text (the original string when evaluated from text,
  /// the printer round-trip otherwise).
  std::string text;
  /// Moving-object clause kind ("inside_result", "near", "passes_through",
  /// "time_only", or "" for a purely geometric query).
  std::string clause;
  /// Evaluation error, empty on success.
  std::string error;

  int64_t wall_ns = 0;
  /// Process CPU time across the evaluation (covers pool workers).
  int64_t cpu_ns = 0;

  int64_t rows_scanned = 0;
  int64_t tuples = 0;
  int64_t blocks = 0;
  int64_t blocks_skipped = 0;
  int64_t blocks_decoded = 0;

  /// True when the aggregate cache served the answer (no tuple scan).
  bool agg_cache_served = false;
  /// Rollup level that defeated an otherwise-eligible cache serve
  /// ("timeId"/"minute"), empty otherwise.
  std::string agg_cache_fallback;

  /// Static estimator export, copied from the `estimate` span when the
  /// evaluator ran with PIET_ESTIMATE on. [lo,hi] brackets the actual
  /// counters above for a successful evaluation (the soundness contract
  /// the calibration gate checks). ToLine/ToJson append these only when
  /// has_estimate, so pre-estimator renderings stay byte-identical.
  bool has_estimate = false;
  int64_t est_rows_lo = 0;
  int64_t est_rows_hi = 0;
  int64_t est_tuples_lo = 0;
  int64_t est_tuples_hi = 0;
  int64_t est_blocks_lo = 0;
  int64_t est_blocks_hi = 0;
  int64_t est_blocks_skipped_lo = 0;
  int64_t est_blocks_skipped_hi = 0;
  int64_t est_blocks_decoded_lo = 0;
  int64_t est_blocks_decoded_hi = 0;
  int64_t est_cost = 0;
  /// Admission verdict ("accept" / "warn" / "reject").
  std::string est_verdict;

  /// Marked by Record when wall_ns crossed the slow-query threshold.
  bool slow = false;

  /// The EvaluateProfiled span tree of this query (parse -> analyze ->
  /// geo_filter -> moft_intersect -> aggregate).
  SpanNode profile;

  /// "" when every actual counter lies inside its estimate interval, when
  /// there is no estimate, or when the query errored (a rejected or failed
  /// query scans nothing the estimate promised to bracket). Otherwise
  /// names the first violated metric with the interval and the actual —
  /// the calibration gate's evidence line.
  std::string EstimateViolation() const;

  /// One-line rendering for \flight listings.
  std::string ToLine() const;
  /// One JSON object (single line, no trailing newline) — the JSONL sink
  /// shape. Includes the span tree.
  std::string ToJson() const;
};

/// Bounded in-memory ring of the last N query records plus a dedicated
/// slow-query log: queries at or over the slow threshold keep their full
/// span tree and text in a separate (also bounded) ring so a burst of
/// fast queries cannot evict the interesting ones. Optionally mirrors
/// every record to a JSONL sink as it arrives.
///
/// Callers gate on obs::Enabled() before building records (the evaluator
/// skips collection entirely when disabled); Record itself also refuses
/// to mutate while disabled, so the disabled path never changes state.
///
/// Thread-safe; one process-wide instance behind Global().
class FlightRecorder {
 public:
  struct Options {
    /// Flight-ring capacity; 0 disables recording entirely.
    size_t capacity = 64;
    /// Slow-query ring capacity.
    size_t slow_capacity = 32;
    /// Queries with wall time >= this are copied to the slow log.
    int64_t slow_threshold_ms = 100;
    /// JSONL sink path, "" = none. Records append as they arrive.
    std::string jsonl_path;

    /// PIET_OBS_FLIGHT_N / PIET_SLOW_QUERY_MS / PIET_OBS_FLIGHT_OUT.
    static Options FromEnv();
  };

  explicit FlightRecorder(Options opts);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder, configured from the environment on first
  /// use.
  static FlightRecorder& Global();

  /// Whether callers should collect at all (capacity > 0; the PIET_OBS
  /// gate is checked separately by the caller and by Record).
  bool active() const;

  /// Reconfigures (tests / shell): drops retained records.
  void Configure(Options opts);
  Options options() const;

  /// Stamps seq + slow, appends to the ring(s) and the JSONL sink. No-op
  /// while observability is disabled.
  void Record(QueryRecord record);

  /// Retained records, oldest first.
  std::vector<QueryRecord> Snapshot() const;
  /// Retained slow-query records, oldest first.
  std::vector<QueryRecord> SlowLog() const;

  size_t size() const;
  size_t slow_size() const;
  uint64_t total_recorded() const;

  /// Clears retained records (not the sequence counter).
  void Clear();

 private:
  mutable std::mutex mu_;
  Options opts_;
  std::deque<QueryRecord> ring_;
  std::deque<QueryRecord> slow_;
  uint64_t next_seq_ = 0;
  std::ofstream jsonl_;
};

}  // namespace piet::obs

#endif  // PIET_OBS_FLIGHT_H_
