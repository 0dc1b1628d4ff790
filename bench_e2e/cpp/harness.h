// Measurement plumbing of the end-to-end runner: clocks, order statistics,
// process memory, the runner's own in-memory span recorder, the metric
// catalog (name, unit, direction, tier) and the result writer.
#ifndef PIET_BENCH_E2E_HARNESS_H_
#define PIET_BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace piet::bench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Linear-interpolated quantile (0 <= q <= 1) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Resident set size and its high-water mark (VmRSS / VmHWM), in bytes.
int64_t RssBytes();
int64_t PeakRssBytes();
/// Returns freed heap pages to the OS so RSS deltas measure new memory.
void TrimHeap();

/// 64-bit FNV-1a, the answer fingerprint of the correctness gate.
uint64_t Fingerprint(std::string_view bytes);

/// The runner's span recorder: one strictly nested tree of obs::SpanNode,
/// kept in memory and exported at the end of the traced run. A null
/// recorder makes every Scope a no-op, which is how the untraced run pays
/// nothing. Single-threaded, like obs::TraceCollector.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string root_name);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowRel() const { return NowNs() - epoch_ns_; }

  /// Attaches a finished tree (e.g. an EXPLAIN ANALYZE profile, whose times
  /// are relative to its own collector) under the innermost open span,
  /// shifted to start at `start_rel`.
  void Graft(obs::SpanNode tree, int64_t start_rel);

  /// Closes the root and returns the tree.
  obs::SpanNode Finish();

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string_view name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanRecorder* rec_;
    obs::SpanNode* node_ = nullptr;
  };

 private:
  int64_t epoch_ns_;
  obs::SpanNode root_;
  std::vector<obs::SpanNode*> stack_;
};

/// Self time (duration minus the children's durations) summed per span
/// name over a tree.
void AccumulateSelfTimes(const obs::SpanNode& node,
                         std::map<std::string, int64_t>* self_ns);

/// How a metric is read: which way is better and which tier it belongs to.
enum class Tier { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher".
  Tier tier;
};

/// Every metric the runner emits, in output order.
const std::vector<MetricDef>& MetricCatalog();

/// One measured value plus the number of samples it summarizes.
struct MetricValue {
  double value = 0.0;
  int64_t samples = 1;
};

/// Renders a double with every significant digit (round-trip precision).
std::string FormatDouble(double v);
/// JSON string literal with escapes.
std::string JsonString(std::string_view s);

}  // namespace piet::bench

#endif  // PIET_BENCH_E2E_HARNESS_H_
