// The three workloads of the end-to-end benchmark. Each owns its generated
// inputs (made from --seed, untimed) and a database it loads from them
// (timed as set-up), and exposes a named, class-tagged query list that the
// runner executes in a closed loop. Every workload has a timed write cycle:
// one batch ingested as a new partition, then answered first. ingest_refresh
// runs it every round; paper_mix and cold_window run it only in set-up, so
// their loop only reads.
#ifndef PIET_BENCH_E2E_WORKLOADS_H_
#define PIET_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "harness.h"
#include "moving/moft.h"

namespace piet::bench {

enum class QueryClass { kWindow, kRegion, kTrajectory, kProximity, kGeo };
std::string_view ClassName(QueryClass c);

/// Program set-ups per run (one pre-generated input copy each); set-up
/// metrics are their medians.
inline constexpr int kSetups = 5;
/// Write cycles per batch in each set-up of a workload whose loop only
/// reads: they sample the write path in its place.
inline constexpr int kSetupWrites = 8;

struct Options {
  uint64_t seed = 1;
  double scale = 1.0;
  int threads = 1;            ///< Engine pool size (set_num_threads).
  std::string scratch_dir;    ///< Per-run directory for spill files.
};

/// Work counters the layer calls of one run accumulate (traced run only).
struct WorkCounters {
  int64_t engine_calls = 0;
  core::EngineStats engine;
  int64_t pietql_calls = 0;
  int64_t pietql_rows_scanned = 0;
  int64_t pietql_tuples = 0;
  int64_t pietql_blocks = 0;
  int64_t pietql_blocks_skipped = 0;
};

/// One query execution's view of the harness: the span recorder (null in
/// the untraced run) and the counters. Every call into a layer goes
/// through one of these wrappers, which puts the runner's span around it.
class Exec {
 public:
  Exec(SpanRecorder* rec, WorkCounters* work) : rec_(rec), work_(work) {}

  SpanRecorder* recorder() const { return rec_; }

  /// Nanoseconds spent inside layer calls since the last TakeCallNs(): a
  /// query's latency, which excludes the runner's answer rendering.
  int64_t TakeCallNs() { return std::exchange(call_ns_, 0); }

  /// A QueryEngine method or a core/queries.h helper, under a span named
  /// `span` ("core.engine:..." or "core.queries:..."); the engine's
  /// EngineStats of the call are added to the counters.
  template <typename Fn>
  auto Engine(std::string_view span, const core::QueryEngine& engine,
              Fn&& fn) {
    auto result = [&] {
      SpanRecorder::Scope scope(rec_, span);
      const int64_t t0 = NowNs();
      auto r = fn();
      call_ns_ += NowNs() - t0;
      return r;
    }();
    if (rec_ != nullptr) {
      ++work_->engine_calls;
      work_->engine += engine.stats();
    }
    return result;
  }

  /// A Piet-QL query: Evaluator::EvaluateString when untraced;
  /// EvaluateStringProfiled when traced, with its EXPLAIN ANALYZE tree
  /// grafted under the runner's span.
  Result<core::pietql::QueryResult> PietQl(
      const core::pietql::Evaluator& evaluator, const std::string& text);

 private:
  SpanRecorder* rec_;
  WorkCounters* work_;
  int64_t call_ns_ = 0;
};

struct Query {
  std::string name;
  QueryClass cls = QueryClass::kRegion;
  /// Runs the query and renders its answer canonically.
  std::function<Result<std::string>(Exec&)> run;
  /// Optional reference evaluation (Strategy::kNaive, or the serial engine
  /// path for calls without a strategy) compared once at set-up.
  std::function<Result<std::string>(Exec&)> reference;
  /// Optional exact check of the answer (Remark 1 must be 4/3).
  std::function<Status(const std::string&)> exact;
  /// The first execution of a `fresh` query after a write cycle reads the
  /// new partition and ends the cycle's freshness interval.
  bool fresh = false;
};

/// Timings of one load or write cycle: Add loop, seal, AddMoft and overlay
/// build, in nanoseconds, plus the rows loaded.
struct LoadTimes {
  int64_t samples = 0;
  int64_t add_ns = 0;
  int64_t seal_ns = 0;
  int64_t add_moft_ns = 0;
  int64_t overlay_ns = 0;
  bool measure_rss = false;  ///< Trim the heap first, then record:
  int64_t rss_growth = 0;    ///< RSS bytes gained across Add + seal.
  std::vector<double> add_chunk_ns;  ///< Add ns/sample per 16k-row chunk.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Makes every input from the options (untimed set-up of the benchmark).
  virtual Status Generate(const Options& options) = 0;

  /// Builds a fresh database from the generated inputs: the program's
  /// set-up. Spans go to `rec` when non-null.
  virtual Status Load(SpanRecorder* rec, LoadTimes* times) = 0;
  /// Drops the database (and everything the queries borrowed from it).
  virtual void Unload() = 0;

  /// The query list over the loaded database (valid until Unload).
  virtual std::vector<Query> Queries() = 0;

  /// Untimed work before every query execution (cold_window: ReleaseHot).
  virtual void BeforeQuery() {}

  /// The write cycle: one batch ingested as a new partition, which the
  /// first `fresh` query then reads. The batches (CycleBatches() distinct
  /// ones) repeat round-robin, so answers are checkable per batch. Each
  /// set-up runs one cycle per batch (kSetupWrites when the loop only
  /// reads) before its warm-up pass; the closed loop runs one per round
  /// only when WritesEveryRound().
  virtual bool WritesEveryRound() const { return false; }
  virtual int CycleBatches() const { return 1; }
  /// Untimed preparation of the next cycle (may reset accumulated state).
  virtual Status PrepareCycle(SpanRecorder* /*rec*/) { return Status::OK(); }
  /// The timed write of one cycle; returns which batch it ingested.
  virtual Result<int> IngestCycle(SpanRecorder* rec, LoadTimes* times) = 0;

  /// The loaded database (the runner's probes add tables to it) and the
  /// table the probes measure.
  virtual core::GeoOlapDatabase& db() = 0;
  virtual const std::string& main_moft() const = 0;
  virtual const std::string& region_layer() const = 0;
  /// The generated rows of the main table (probe inputs).
  virtual const std::vector<moving::Sample>& main_samples() const = 0;
  /// A representative narrow window for the SamplesBetween probe.
  virtual temporal::Interval probe_window() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// Loads `samples` into a fresh Moft through Moft::Add, timing the Add loop
/// and the seal (first Scan) into `times`.
Result<moving::Moft> LoadMoft(const std::vector<moving::Sample>& samples,
                              const moving::BlockOptions& options,
                              SpanRecorder* rec, LoadTimes* times);

/// Copies the sealed rows of a generated Moft into a plain sample vector.
std::vector<moving::Sample> ExtractSamples(const moving::Moft& moft);

}  // namespace piet::bench

#endif  // PIET_BENCH_E2E_WORKLOADS_H_
