// bench_e2e — one end-to-end benchmark of the Piet-MO pipeline.
//
//   bench_e2e --workload <paper_mix|cold_window|ingest_refresh> --seed N
//             --seconds S --trace 0|1 [--scale F]
//             [--queries a,b] [--skip a,b] [--out DIR] [--baseline PATH]
//             [--revision STR] [--perturb NAME]
//   bench_e2e --describe          (the metric catalog as JSON)
//
// The engine pool is min(4, nproc) threads, set through set_num_threads
// and recorded with the results.
//
// One client runs the workload's named query list in a closed loop. The
// untraced run (observability off, plain Evaluate / QueryEngine calls)
// gives the end-to-end metrics; with --trace 1 a second, traced run gives
// the per-layer metrics: the runner's own spans around every layer call,
// EXPLAIN ANALYZE trees grafted under them, registry counters, and
// storage/geometry probes. Every answer is fingerprinted on the warm-up
// pass and re-checked on every timed execution; any mismatch fails the
// run. The last line of standard output is the result object.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/geometry/batch.h"
#include "harness.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "olap/aggregate.h"
#include "workloads.h"

extern char** environ;

namespace piet::bench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::set<std::string> only;
  std::set<std::string> skip;
  std::string out_dir;
  std::string baseline;
  std::string revision = "unknown";
  std::string perturb;
  bool describe = false;
};

std::set<std::string> SplitNames(const std::string& csv) {
  std::set<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.insert(item);
    }
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        *error = flag + " needs a value";
        return "";
      }
      return argv[++i];
    };
    if (flag == "--describe") {
      args->describe = true;
    } else {
      const std::string v = value();
      if (!error->empty()) {
        return false;
      }
      try {
        if (flag == "--workload") {
          args->workload = v;
        } else if (flag == "--seed") {
          args->seed = std::stoull(v);
        } else if (flag == "--seconds") {
          args->seconds = std::stod(v);
        } else if (flag == "--trace") {
          args->trace = v == "1";
        } else if (flag == "--scale") {
          args->scale = std::stod(v);
        } else if (flag == "--queries") {
          args->only = SplitNames(v);
        } else if (flag == "--skip") {
          args->skip = SplitNames(v);
        } else if (flag == "--out") {
          args->out_dir = v;
        } else if (flag == "--baseline") {
          args->baseline = v;
        } else if (flag == "--revision") {
          args->revision = v;
        } else if (flag == "--perturb") {
          args->perturb = v;
        } else {
          *error = "unknown flag " + flag;
          return false;
        }
      } catch (const std::exception&) {
        *error = "bad value for " + flag + ": " + v;
        return false;
      }
    }
  }
  return true;
}

/// BlockOptions::FromEnv and DefaultThreads cache the environment on first
/// use, so a PIET_* knob cannot be unset from inside the process: refuse.
std::vector<std::string> PietEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "PIET_", 5) == 0) {
      found.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return found;
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__)
  const std::string type = PIET_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// The correctness gate.

class Gate {
 public:
  explicit Gate(std::string perturb) : perturb_(std::move(perturb)) {}

  /// Checks one answer. `golden` answers are recorded on the warm-up pass
  /// (`record`); every later execution must match them exactly.
  bool Check(const Query& q, int variant, Result<std::string> answer,
             bool record) {
    ++attempted_;
    const std::string key = q.name + "#" + std::to_string(variant);
    if (!answer.ok()) {
      return Fail(key + ": " + answer.status().ToString());
    }
    std::string text = std::move(answer).ValueOrDie();
    if (!record && q.name == perturb_) {
      text += " (perturbed)";
    }
    if (q.exact) {
      Status exact = q.exact(text);
      if (!exact.ok()) {
        return Fail(key + ": " + exact.ToString());
      }
    }
    const uint64_t fp = Fingerprint(text);
    auto it = golden_.find(key);
    if (it == golden_.end()) {
      if (!record) {
        return Fail(key + ": no warm-up answer to check against");
      }
      golden_.emplace(key, fp);
      return true;
    }
    if (it->second != fp) {
      return Fail(key + ": answer differs from the warm-up answer: " +
                  text.substr(0, 200));
    }
    return true;
  }

  /// A reference evaluation must reproduce the recorded answer.
  bool CheckReference(const Query& q, int variant, Result<std::string> ref) {
    ++attempted_;
    const std::string key = q.name + "#" + std::to_string(variant);
    if (!ref.ok()) {
      return Fail(key + " reference: " + ref.status().ToString());
    }
    auto it = golden_.find(key);
    if (it == golden_.end() || it->second != Fingerprint(ref.ValueOrDie())) {
      return Fail(key + ": differs from its reference evaluation: " +
                  ref.ValueOrDie().substr(0, 200));
    }
    return true;
  }

  bool Fail(std::string message) {
    ++failed_;
    if (messages_.size() < 20) {
      std::fprintf(stderr, "bench_e2e: FAILED %s\n", message.c_str());
      messages_.push_back(std::move(message));
    }
    return false;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::string perturb_;
  std::map<std::string, uint64_t> golden_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Runs.

/// A write cycle's freshness: the write (Add loop, seal, AddMoft) plus the
/// first answer on the new partition, which is the next query after it.
double FreshnessMs(const LoadTimes& cycle, int64_t answer_ns) {
  return static_cast<double>(cycle.add_ns + cycle.seal_ns +
                             cycle.add_moft_ns + answer_ns) /
         1e6;
}

struct SetupResult {
  double setup_s = 0.0;
  double classify_ms = 0.0;
  LoadTimes load;
  std::vector<LoadTimes> cycles;     ///< The write cycles.
  std::vector<double> freshness_ms;  ///< One per write cycle.
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::map<QueryClass, std::vector<double>> class_ms;
  std::map<std::string, std::vector<double>> query_ms;
  std::vector<LoadTimes> cycles;
  std::vector<double> freshness_ms;
  int64_t executions = 0;
  int64_t busy_ns = 0;
  obs::SpanNode tree;  ///< Traced run only.

  double Qps() const {
    return busy_ns > 0 ? static_cast<double>(executions) * 1e9 /
                             static_cast<double>(busy_ns)
                       : 0.0;
  }
};

class Runner {
 public:
  Runner(const Args& args, Workload* workload, Options options)
      : args_(args), w_(workload), options_(std::move(options)),
        gate_(args.perturb) {}

  Status Generate() {
    const int64_t t0 = NowNs();
    PIET_RETURN_NOT_OK(w_->Generate(options_));
    generate_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    return Status::OK();
  }

  /// One program set-up: load, then per batch its write cycles, each
  /// answered at once by the first `fresh` query, and a warm-up pass; the
  /// main table's cold classification follows the first batch's writes
  /// (whose AddMoft would drop it). The first set-up also records the
  /// answers and runs the reference checks.
  Status Setup(int k, SetupResult* out) {
    if (k > 0) {
      w_->Unload();
    }
    out->load.measure_rss = k == 0;  // The first load's growth is reported.
    int64_t busy = 0;
    int64_t t0 = NowNs();
    PIET_RETURN_NOT_OK(w_->Load(nullptr, &out->load));
    busy += NowNs() - t0;
    if (k == 0) {
      load_rss_bytes_per_sample_ =
          static_cast<double>(out->load.rss_growth) /
          static_cast<double>(std::max<int64_t>(1, out->load.samples));
    }
    queries_ = Select(w_->Queries());
    WorkCounters unused;
    Exec exec(nullptr, &unused);
    const Query* fresh = nullptr;
    for (const Query& q : queries_) {
      if (q.fresh && fresh == nullptr) {
        fresh = &q;
      }
    }
    const int writes = w_->WritesEveryRound() ? 1 : kSetupWrites;
    for (int pass = 0; pass < w_->CycleBatches(); ++pass) {
      PIET_RETURN_NOT_OK(w_->PrepareCycle(nullptr));
      int variant = 0;
      for (int r = 0; r < writes; ++r) {
        LoadTimes cycle;
        t0 = NowNs();
        PIET_ASSIGN_OR_RETURN(variant, w_->IngestCycle(nullptr, &cycle));
        busy += NowNs() - t0;
        out->cycles.push_back(cycle);
        if (fresh != nullptr) {
          w_->BeforeQuery();
          Result<std::string> answer = fresh->run(exec);
          const int64_t call_ns = exec.TakeCallNs();
          busy += call_ns;
          out->freshness_ms.push_back(FreshnessMs(cycle, call_ns));
          gate_.Check(*fresh, variant, std::move(answer), /*record=*/k == 0);
        }
      }
      if (pass == 0) {
        t0 = NowNs();
        PIET_RETURN_NOT_OK(
            w_->db().ClassifySamples(w_->main_moft(), w_->region_layer())
                .status());
        const int64_t classify_ns = NowNs() - t0;
        busy += classify_ns;
        out->classify_ms = static_cast<double>(classify_ns) / 1e6;
      }
      for (const Query& q : queries_) {
        w_->BeforeQuery();
        Result<std::string> answer = q.run(exec);
        busy += exec.TakeCallNs();
        gate_.Check(q, variant, std::move(answer), /*record=*/k == 0);
      }
      if (k == 0) {
        // Cross-check against the naive / serial evaluation (untimed).
        for (const Query& q : queries_) {
          if (q.reference) {
            w_->BeforeQuery();
            gate_.CheckReference(q, variant, q.reference(exec));
          }
        }
      }
    }
    out->setup_s = static_cast<double>(busy) / 1e9;
    return Status::OK();
  }

  /// The closed loop: complete rounds, each a write cycle (when the
  /// workload writes every round) followed by the query list, until
  /// `seconds` elapsed.
  Status Loop(double seconds, SpanRecorder* rec, WorkCounters* work,
              LoopResult* out) {
    Exec exec(rec, work);
    const int64_t budget = static_cast<int64_t>(seconds * 1e9);
    const int64_t start = NowNs();
    const bool writes = w_->WritesEveryRound();
    do {
      LoadTimes cycle;
      int variant = 0;
      if (writes) {
        PIET_RETURN_NOT_OK(w_->PrepareCycle(rec));
        const int64_t t0 = NowNs();
        Result<int> ingested = [&] {
          SpanRecorder::Scope span(rec, "cycle:ingest");
          return w_->IngestCycle(rec, &cycle);
        }();
        PIET_RETURN_NOT_OK(ingested.status());
        variant = ingested.ValueOrDie();
        out->busy_ns += NowNs() - t0;
        out->cycles.push_back(cycle);
      }
      bool fresh_done = !writes;
      for (const Query& q : queries_) {
        {
          SpanRecorder::Scope span(rec, "bench.untimed:before_query");
          w_->BeforeQuery();
        }
        Result<std::string> answer = [&] {
          SpanRecorder::Scope span(rec, "q:" + q.name);
          return q.run(exec);
        }();
        const int64_t call_ns = exec.TakeCallNs();
        const double ms = static_cast<double>(call_ns) / 1e6;
        out->latency_ms.push_back(ms);
        out->class_ms[q.cls].push_back(ms);
        out->query_ms[q.name].push_back(ms);
        out->busy_ns += call_ns;
        ++out->executions;
        if (q.fresh && !fresh_done) {
          out->freshness_ms.push_back(FreshnessMs(cycle, call_ns));
          fresh_done = true;
        }
        SpanRecorder::Scope span(rec, "bench:verify");
        gate_.Check(q, variant, std::move(answer), /*record=*/false);
      }
    } while (NowNs() - start < budget);
    return Status::OK();
  }

  std::vector<Query> Select(std::vector<Query> all) const {
    std::vector<Query> out;
    for (Query& q : all) {
      if (args_.skip.count(q.name) ||
          (!args_.only.empty() && !args_.only.count(q.name))) {
        continue;
      }
      out.push_back(std::move(q));
    }
    return out;
  }

  const std::vector<Query>& queries() const { return queries_; }
  Gate& gate() { return gate_; }
  double generate_s() const { return generate_s_; }
  double load_rss_bytes_per_sample() const {
    return load_rss_bytes_per_sample_;
  }

 private:
  const Args& args_;
  Workload* w_;
  Options options_;
  Gate gate_;
  std::vector<Query> queries_;
  double generate_s_ = 0.0;
  double load_rss_bytes_per_sample_ = 0.0;
};

// ---------------------------------------------------------------------------
// Metrics.

using Metrics = std::map<std::string, MetricValue>;

void Put(Metrics* m, const std::string& name, double value,
         int64_t samples = 1) {
  (*m)[name] = MetricValue{value, samples};
}

void PutMedian(Metrics* m, const std::string& name,
               const std::vector<double>& values, double factor = 1.0) {
  Put(m, name, Median(values) * factor,
      static_cast<int64_t>(values.size()));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

moving::Moft::StorageFootprint TotalFootprint(const core::GeoOlapDatabase& db,
                                              int64_t* samples) {
  moving::Moft::StorageFootprint total;
  for (const std::string& name : db.MoftNames()) {
    auto moft = db.GetMoft(name);
    if (moft.ok()) {
      total += moft.ValueOrDie()->Footprint();
      *samples += static_cast<int64_t>(moft.ValueOrDie()->num_samples());
    }
  }
  return total;
}

void EndToEndMetrics(const std::vector<SetupResult>& setups,
                     const LoopResult& loop, const Runner& runner,
                     Workload* w, Metrics* m) {
  // Write cycles: the loop's, or the set-ups' when the loop only reads.
  std::vector<double> setup_s, setup_freshness_ms;
  std::vector<LoadTimes> setup_cycles;
  for (const SetupResult& s : setups) {
    setup_s.push_back(s.setup_s);
    setup_freshness_ms.insert(setup_freshness_ms.end(),
                              s.freshness_ms.begin(), s.freshness_ms.end());
    setup_cycles.insert(setup_cycles.end(), s.cycles.begin(), s.cycles.end());
  }
  // Ingest rate: the median Add cost per sample over 16k-row chunks plus
  // the median per-sample cost of seal and AddMoft.
  std::vector<double> add_chunks, rest;
  for (const LoadTimes& c :
       loop.cycles.empty() ? setup_cycles : loop.cycles) {
    add_chunks.insert(add_chunks.end(), c.add_chunk_ns.begin(),
                      c.add_chunk_ns.end());
    rest.push_back(Ratio(static_cast<double>(c.seal_ns + c.add_moft_ns),
                         static_cast<double>(c.samples)));
  }
  PutMedian(m, "setup_s", setup_s);
  Put(m, "qps", loop.Qps(), loop.executions);
  Put(m, "latency_ms_p50", Quantile(loop.latency_ms, 0.5),
      static_cast<int64_t>(loop.latency_ms.size()));
  Put(m, "latency_ms_p90", Quantile(loop.latency_ms, 0.9),
      static_cast<int64_t>(loop.latency_ms.size()));
  auto cls = [&](QueryClass c) {
    auto it = loop.class_ms.find(c);
    return it == loop.class_ms.end() ? std::vector<double>{} : it->second;
  };
  PutMedian(m, "window_ms_p50", cls(QueryClass::kWindow));
  PutMedian(m, "region_ms_p50", cls(QueryClass::kRegion));
  PutMedian(m, "trajectory_ms_p50", cls(QueryClass::kTrajectory));
  PutMedian(m, "proximity_ms_p50", cls(QueryClass::kProximity));
  PutMedian(m, "geo_us_p50", cls(QueryClass::kGeo), 1e3);
  PutMedian(m, "freshness_ms_p50", loop.freshness_ms.empty()
                                        ? setup_freshness_ms
                                        : loop.freshness_ms);
  Put(m, "ingest_msamples_per_s",
      Ratio(1e3, Median(add_chunks) + Median(rest)),
      static_cast<int64_t>(add_chunks.size()));
  Put(m, "load_rss_bytes_per_sample", runner.load_rss_bytes_per_sample());
  w->BeforeQuery();  // Storage at rest (cold_window: hot tier released).
  int64_t samples = 0;
  const moving::Moft::StorageFootprint fp = TotalFootprint(w->db(), &samples);
  Put(m, "stored_bytes_per_sample",
      Ratio(static_cast<double>(fp.resident_bytes + fp.compressed_bytes +
                                fp.spilled_bytes),
            static_cast<double>(samples)));
  Put(m, "peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1 << 20));
}

/// Which layer a span's self time belongs to; "" = unattributed glue,
/// "untimed" = work the loop excludes from its wall time (the runner's
/// answer rendering and checking, which latency excludes too).
std::string LayerOf(const std::string& span) {
  auto starts = [&](std::string_view p) { return span.rfind(p, 0) == 0; };
  if (span == "parse") return "pietql.parse";
  if (span == "analyze" || span == "lint") return "pietql.analyze";
  if (span == "estimate") return "pietql.estimate";
  if (span == "rewrite" || starts("rewrite_rule:")) return "pietql.rewrite";
  if (span == "geo_filter" || starts("geo_condition:")) {
    return "pietql.geo_filter";
  }
  if (span == "moft_intersect" || span == "agg_cache") {
    return "pietql.moft_intersect";
  }
  if (span == "aggregate") return "pietql.aggregate";
  if (span == "query" || starts("q:") || starts("bench_e2e:") ||
      starts("cycle:")) {
    return "";
  }
  if (starts("bench.untimed:") || starts("bench:")) return "untimed";
  const size_t colon = span.find(':');
  return colon == std::string::npos ? "pietql.other" : span.substr(0, colon);
}

struct Probes {
  std::vector<double> window_probe_us, spill_ms, rematerialize_ms,
      locate_ns, pip_ns, leg_ns, olap_us, aggcache_ms;
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Layer primitives measured directly on the workload's data, after the
/// traced loop (observability off again).
Status RunProbes(Workload* w, const Options& options, Probes* p) {
  const core::GeoOlapDatabase& db = w->db();
  PIET_ASSIGN_OR_RETURN(const moving::Moft* main, db.GetMoft(w->main_moft()));
  const temporal::Interval win = w->probe_window();
  for (int i = 0; i < 7; ++i) {
    w->BeforeQuery();
    p->window_probe_us.push_back(1e3 * TimeMs([&] {
      moving::BlockIoStats io;
      volatile size_t rows = main->SamplesBetween(win.begin, win.end, &io).size();
      (void)rows;
    }));
  }

  // Spill and rematerialize a copy of the main table.
  const std::vector<moving::Sample>& samples = w->main_samples();
  moving::BlockOptions spill_opts = moving::BlockOptions::FromEnv();
  spill_opts.spill_dir = options.scratch_dir;
  for (int i = 0; i < 3; ++i) {
    LoadTimes ignored;
    PIET_ASSIGN_OR_RETURN(moving::Moft copy,
                          LoadMoft(samples, spill_opts, nullptr, &ignored));
    Status spilled;
    p->spill_ms.push_back(TimeMs([&] { spilled = copy.SpillToDisk(); }));
    PIET_RETURN_NOT_OK(spilled);
    p->rematerialize_ms.push_back(TimeMs([&] { (void)copy.Scan(); }));
  }

  // Overlay point location over workload positions.
  const size_t n = std::min<size_t>(samples.size(), 200000);
  std::vector<geometry::Point> points;
  std::vector<double> xs, ys;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(samples[i].pos);
    xs.push_back(samples[i].pos.x);
    ys.push_back(samples[i].pos.y);
  }
  PIET_ASSIGN_OR_RETURN(const gis::OverlayDb* overlay, db.overlay());
  PIET_ASSIGN_OR_RETURN(size_t layer_index,
                        db.OverlayLayerIndex(w->region_layer()));
  for (int i = 0; i < 5; ++i) {
    const double ms = TimeMs([&] {
      volatile size_t hits =
          overlay->LocateBatch(points, layer_index, options.threads)
              .ids.size();
      (void)hits;
    });
    p->locate_ns.push_back(ms * 1e6 / static_cast<double>(std::max<size_t>(1, n)));
  }

  // Batch point-in-polygon and leg crossing against low-income polygons.
  PIET_ASSIGN_OR_RETURN(const gis::Layer* layer,
                        db.gis().GetLayer(w->region_layer()));
  std::vector<core::batch::PolygonBatcher> batchers;
  for (gis::GeometryId id : layer->ids()) {
    auto income = layer->GetAttribute(id, "income");
    auto poly = layer->GetPolygon(id);
    if (income.ok() && poly.ok() &&
        income.ValueOrDie().AsNumeric().ValueOr(1e9) < 1500.0) {
      batchers.emplace_back(poly.ValueOrDie());
    }
    if (batchers.size() == 8) {
      break;
    }
  }
  if (!batchers.empty()) {
    const size_t tile = std::min<size_t>(n, 65536);
    core::batch::BatchScratch scratch;
    std::vector<uint8_t> inside;
    for (int i = 0; i < 5; ++i) {
      const double ms = TimeMs([&] {
        for (const auto& b : batchers) {
          b.ContainsBatch(std::span<const double>(xs.data(), tile),
                          std::span<const double>(ys.data(), tile), &scratch,
                          &inside);
        }
      });
      p->pip_ns.push_back(ms * 1e6 /
                          static_cast<double>(tile * batchers.size()));
    }
    // Legs: consecutive samples of one object (the samples are (oid, t)
    // ordered), per object span.
    std::vector<std::pair<size_t, size_t>> spans;
    for (size_t i = 0; i < n;) {
      size_t j = i;
      while (j < n && samples[j].oid == samples[i].oid) {
        ++j;
      }
      spans.emplace_back(i, j);
      i = j;
    }
    for (int i = 0; i < 5; ++i) {
      size_t legs = 0;
      const double ms = TimeMs([&] {
        size_t crossing = 0;
        for (const auto& b : batchers) {
          for (const auto& [s, e] : spans) {
            crossing += b.AnyLegIntersects(
                std::span<const double>(xs.data() + s, e - s),
                std::span<const double>(ys.data() + s, e - s));
            legs += e - s - 1;
          }
        }
        volatile size_t sink = crossing;
        (void)sink;
      });
      p->leg_ns.push_back(ms * 1e6 / static_cast<double>(std::max<size_t>(1, legs)));
    }
  }

  // γ over the type-4 region relation.
  core::QueryEngine engine(&db);
  engine.set_num_threads(options.threads);
  core::TimePredicate when;
  when.Window(win);
  w->BeforeQuery();
  PIET_ASSIGN_OR_RETURN(
      olap::FactTable region,
      engine.SampleRegion(w->main_moft(), w->region_layer(),
                          core::GeometryPredicate::AttributeLess("income",
                                                                 1500.0),
                          when, core::Strategy::kOverlay));
  for (int i = 0; i < 5; ++i) {
    Status st;
    p->olap_us.push_back(1e3 * TimeMs([&] {
      st = olap::Aggregate(region, {"geom"},
                           olap::AggFunction::kCountDistinct, "Oid")
               .status();
    }));
    PIET_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

/// Cold aggregate-cache builds: each AddMoft of a one-row table drops every
/// cache entry, so the next AggCache call rebuilds from scratch.
Status ProbeAggCache(Workload* w, Probes* p) {
  core::GeoOlapDatabase* db = &w->db();
  for (int i = 0; i < 3; ++i) {
    moving::Moft tiny;
    PIET_RETURN_NOT_OK(
        tiny.Add(1, temporal::TimePoint(0.0), geometry::Point(0.0, 0.0)));
    PIET_RETURN_NOT_OK(
        db->AddMoft("probe_invalidate_" + std::to_string(i), std::move(tiny)));
    w->BeforeQuery();
    Status st;
    p->aggcache_ms.push_back(TimeMs([&] {
      st = db->AggCache(w->main_moft(), w->region_layer()).status();
    }));
    PIET_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

void PerLayerMetrics(const Runner& runner, const std::vector<SetupResult>& setups,
                     const LoopResult& untraced, const LoopResult& traced,
                     const WorkCounters& work, const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after, const Probes& probes,
                     const Options& options, Workload* w, Metrics* m,
                     std::map<std::string, int64_t>* self_by_span) {
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double execs = static_cast<double>(std::max<int64_t>(1, traced.executions));
  Put(m, "workload.generate_s", runner.generate_s());

  // The write path over the traced run's cycles, or over the set-ups'
  // cycles when the loop only reads.
  std::vector<double> add_ns, seal_ms, add_moft_ms, overlay_ms, classify_ms;
  std::vector<LoadTimes> setup_cycles;
  for (const SetupResult& s : setups) {
    overlay_ms.push_back(static_cast<double>(s.load.overlay_ns) / 1e6);
    classify_ms.push_back(s.classify_ms);
    setup_cycles.insert(setup_cycles.end(), s.cycles.begin(), s.cycles.end());
  }
  for (const LoadTimes& c :
       traced.cycles.empty() ? setup_cycles : traced.cycles) {
    add_ns.push_back(Ratio(static_cast<double>(c.add_ns),
                           static_cast<double>(c.samples)));
    seal_ms.push_back(static_cast<double>(c.seal_ns) / 1e6);
    add_moft_ms.push_back(static_cast<double>(c.add_moft_ns) / 1e6);
  }
  PutMedian(m, "moving.add_ns_per_sample", add_ns);
  PutMedian(m, "moving.seal_ms", seal_ms);
  PutMedian(m, "moving.add_moft_ms", add_moft_ms);
  PutMedian(m, "moving.spill_ms", probes.spill_ms);
  PutMedian(m, "moving.rematerialize_ms", probes.rematerialize_ms);
  Put(m, "moving.rematerializations_per_query",
      delta("moft.hot_materializations") / execs);
  Put(m, "moving.blocks_decoded_per_query", delta("moft.block.decodes") / execs);
  const double skipped = static_cast<double>(work.engine.blocks.blocks_skipped +
                                             work.pietql_blocks_skipped);
  const double considered =
      skipped + static_cast<double>(work.engine.blocks.blocks_pinned) +
      static_cast<double>(work.pietql_blocks - work.pietql_blocks_skipped);
  Put(m, "moving.blocks_skipped_per_query", skipped / execs);
  Put(m, "moving.block_skip_ratio", Ratio(skipped, considered));
  PutMedian(m, "moving.window_probe_us", probes.window_probe_us);
  w->BeforeQuery();
  int64_t samples = 0;
  const moving::Moft::StorageFootprint fp = TotalFootprint(w->db(), &samples);
  Put(m, "moving.resident_bytes", static_cast<double>(fp.resident_bytes));
  Put(m, "moving.compressed_bytes", static_cast<double>(fp.compressed_bytes));
  Put(m, "moving.spilled_bytes", static_cast<double>(fp.spilled_bytes));

  PutMedian(m, "gis.overlay_build_ms", overlay_ms);
  PutMedian(m, "gis.locate_ns_per_point", probes.locate_ns);
  auto overlay = w->db().overlay();
  Put(m, "gis.overlay_cells",
      overlay.ok() ? static_cast<double>(overlay.ValueOrDie()->num_cells())
                   : 0.0);

  PutMedian(m, "db.classify_ms", classify_ms);
  const double hits = delta("db.classify.cache_hits");
  Put(m, "db.classify_hit_ratio",
      Ratio(hits, hits + delta("db.classify.cache_misses")));
  PutMedian(m, "aggcache.build_ms", probes.aggcache_ms);
  Put(m, "aggcache.served_ratio",
      Ratio(delta("pietql.aggcache.served"),
            static_cast<double>(work.pietql_calls)));
  Put(m, "aggcache.fallback_subhour", delta("pietql.aggcache.fallback_subhour"));

  // Self times by layer.
  AccumulateSelfTimes(traced.tree, self_by_span);
  std::map<std::string, double> layer_ms;
  double untimed_ms = 0.0;
  for (const auto& [span, ns] : *self_by_span) {
    const std::string layer = LayerOf(span);
    const double ms = static_cast<double>(ns) / 1e6;
    if (layer == "untimed") {
      untimed_ms += ms;
    } else {
      layer_ms[layer] += ms;
    }
  }
  const double engine_calls = static_cast<double>(std::max<int64_t>(1, work.engine_calls));
  Put(m, "engine.call_ms",
      (layer_ms["core.engine"] + layer_ms["core.queries"]) / engine_calls,
      work.engine_calls);
  Put(m, "engine.samples_scanned",
      static_cast<double>(work.engine.samples_scanned) / engine_calls);
  Put(m, "engine.point_tests",
      static_cast<double>(work.engine.point_tests) / engine_calls);
  Put(m, "engine.legs_tested",
      static_cast<double>(work.engine.legs_tested) / engine_calls);
  PutMedian(m, "geometry.pip_ns_per_point", probes.pip_ns);
  PutMedian(m, "geometry.leg_ns_per_leg", probes.leg_ns);

  const double ql = static_cast<double>(std::max<int64_t>(1, work.pietql_calls));
  for (const char* stage :
       {"parse", "analyze", "estimate", "rewrite", "geo_filter", "aggregate",
        "unattributed"}) {
    const std::string key = std::string("pietql.") + stage;
    const double ms = stage == std::string("unattributed")
                          ? static_cast<double>((*self_by_span)["query"]) / 1e6
                          : layer_ms[key];
    Put(m, key + "_us", ms * 1e3 / ql, work.pietql_calls);
  }
  Put(m, "pietql.moft_intersect_ms", layer_ms["pietql.moft_intersect"] / ql,
      work.pietql_calls);
  Put(m, "pietql.rows_scanned", static_cast<double>(work.pietql_rows_scanned) / ql);
  Put(m, "pietql.tuples", static_cast<double>(work.pietql_tuples) / ql);
  Put(m, "pietql.rows_per_tuple",
      Ratio(static_cast<double>(work.pietql_rows_scanned),
            static_cast<double>(work.pietql_tuples)));
  PutMedian(m, "olap.aggregate_us", probes.olap_us);
  Put(m, "parallel.threads", options.threads);
  Put(m, "parallel.loops_per_query", delta("parallel.loops") / execs);
  Put(m, "parallel.chunk_imbalance",
      static_cast<double>(after.gauge("parallel.chunk_imbalance")));
  Put(m, "obs.trace_overhead_ratio", Ratio(untraced.Qps(), traced.Qps()));

  // Coverage: named layers' self time over the traced wall time.
  const double wall_ms =
      static_cast<double>(traced.tree.duration_ns) / 1e6 - untimed_ms;
  // The "" layer holds the loop glue and the EXPLAIN ANALYZE roots' own
  // time (pietql.unattributed): neither is a named stage.
  const double unattributed_ms = layer_ms[""];
  double named_ms = 0.0;
  for (const auto& [layer, ms] : layer_ms) {
    named_ms += layer.empty() ? 0.0 : ms;
  }
  Put(m, "trace.attributed_ratio", Ratio(named_ms, wall_ms));
  Put(m, "trace.unattributed_ms", unattributed_ms);
}

// ---------------------------------------------------------------------------
// Output.

std::string MetricsJson(const Metrics& m, Tier tier, bool full) {
  std::string out = "{";
  bool first = true;
  for (const MetricDef& def : MetricCatalog()) {
    if (def.tier != tier) {
      continue;
    }
    auto it = m.find(def.name);
    const MetricValue v = it == m.end() ? MetricValue{} : it->second;
    out += first ? "" : ", ";
    first = false;
    out += JsonString(def.name) + ": {\"value\": " + FormatDouble(v.value) +
           ", \"unit\": " + JsonString(def.unit);
    if (full) {
      out += ", \"better\": " + JsonString(def.better) +
             ", \"samples\": " + std::to_string(v.samples);
    }
    out += "}";
  }
  return out + "}";
}

std::string DescribeJson() {
  std::string out = "{\"end_to_end\": [";
  for (Tier tier : {Tier::kEndToEnd, Tier::kPerLayer}) {
    if (tier == Tier::kPerLayer) {
      out += "], \"per_layer\": [";
    }
    bool first = true;
    for (const MetricDef& def : MetricCatalog()) {
      if (def.tier != tier) {
        continue;
      }
      out += first ? "" : ", ";
      first = false;
      out += "{\"name\": " + JsonString(def.name) + ", \"unit\": " +
             JsonString(def.unit) + ", \"better\": " +
             JsonString(def.better) + "}";
    }
  }
  out += "], \"workloads\": [";
  bool first = true;
  for (const std::string& w : WorkloadNames()) {
    out += (first ? "" : ", ") + JsonString(w);
    first = false;
  }
  return out + "]}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
    return 2;
  }
  if (args.describe) {
    std::printf("%s\n", DescribeJson().c_str());
    return 0;
  }
  const std::vector<std::string> piet_env = PietEnvironment();
  if (!piet_env.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to run with %s set; the benchmark "
                 "measures the default configuration only\n",
                 piet_env.front().c_str());
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "bench_e2e: refusing an unoptimized build (build type '%s'); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PIET_BENCH_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool partial = !args.only.empty() || !args.skip.empty() ||
                       !args.perturb.empty();
  if (partial && !args.baseline.empty()) {
    std::fprintf(stderr,
                 "bench_e2e: a partial run (--queries/--skip/--perturb) is "
                 "never written as a baseline\n");
    return 2;
  }

  Options options;
  options.seed = args.seed;
  options.scale = args.scale;
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  options.threads = std::min(4, nproc);
  const fs::path out_dir =
      args.out_dir.empty() ? fs::path(".") : fs::path(args.out_dir);
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  const fs::path scratch =
      out_dir / ("spill-" + std::to_string(static_cast<long>(getpid())));
  fs::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s\n", scratch.c_str());
    return 2;
  }
  options.scratch_dir = scratch.string();
  // Spill files live only as long as the run.
  struct ScratchGuard {
    fs::path dir;
    ~ScratchGuard() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } scratch_guard{scratch};

  Runner runner(args, workload.get(), options);
  auto fail = [&](const Status& st) {
    std::fprintf(stderr, "bench_e2e: %s\n", st.ToString().c_str());
    workload->Unload();
    return 1;
  };
  if (Status st = runner.Generate(); !st.ok()) {
    return fail(st);
  }
  // Untraced run: the end-to-end metrics. It is split into one segment per
  // set-up, each over the database that set-up loaded: how fast a query
  // runs can differ from one load to the next (where the tables landed in
  // memory), and the run's figures then pool all the loads.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<SetupResult> setups(static_cast<size_t>(kSetups));
  LoopResult untraced;
  WorkCounters no_work;
  for (int k = 0; k < kSetups; ++k) {
    if (Status st = runner.Setup(k, &setups[static_cast<size_t>(k)]); !st.ok()) {
      return fail(st);
    }
    if (runner.queries().empty()) {
      std::fprintf(stderr, "bench_e2e: no query selected\n");
      workload->Unload();
      return 2;
    }
    if (Status st =
            runner.Loop(untraced_s / kSetups, nullptr, &no_work, &untraced);
        !st.ok()) {
      return fail(st);
    }
  }
  Metrics metrics;
  EndToEndMetrics(setups, untraced, runner, workload.get(), &metrics);

  // Traced run: the per-layer metrics.
  std::map<std::string, int64_t> self_by_span;
  obs::SpanNode tree;
  obs::MetricsSnapshot registry_after;
  if (args.trace) {
    LoopResult traced;
    WorkCounters work;
    obs::SetEnabled(true);
    const obs::MetricsSnapshot before = workload->db().Stats();
    SpanRecorder rec("bench_e2e:" + args.workload);
    Status st = runner.Loop(args.seconds - untraced_s, &rec, &work, &traced);
    traced.tree = rec.Finish();
    registry_after = workload->db().Stats();
    obs::SetEnabled(false);
    if (!st.ok()) {
      return fail(st);
    }
    Probes probes;
    if (Status p = RunProbes(workload.get(), options, &probes); !p.ok()) {
      return fail(p);
    }
    if (Status p = ProbeAggCache(workload.get(), &probes); !p.ok()) {
      return fail(p);
    }
    PerLayerMetrics(runner, setups, untraced, traced, work, before,
                    registry_after, probes, options, workload.get(), &metrics,
                    &self_by_span);
    tree = std::move(traced.tree);
  }
  workload->Unload();

  const Gate& gate = runner.gate();
  const bool correct = gate.failed() == 0;
  const Tier tier = args.trace ? Tier::kPerLayer : Tier::kEndToEnd;

  // The result file: every metric with unit, direction and sample count,
  // plus provenance and per-query latencies.
  const std::string stem = "e2e-" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace1" : "-trace0");
  std::ostringstream doc;
  doc << "{\"benchmark\": \"bench_e2e\", \"workload\": "
      << JsonString(args.workload) << ", \"partial\": "
      << (partial ? "true" : "false") << ",\n \"provenance\": {\"nproc\": "
      << nproc << ", \"pool_threads\": " << options.threads
      << ", \"compiler\": " << JsonString(PIET_BENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PIET_BENCH_BUILD_TYPE)
      << ", \"seed\": " << args.seed << ", \"scale\": "
      << FormatDouble(args.scale) << ", \"seconds\": "
      << FormatDouble(args.seconds) << ", \"setups\": " << kSetups
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"revision\": " << JsonString(args.revision)
      << ", \"client\": \"closed loop, 1 thread\"},\n \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": "
      << gate.attempted() << ", \"failed\": " << gate.failed()
      << ", \"error_rate\": "
      << FormatDouble(Ratio(static_cast<double>(gate.failed()),
                            static_cast<double>(gate.attempted())))
      << ",\n \"failures\": [";
  for (size_t i = 0; i < gate.messages().size(); ++i) {
    doc << (i ? ", " : "") << JsonString(gate.messages()[i]);
  }
  doc << "],\n \"metrics\": " << MetricsJson(metrics, tier, true)
      << ",\n \"queries\": [";
  for (size_t i = 0; i < runner.queries().size(); ++i) {
    const Query& q = runner.queries()[i];
    const std::vector<double>& ms = untraced.query_ms[q.name];
    doc << (i ? ",\n  " : "\n  ") << "{\"name\": " << JsonString(q.name)
        << ", \"class\": " << JsonString(ClassName(q.cls))
        << ", \"executions\": " << ms.size()
        << ", \"p50_ms\": " << FormatDouble(Quantile(ms, 0.5))
        << ", \"max_ms\": " << FormatDouble(Quantile(ms, 1.0)) << "}";
  }
  doc << "],\n \"setups\": [";
  for (size_t i = 0; i < setups.size(); ++i) {
    const SetupResult& s = setups[i];
    doc << (i ? ", " : "") << "{\"setup_s\": " << FormatDouble(s.setup_s)
        << ", \"add_ms\": " << FormatDouble(s.load.add_ns / 1e6)
        << ", \"seal_ms\": " << FormatDouble(s.load.seal_ns / 1e6)
        << ", \"overlay_ms\": " << FormatDouble(s.load.overlay_ns / 1e6)
        << ", \"classify_ms\": " << FormatDouble(s.classify_ms) << "}";
  }
  doc << "]";
  if (args.trace) {
    doc << ",\n \"self_ms_by_span\": {";
    bool first = true;
    for (const auto& [span, ns] : self_by_span) {
      doc << (first ? "" : ", ") << JsonString(span) << ": "
          << FormatDouble(static_cast<double>(ns) / 1e6);
      first = false;
    }
    doc << "}";
  }
  doc << "}\n";
  const std::string result_doc = doc.str();
  bool wrote = WriteFile((out_dir / (stem + ".json")).string(), result_doc);
  if (args.trace) {
    std::ofstream trace_out(out_dir / (stem + ".chrome_trace.json"));
    obs::WriteChromeTrace(tree, trace_out);
    wrote = wrote && static_cast<bool>(trace_out);
    std::string export_error;
    wrote = wrote && obs::ExportSnapshotToFile(
                         registry_after,
                         (out_dir / (stem + ".registry.json")).string(),
                         &export_error);
  }
  if (!args.baseline.empty()) {
    wrote = wrote && WriteFile(args.baseline, result_doc);
  }
  if (!wrote) {
    std::fprintf(stderr, "bench_e2e: cannot write results under %s\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(gate.attempted()),
              static_cast<long long>(gate.failed()),
              MetricsJson(metrics, tier, false).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace piet::bench

int main(int argc, char** argv) { return piet::bench::Main(argc, argv); }
