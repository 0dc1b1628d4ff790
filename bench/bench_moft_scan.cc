// E10/E14 — columnar MOFT scan throughput and the chunked block store.
//
// The sealed column store replaces the AoS row map; every query hot path
// iterates zero-copy views over the (oid, t)-sorted columns. PR 8 layers a
// chunked block store underneath: span-aligned immutable blocks with
// zonemaps, optionally codec-compressed in memory or mmap-spilled to disk.
// This bench measures the storage layer in rows/sec:
//  * full-table scan: SampleView vs direct columns vs the row-vector copy
//    the pre-columnar path materialized before iterating;
//  * block axes: blocked raw (blocks without payloads, read in place from
//    the hot columns) vs compressed (per-block codec decode) vs mmap-cold
//    (decode straight from the mapping), with bytes/sample and
//    compression-ratio counters off the store;
//  * closed time window: SamplesBetween's binary-searched per-object
//    ranges vs copy-then-filter, plus zonemap-skipped block iteration;
//  * per-object access: span lookup in the sorted spans index.
//
// A startup identity gate bit-compares every storage tier's scan output
// (raw vs blocked vs compressed vs spilled) before any timing runs.

#include <benchmark/benchmark.h>

#include "obs_dump.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "moving/block_store.h"
#include "moving/moft.h"
#include "temporal/time_point.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace {

using piet::Status;
using piet::moving::BlockIoStats;
using piet::moving::BlockOptions;
using piet::moving::Moft;
using piet::moving::MoftBlockStore;
using piet::moving::MoftColumns;
using piet::moving::ObjectId;
using piet::moving::ObjectSpan;
using piet::moving::Sample;
using piet::moving::SampleWindow;
using piet::moving::TableBlocks;
using piet::moving::ZoneFilter;
using piet::temporal::Interval;
using piet::temporal::TimePoint;
using piet::workload::CityConfig;
using piet::workload::TrajectoryConfig;

constexpr double kDuration = 4 * 3600.0;
constexpr size_t kBlockRows = 32768;

// Objects are staggered across eras (consecutive oid ranks share an
// era), so the fleet's observation window is kEras * kDuration and a
// time-window query admits only some blocks — without the stagger every
// span-aligned block would cover the whole timeline and zonemap
// skipping could never fire. kTimeSpan is the staggered timeline.
constexpr int kEras = 8;
constexpr double kTimeSpan = kEras * kDuration;

/// Storage tiers under test. All hold the same logical rows.
enum class Tier { kRaw, kBlocked, kCompressed, kSpilled };

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kRaw: return "raw";
    case Tier::kBlocked: return "blocked_raw";
    case Tier::kCompressed: return "compressed";
    case Tier::kSpilled: return "mmap_cold";
  }
  return "?";
}

std::shared_ptr<Moft> MakeMoft(int objects, Tier tier) {
  // One generated base per size, re-packed per tier so the environment's
  // PIET_* knobs cannot skew the comparison.
  static std::map<int, std::shared_ptr<Moft>> bases;
  std::shared_ptr<Moft>& base = bases[objects];
  if (base == nullptr) {
    CityConfig config;
    config.seed = 2026;
    config.grid_cols = 10;
    config.grid_rows = 10;
    auto city = piet::workload::GenerateCity(config).ValueOrDie();

    TrajectoryConfig traj;
    traj.seed = 8;
    traj.num_objects = objects;
    traj.duration = kDuration;
    traj.sample_period = 15.0;
    traj.speed = 12.0;
    Moft generated =
        piet::workload::GenerateTrajectories(city, traj).ValueOrDie();
    // Stagger: object rank r lives in era (r * kEras) / objects, shifted
    // by whole multiples of kDuration so per-object sampling is intact.
    base = std::make_shared<Moft>();
    base->SetBlockOptions(BlockOptions{});
    const MoftColumns& gen = generated.Columns();
    for (size_t sp = 0; sp < gen.spans.size(); ++sp) {
      const double offset =
          kDuration *
          static_cast<double>((sp * static_cast<size_t>(kEras)) /
                              gen.spans.size());
      for (size_t i = gen.spans[sp].begin; i < gen.spans[sp].end; ++i) {
        Sample s = gen.at(i);
        (void)base->Add(s.oid, TimePoint(s.t.seconds + offset), s.pos);
      }
    }
    (void)base->Scan();  // Seal outside the timed region.
  }
  if (tier == Tier::kRaw) {
    return base;
  }

  BlockOptions opts;
  opts.block_rows = kBlockRows;
  opts.compress = tier != Tier::kBlocked;
  auto moft = std::make_shared<Moft>();
  moft->SetBlockOptions(opts);
  const MoftColumns& cols = base->Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    Sample s = cols.at(i);
    (void)moft->Add(s.oid, s.t, s.pos);
  }
  (void)moft->Scan();  // Seal: builds the block store.
  if (tier == Tier::kSpilled) {
    Status spilled = moft->SpillToDisk();
    if (!spilled.ok()) {
      std::fprintf(stderr, "spill failed: %s\n",
                   spilled.ToString().c_str());
      std::abort();
    }
  } else if (tier == Tier::kCompressed) {
    moft->ReleaseHot();  // Compressed payloads are the only resident tier.
  }
  return moft;
}

// Representative read: consume every coordinate of every visited row.
double Consume(const Sample& s) { return s.pos.x + s.pos.y + s.t.seconds; }

void SetStoreCounters(benchmark::State& state, const Moft& moft) {
  const MoftBlockStore* store = moft.block_store();
  if (store == nullptr || store->total_rows() == 0) {
    return;
  }
  state.counters["blocks"] = static_cast<double>(store->num_blocks());
  state.counters["bytes_per_sample"] =
      static_cast<double>(store->stored_bytes()) /
      static_cast<double>(store->total_rows());
  state.counters["compression_ratio"] =
      static_cast<double>(store->raw_bytes()) /
      static_cast<double>(store->stored_bytes());
}

// ---------------------------------------------------------------------------
// Identity gate: every tier must produce the bit-identical row sequence.

struct Rows {
  std::vector<ObjectId> oid;
  std::vector<double> t, x, y;

  bool BitIdentical(const Rows& o) const {
    auto same = [](const auto& a, const auto& b) {
      return a.size() == b.size() &&
             (a.empty() || std::memcmp(a.data(), b.data(),
                                       a.size() * sizeof(a[0])) == 0);
    };
    return same(oid, o.oid) && same(t, o.t) && same(x, o.x) && same(y, o.y);
  }
};

/// Full-table rows via the block iterator (does not materialize a hot
/// tier, so cold fixtures stay cold for the timed runs).
Rows CollectBlockScan(const Moft& moft) {
  Rows rows;
  const TableBlocks blocks = moft.Blocks();
  BlockIoStats io;
  const ZoneFilter none;
  (void)blocks.ForEachRowRange(
      0, blocks.total_rows(), none, &io,
      [&](const MoftColumns& data, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          rows.oid.push_back(data.oid[i]);
          rows.t.push_back(data.t[i]);
          rows.x.push_back(data.x[i]);
          rows.y.push_back(data.y[i]);
        }
        return Status::OK();
      });
  return rows;
}

Rows CollectWindow(const Moft& moft, TimePoint t0, TimePoint t1) {
  Rows rows;
  for (const Sample& s : moft.SamplesBetween(t0, t1)) {
    rows.oid.push_back(s.oid);
    rows.t.push_back(s.t.seconds);
    rows.x.push_back(s.pos.x);
    rows.y.push_back(s.pos.y);
  }
  return rows;
}

bool VerifyIdentity(int objects) {
  std::printf("=== E14: storage-tier scan identity (%d objects) ===\n",
              objects);
  auto raw = MakeMoft(objects, Tier::kRaw);
  const Rows want = CollectBlockScan(*raw);
  const TimePoint t0(kTimeSpan * 0.25);
  const TimePoint t1(kTimeSpan * 0.5);
  const Rows want_window = CollectWindow(*raw, t0, t1);
  bool ok = true;
  for (Tier tier : {Tier::kBlocked, Tier::kCompressed, Tier::kSpilled}) {
    auto moft = MakeMoft(objects, tier);
    const bool scan_same = CollectBlockScan(*moft).BitIdentical(want);
    const bool window_same =
        CollectWindow(*moft, t0, t1).BitIdentical(want_window);
    std::printf("%-12s scan %s, window %s\n", TierName(tier),
                scan_same ? "identical" : "MISMATCH",
                window_same ? "identical" : "MISMATCH");
    ok = ok && scan_same && window_same;
  }
  std::printf("\n");
  return ok;
}

// ---------------------------------------------------------------------------
// Whole-table scan axes.

void BM_ScanView(benchmark::State& state) {
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  for (auto _ : state) {
    double acc = 0.0;
    for (const Sample& s : moft->Scan()) {
      acc += Consume(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * moft->num_samples());
  state.counters["rows"] = static_cast<double>(moft->num_samples());
}

void BM_ScanColumns(benchmark::State& state) {
  // Direct column iteration — the layout's best case (what the engine's
  // window fast path and classification pass do).
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  const MoftColumns& cols = moft->Columns();
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < cols.size(); ++i) {
      acc += cols.x[i] + cols.y[i] + cols.t[i];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * cols.size());
  state.counters["rows"] = static_cast<double>(cols.size());
}

void BM_ScanRowCopy(benchmark::State& state) {
  // The pre-columnar pattern: materialize a row vector, then iterate.
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  const MoftColumns& cols = moft->Columns();
  for (auto _ : state) {
    std::vector<Sample> all;
    all.reserve(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      all.push_back(cols.at(i));
    }
    double acc = 0.0;
    for (const Sample& s : all) {
      acc += Consume(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * cols.size());
  state.counters["rows"] = static_cast<double>(cols.size());
}

void BM_ScanBlocks(benchmark::State& state, Tier tier) {
  // Block-iterating scan through the TableBlocks facade: the hot columns
  // in place for blocked raw, a per-block codec decode for the compressed
  // tier, decode straight out of the file mapping for the spilled tier.
  auto moft = MakeMoft(static_cast<int>(state.range(0)), tier);
  const TableBlocks blocks = moft->Blocks();
  const ZoneFilter none;
  BlockIoStats io;
  for (auto _ : state) {
    double acc = 0.0;
    Status status = blocks.ForEachRowRange(
        0, blocks.total_rows(), none, &io,
        [&](const MoftColumns& data, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            acc += data.x[i] + data.y[i] + data.t[i];
          }
          return Status::OK();
        });
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * blocks.total_rows());
  state.counters["rows"] = static_cast<double>(blocks.total_rows());
  state.counters["decodes_per_scan"] =
      state.iterations() > 0
          ? static_cast<double>(io.blocks_pinned) /
                static_cast<double>(state.iterations())
          : 0.0;
  SetStoreCounters(state, *moft);
}

// ---------------------------------------------------------------------------
// Closed time-window axes.

void BM_WindowView(benchmark::State& state) {
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  const TimePoint t0(kTimeSpan * 0.25);
  const TimePoint t1(kTimeSpan * 0.5);
  size_t rows = 0;
  for (auto _ : state) {
    double acc = 0.0;
    SampleWindow window = moft->SamplesBetween(t0, t1);
    rows = window.size();
    for (const Sample& s : window) {
      acc += Consume(s);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_WindowCopyFilter(benchmark::State& state) {
  // The pre-columnar pattern: copy every row, filter by the predicate.
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  const MoftColumns& cols = moft->Columns();
  const TimePoint t0(kTimeSpan * 0.25);
  const TimePoint t1(kTimeSpan * 0.5);
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<Sample> all;
    all.reserve(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      all.push_back(cols.at(i));
    }
    double acc = 0.0;
    rows = 0;
    for (const Sample& s : all) {
      if (s.t < t0 || t1 < s.t) {
        continue;
      }
      acc += Consume(s);
      ++rows;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_WindowZonemap(benchmark::State& state) {
  // Block iteration with a time ZoneFilter: blocks whose [t_min, t_max]
  // cannot intersect the window are skipped without a decode. Trajectory
  // time ranges overlap heavily across objects, so the win here is the
  // per-block skip accounting, not a large row reduction.
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kCompressed);
  const TableBlocks blocks = moft->Blocks();
  const TimePoint t0(kTimeSpan * 0.25);
  const TimePoint t1(kTimeSpan * 0.5);
  ZoneFilter filter;
  filter.window = Interval(t0, t1);
  BlockIoStats io;
  size_t rows = 0;
  for (auto _ : state) {
    double acc = 0.0;
    rows = 0;
    Status status = blocks.ForEachRowRange(
        0, blocks.total_rows(), filter, &io,
        [&](const MoftColumns& data, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            if (data.t[i] < t0.seconds || t1.seconds < data.t[i]) {
              continue;
            }
            acc += data.x[i] + data.y[i] + data.t[i];
            ++rows;
          }
          return Status::OK();
        });
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["blocks_skipped_per_scan"] =
      state.iterations() > 0
          ? static_cast<double>(io.blocks_skipped) /
                static_cast<double>(state.iterations())
          : 0.0;
  SetStoreCounters(state, *moft);
}

// ---------------------------------------------------------------------------
// Per-object access.

void BM_ObjectSpans(benchmark::State& state) {
  // Per-object fan-out: every trajectory query's outer loop.
  auto moft = MakeMoft(static_cast<int>(state.range(0)), Tier::kRaw);
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < moft->num_objects(); ++i) {
      ObjectSpan span = moft->SpanAt(i);
      for (const Sample& s : span) {
        acc += Consume(s);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * moft->num_samples());
  state.counters["rows"] = static_cast<double>(moft->num_samples());
}

}  // namespace

int main(int argc, char** argv) {
  if (!VerifyIdentity(200)) {
    std::fprintf(stderr, "storage tiers diverge; aborting\n");
    return 1;
  }
  for (int objects : {50, 200, 800}) {
    benchmark::RegisterBenchmark("BM_ScanView", BM_ScanView)->Arg(objects);
    benchmark::RegisterBenchmark("BM_ScanColumns", BM_ScanColumns)
        ->Arg(objects);
    benchmark::RegisterBenchmark("BM_ScanRowCopy", BM_ScanRowCopy)
        ->Arg(objects);
    for (Tier tier :
         {Tier::kBlocked, Tier::kCompressed, Tier::kSpilled}) {
      benchmark::RegisterBenchmark(
          (std::string("BM_ScanBlocks/") + TierName(tier)).c_str(),
          BM_ScanBlocks, tier)
          ->Arg(objects);
    }
    benchmark::RegisterBenchmark("BM_WindowView", BM_WindowView)
        ->Arg(objects);
    benchmark::RegisterBenchmark("BM_WindowCopyFilter", BM_WindowCopyFilter)
        ->Arg(objects);
    benchmark::RegisterBenchmark("BM_WindowZonemap", BM_WindowZonemap)
        ->Arg(objects);
    benchmark::RegisterBenchmark("BM_ObjectSpans", BM_ObjectSpans)
        ->Arg(objects);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  piet::benchutil::DumpMetricsSnapshotIfRequested();
  benchmark::Shutdown();
  return 0;
}
