// Bit-identity contract of the chunked block store: every query type must
// produce byte-identical relations whether the MOFT is stored as one hot
// block, as many hot blocks without payloads, as codec-compressed blocks
// (hot tier released), or mmap-spilled to disk — and for each
// tier, whether the engine fans out over 1 or 4 threads. Chunk plans and
// block skip decisions depend only on the input size, so the per-tier
// stats must be thread-count independent too.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/queries.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using moving::BlockOptions;
using moving::Moft;
using moving::MoftColumns;
using moving::Sample;
using olap::FactTable;
using workload::City;
using workload::CityConfig;
using workload::TrajectoryConfig;

enum class Tier { kRaw, kHotBlocks, kCompressed, kSpilled };

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kRaw: return "raw";
    case Tier::kHotBlocks: return "hot_blocks";
    case Tier::kCompressed: return "compressed";
    case Tier::kSpilled: return "spilled";
  }
  return "?";
}

/// Re-packs `base` into a fresh MOFT with the tier's block options. Every
/// tier (including raw) is re-packed, so environment knobs
/// (PIET_BLOCK_ROWS / PIET_COMPRESS in the sanitizer CI jobs) cannot skew
/// the raw baseline.
Moft Repack(const Moft& base, Tier tier) {
  BlockOptions opts;
  if (tier == Tier::kHotBlocks) {
    opts.block_rows = 64;  // Payload-less blocks: ranges of the hot columns.
  } else if (tier != Tier::kRaw) {
    opts.block_rows = 256;  // Small blocks: many seams inside the table.
    opts.compress = true;
    opts.spill_dir = ::testing::TempDir();
  }
  Moft out;
  out.SetBlockOptions(opts);
  const MoftColumns& cols = base.Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    Sample s = cols.at(i);
    EXPECT_TRUE(out.Add(s.oid, s.t, s.pos).ok());
  }
  (void)out.Columns();  // Seal with the tier's options.
  if (tier == Tier::kSpilled) {
    EXPECT_TRUE(out.SpillToDisk().ok());
  } else if (tier == Tier::kCompressed) {
    out.ReleaseHot();
  }
  return out;
}

std::shared_ptr<City> MakeCity(int threads, Tier tier) {
  CityConfig config;
  config.seed = 20260810;
  config.grid_cols = 6;
  config.grid_rows = 6;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  city->db->set_num_threads(threads);

  TrajectoryConfig traj;
  traj.seed = 77;
  traj.num_objects = 36;
  traj.duration = 3600.0;
  traj.sample_period = 30.0;
  traj.speed = 12.0;
  Moft base = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  EXPECT_TRUE(city->db->AddMoft("cars", Repack(base, tier)).ok());
  EXPECT_TRUE(city->db->BuildOverlay({city->neighborhoods_layer}).ok());
  return city;
}

void ExpectSameTable(const Result<FactTable>& a, const Result<FactTable>& b,
                     const std::string& what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
  const FactTable& ta = a.ValueOrDie();
  const FactTable& tb = b.ValueOrDie();
  ASSERT_EQ(ta.num_rows(), tb.num_rows()) << what;
  EXPECT_EQ(ta.rows(), tb.rows()) << what;
}

/// All 8 query types of the engine against one city, with windows chosen
/// to land exactly on sample timestamps (block seams are span-aligned, so
/// seam rows are sample rows).
void CompareAllQueries(const City& ref_city, QueryEngine& ref,
                       const City& city, QueryEngine& engine,
                       const std::string& tag) {
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  TimePredicate any;
  TimePredicate window =
      TimePredicate().Window(temporal::Interval(temporal::TimePoint(900.0),
                                                temporal::TimePoint(2700.0)));
  TimePredicate morning = TimePredicate().HourRange(0, 0);

  // Type 3: samples by time (window fast path + rollup path).
  ExpectSameTable(ref.SamplesMatchingTime("cars", window),
                  engine.SamplesMatchingTime("cars", window),
                  tag + " SamplesMatchingTime/window");
  ExpectSameTable(ref.SamplesMatchingTime("cars", morning),
                  engine.SamplesMatchingTime("cars", morning),
                  tag + " SamplesMatchingTime/rollup");

  // Type 4: sample/region under every strategy, twice (cache round).
  for (Strategy s :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    for (int round = 0; round < 2; ++round) {
      ExpectSameTable(
          ref.SampleRegion("cars", ref_city.neighborhoods_layer, low,
                           window, s),
          engine.SampleRegion("cars", city.neighborhoods_layer, low, window,
                              s),
          tag + " SampleRegion/" +
              std::string(core::StrategyToString(s)));
    }
  }
  EXPECT_EQ(ref.stats().samples_scanned, engine.stats().samples_scanned)
      << tag;
  EXPECT_EQ(ref.stats().point_tests, engine.stats().point_tests) << tag;

  ExpectSameTable(
      ref.SamplesOnPolylines("cars", ref_city.streets_layer, 2.0, window),
      engine.SamplesOnPolylines("cars", city.streets_layer, 2.0, window),
      tag + " SamplesOnPolylines");
  ExpectSameTable(
      ref.SamplesNearNodes("cars", ref_city.schools_layer, 25.0, any),
      engine.SamplesNearNodes("cars", city.schools_layer, 25.0, any),
      tag + " SamplesNearNodes");

  // Type 6: interpolated snapshot.
  temporal::TimePoint mid(1800.0);
  ExpectSameTable(
      ref.SnapshotInRegion("cars", ref_city.neighborhoods_layer, low, mid),
      engine.SnapshotInRegion("cars", city.neighborhoods_layer, low, mid),
      tag + " SnapshotInRegion");

  // Type 7: interpolated intervals, region + node proximity.
  ExpectSameTable(
      ref.TrajectoryRegion("cars", ref_city.neighborhoods_layer, low,
                           window),
      engine.TrajectoryRegion("cars", city.neighborhoods_layer, low,
                              window),
      tag + " TrajectoryRegion");
  ExpectSameTable(
      ref.TrajectoryNearNodes("cars", ref_city.stops_layer, 30.0, any),
      engine.TrajectoryNearNodes("cars", city.stops_layer, 30.0, any),
      tag + " TrajectoryNearNodes");

  // Type 8: per-object trajectory aggregates.
  ExpectSameTable(
      ref.TrajectoryAggregates("cars", ref_city.neighborhoods_layer, low),
      engine.TrajectoryAggregates("cars", city.neighborhoods_layer, low),
      tag + " TrajectoryAggregates");

  // Object-set queries.
  for (bool traj : {false, true}) {
    auto a = ref.ObjectsAlwaysWithin("cars", ref_city.neighborhoods_layer,
                                     low, window, traj);
    auto b = engine.ObjectsAlwaysWithin("cars", city.neighborhoods_layer,
                                        low, window, traj);
    ASSERT_TRUE(a.ok() && b.ok()) << tag;
    EXPECT_EQ(a.ValueOrDie(), b.ValueOrDie())
        << tag << " ObjectsAlwaysWithin traj=" << traj;
  }
  auto pa = ref.ObjectsPossiblyWithin("cars", ref_city.neighborhoods_layer,
                                      low, 50.0);
  auto pb = engine.ObjectsPossiblyWithin("cars", city.neighborhoods_layer,
                                         low, 50.0);
  ASSERT_TRUE(pa.ok() && pb.ok()) << tag;
  EXPECT_EQ(pa.ValueOrDie(), pb.ValueOrDie()) << tag;
}

TEST(BlockIdentityTest, AllQueryTypesMatchRawAcrossTiersAndThreads) {
  auto ref_city = MakeCity(1, Tier::kRaw);
  QueryEngine ref(ref_city->db.get());
  ref.set_num_threads(1);

  for (Tier tier :
       {Tier::kHotBlocks, Tier::kCompressed, Tier::kSpilled}) {
    for (int threads : {1, 4}) {
      auto city = MakeCity(threads, tier);
      QueryEngine engine(city->db.get());
      engine.set_num_threads(threads);
      const std::string tag =
          std::string(TierName(tier)) + "/t" + std::to_string(threads);
      CompareAllQueries(*ref_city, ref, *city, engine, tag);
      const moving::Moft* moft = city->db->GetMoft("cars").ValueOrDie();
      const moving::MoftBlockStore* store = moft->block_store();
      ASSERT_NE(store, nullptr) << tag;
      EXPECT_GT(store->num_blocks(), 1u) << tag;
      // Hot blocks are read in place; payload blocks pin and decode.
      ASSERT_TRUE(engine
                      .SampleRegion("cars", city->neighborhoods_layer,
                                    GeometryPredicate::AttributeLess(
                                        "income", 1500.0),
                                    TimePredicate(), Strategy::kNaive)
                      .ok())
          << tag;
      const moving::BlockIoStats& io = engine.stats().blocks;
      EXPECT_EQ(store->compressed(), tier != Tier::kHotBlocks) << tag;
      if (tier == Tier::kHotBlocks) {
        EXPECT_EQ(io.blocks_pinned, 0u) << tag << ": a hot read pinned";
      } else {
        EXPECT_GT(io.blocks_pinned, 0u) << tag;
      }
    }
  }
}

TEST(BlockIdentityTest, BlockStatsAreThreadCountIndependent) {
  // Zonemap skip decisions are per-block meta tests and the chunk plan
  // depends only on n — the I/O stats of a windowed scan must not change
  // with the thread count.
  GeometryPredicate low = GeometryPredicate::AttributeLess("income", 1500.0);
  TimePredicate window =
      TimePredicate().Window(temporal::Interval(temporal::TimePoint(900.0),
                                                temporal::TimePoint(1800.0)));
  std::vector<std::pair<size_t, size_t>> per_thread;
  for (int threads : {1, 4}) {
    auto city = MakeCity(threads, Tier::kCompressed);
    QueryEngine engine(city->db.get());
    engine.set_num_threads(threads);
    ASSERT_TRUE(engine
                    .SampleRegion("cars", city->neighborhoods_layer, low,
                                  window, Strategy::kNaive)
                    .ok());
    per_thread.emplace_back(engine.stats().blocks.blocks_pinned,
                            engine.stats().blocks.blocks_skipped);
  }
  EXPECT_EQ(per_thread[0], per_thread[1]);
}

TEST(BlockIdentityTest, PietqlResultsMatchRawAcrossTiers) {
  auto ref_city = MakeCity(1, Tier::kRaw);
  core::pietql::Evaluator ref(ref_city->db.get());
  const std::string nb = ref_city->neighborhoods_layer;
  const std::string query =
      "SELECT layer." + nb + "; FROM SimCity; "
      "WHERE ATTR(layer." + nb + ", income) < 1500 "
      "| SELECT COUNT(DISTINCT OID) FROM cars WHERE INSIDE RESULT "
      "AND T BETWEEN 900 AND 2700 GROUP BY TIME.hourBucket";
  auto want = ref.EvaluateString(query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (Tier tier : {Tier::kCompressed, Tier::kSpilled}) {
    auto city = MakeCity(4, tier);
    core::pietql::Evaluator evaluator(city->db.get());
    auto got = evaluator.EvaluateString(query);
    ASSERT_TRUE(got.ok()) << TierName(tier) << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.ValueOrDie().ToString(), want.ValueOrDie().ToString())
        << TierName(tier);
  }
}

}  // namespace
}  // namespace piet
