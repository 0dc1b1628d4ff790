// The chunked block-store MOFT core (PR 8): the lossless block codec, the
// span-aligned MoftBlockStore (zonemaps, pins, scratch reuse), the
// TableBlocks facade, the on-disk Save/Open round trip (fuzzed), and the
// Moft-level storage operations (ReleaseHot, SpillToDisk, collinearity
// pruning) plus SamplesBetween edge cases at block seams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "moving/block_codec.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving_test_util.h"
#include "temporal/interval.h"
#include "temporal/time_point.h"

namespace piet::moving {
namespace {

using temporal::Interval;
using temporal::TimePoint;

template <typename T>
bool BitIdentical(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameColumns(const MoftColumns& a, const MoftColumns& b) {
  EXPECT_TRUE(BitIdentical(a.oid, b.oid));
  EXPECT_TRUE(BitIdentical(a.t, b.t));
  EXPECT_TRUE(BitIdentical(a.x, b.x));
  EXPECT_TRUE(BitIdentical(a.y, b.y));
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t s = 0; s < a.spans.size(); ++s) {
    EXPECT_EQ(a.spans[s].oid, b.spans[s].oid) << "span " << s;
    EXPECT_EQ(a.spans[s].begin, b.spans[s].begin) << "span " << s;
    EXPECT_EQ(a.spans[s].end, b.spans[s].end) << "span " << s;
  }
}

/// `num_objects` objects, `per_object` samples each: object k starts at
/// t = 100k and samples every `dt`, moving on a straight leg (predicts
/// exactly) with an occasional kink.
Moft MakeMoft(int num_objects, int per_object, BlockOptions opts,
              double dt = 10.0) {
  Moft moft;
  moft.SetBlockOptions(opts);
  for (int k = 0; k < num_objects; ++k) {
    for (int j = 0; j < per_object; ++j) {
      const double t = 100.0 * k + dt * j;
      const double kink = (j % 7 == 3) ? 0.25 : 0.0;
      EXPECT_TRUE(moft.Add(10 * k + 1, TimePoint(t),
                           geometry::Point(k + 0.5 * j + kink, 2.0 * k - j))
                      .ok());
    }
  }
  (void)moft.Columns();  // Seal (and build the store) up front.
  return moft;
}

/// Pseudo-random MOFT for the fuzz round trips: irregular timestamps,
/// coordinates across magnitudes and signs (never NaN — (oid, t) ordering
/// must stay strict).
Moft MakeRandomMoft(uint32_t seed, BlockOptions opts) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> objects(1, 9);
  std::uniform_int_distribution<int> samples(1, 40);
  std::uniform_real_distribution<double> jitter(0.0, 0.9);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  std::uniform_int_distribution<int> scale_pow(-6, 6);
  Moft moft;
  moft.SetBlockOptions(opts);
  const int n = objects(rng);
  for (int k = 0; k < n; ++k) {
    const ObjectId oid = static_cast<ObjectId>(rng()) % 100000 - 50000;
    const int m = samples(rng);
    const double scale = std::pow(10.0, scale_pow(rng));
    for (int j = 0; j < m; ++j) {
      (void)moft.Add(oid, TimePoint(j * 5.0 + jitter(rng)),
                     geometry::Point(coord(rng) * scale, coord(rng) * scale));
    }
  }
  return moft;
}

struct Row {
  ObjectId oid;
  double t, x, y;
  friend bool operator==(const Row& a, const Row& b) {
    return a.oid == b.oid && a.t == b.t && a.x == b.x && a.y == b.y;
  }
};

std::vector<Row> CollectBlockScan(const Moft& moft,
                                  const ZoneFilter& filter = {},
                                  BlockIoStats* io_out = nullptr) {
  std::vector<Row> rows;
  const TableBlocks blocks = moft.Blocks();
  BlockIoStats io;
  Status status = blocks.ForEachRowRange(
      0, blocks.total_rows(), filter, &io,
      [&](const MoftColumns& data, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          rows.push_back(Row{data.oid[i], data.t[i], data.x[i], data.y[i]});
        }
        return Status::OK();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  if (io_out != nullptr) {
    *io_out = io;
  }
  return rows;
}

std::vector<Row> CollectWindow(const Moft& moft, double t0, double t1) {
  std::vector<Row> rows;
  for (const Sample& s : moft.SamplesBetween(TimePoint(t0), TimePoint(t1))) {
    rows.push_back(Row{s.oid, s.t.seconds, s.pos.x, s.pos.y});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Block codec.

TEST(BlockCodecTest, RoundTripsSimpleBlock) {
  Moft moft = MakeMoft(3, 20, BlockOptions{});
  const MoftColumns& cols = moft.Columns();
  std::string payload;
  blockcodec::EncodeBlock(cols, 0, cols.spans.size(), &payload);
  EXPECT_EQ(blockcodec::PayloadRows(payload), cols.size());

  MoftColumns decoded;
  ASSERT_TRUE(blockcodec::DecodeBlock(payload, &decoded).ok());
  ExpectSameColumns(decoded, cols);
}

TEST(BlockCodecTest, RoundTripsPartialSpanRange) {
  Moft moft = MakeMoft(5, 12, BlockOptions{});
  const MoftColumns& cols = moft.Columns();
  std::string payload;
  blockcodec::EncodeBlock(cols, 1, 4, &payload);  // Objects 1..3 only.

  MoftColumns decoded;
  ASSERT_TRUE(blockcodec::DecodeBlock(payload, &decoded).ok());
  const size_t base = cols.spans[1].begin;
  ASSERT_EQ(decoded.size(), cols.spans[3].end - base);
  ASSERT_EQ(decoded.spans.size(), 3u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded.oid[i], cols.oid[base + i]);
    EXPECT_EQ(decoded.t[i], cols.t[base + i]);
    EXPECT_EQ(decoded.x[i], cols.x[base + i]);
    EXPECT_EQ(decoded.y[i], cols.y[base + i]);
  }
  EXPECT_EQ(decoded.spans[0].begin, 0u);  // Re-based at 0.
}

TEST(BlockCodecTest, RegularTrajectoriesCompressWell) {
  // Fixed-period timestamps and straight legs predict exactly: the codec
  // must beat the 32 raw bytes/row by at least the E14 target (>= 3x).
  Moft moft = MakeMoft(8, 200, BlockOptions{});
  const MoftColumns& cols = moft.Columns();
  std::string payload;
  blockcodec::EncodeBlock(cols, 0, cols.spans.size(), &payload);
  EXPECT_LT(payload.size() * 3, cols.size() * 4 * sizeof(double))
      << payload.size() << " bytes for " << cols.size() << " rows";

  MoftColumns decoded;
  ASSERT_TRUE(blockcodec::DecodeBlock(payload, &decoded).ok());
  ExpectSameColumns(decoded, cols);
}

TEST(BlockCodecTest, RejectsMalformedPayloadsWithoutCrashing) {
  Moft moft = MakeMoft(2, 10, BlockOptions{});
  const MoftColumns& cols = moft.Columns();
  std::string payload;
  blockcodec::EncodeBlock(cols, 0, cols.spans.size(), &payload);

  MoftColumns out;
  EXPECT_FALSE(blockcodec::DecodeBlock("", &out).ok());
  EXPECT_FALSE(blockcodec::DecodeBlock("abc", &out).ok());
  for (size_t cut : {size_t{5}, payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(
        blockcodec::DecodeBlock(std::string_view(payload).substr(0, cut),
                                &out)
            .ok())
        << "truncated at " << cut;
  }
}

TEST(BlockCodecTest, FuzzRoundTripsRandomBlocks) {
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    Moft moft = MakeRandomMoft(seed, BlockOptions{});
    const MoftColumns& cols = moft.Columns();
    std::string payload;
    blockcodec::EncodeBlock(cols, 0, cols.spans.size(), &payload);
    ASSERT_EQ(blockcodec::PayloadRows(payload), cols.size()) << seed;
    MoftColumns decoded;
    ASSERT_TRUE(blockcodec::DecodeBlock(payload, &decoded).ok()) << seed;
    ExpectSameColumns(decoded, cols);
  }
}

// ---------------------------------------------------------------------------
// MoftBlockStore.

BlockOptions Blocked(size_t rows, bool compress = false) {
  BlockOptions opts;
  opts.block_rows = rows;
  opts.compress = compress;
  return opts;
}

TEST(BlockStoreTest, PartitionsRowsAndSpansAtObjectBoundaries) {
  Moft moft = MakeMoft(7, 10, Blocked(25));
  const MoftBlockStore* store = moft.block_store();
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->num_blocks(), 1u);
  EXPECT_EQ(store->total_rows(), 70u);
  EXPECT_EQ(store->total_spans(), 7u);

  const MoftColumns& cols = moft.Columns();
  size_t row = 0, span = 0;
  for (size_t b = 0; b < store->num_blocks(); ++b) {
    const BlockMeta& m = store->meta(b);
    EXPECT_EQ(m.row_begin, row);
    EXPECT_EQ(m.span_begin, span);
    EXPECT_GT(m.row_end, m.row_begin);
    // Span-aligned: the block boundary is an object boundary.
    EXPECT_EQ(cols.spans[m.span_begin].begin, m.row_begin);
    EXPECT_EQ(cols.spans[m.span_end - 1].end, m.row_end);
    row = m.row_end;
    span = m.span_end;
  }
  EXPECT_EQ(row, store->total_rows());
  EXPECT_EQ(span, store->total_spans());

  for (size_t r = 0; r < store->total_rows(); ++r) {
    const BlockMeta& m = store->meta(store->BlockOfRow(r));
    EXPECT_TRUE(m.row_begin <= r && r < m.row_end) << "row " << r;
  }
  for (size_t s = 0; s < store->total_spans(); ++s) {
    const BlockMeta& m = store->meta(store->BlockOfSpan(s));
    EXPECT_TRUE(m.span_begin <= s && s < m.span_end) << "span " << s;
  }
}

TEST(BlockStoreTest, ZonemapsBoundEveryBlock) {
  Moft moft = MakeMoft(6, 15, Blocked(20, /*compress=*/true));
  const MoftBlockStore* store = moft.block_store();
  ASSERT_NE(store, nullptr);
  const MoftColumns& cols = moft.Columns();
  for (size_t b = 0; b < store->num_blocks(); ++b) {
    const BlockMeta& m = store->meta(b);
    ObjectId oid_min = cols.oid[m.row_begin], oid_max = oid_min;
    double t_min = cols.t[m.row_begin], t_max = t_min;
    double x_min = cols.x[m.row_begin], x_max = x_min;
    double y_min = cols.y[m.row_begin], y_max = y_min;
    for (size_t i = m.row_begin; i < m.row_end; ++i) {
      oid_min = std::min(oid_min, cols.oid[i]);
      oid_max = std::max(oid_max, cols.oid[i]);
      t_min = std::min(t_min, cols.t[i]);
      t_max = std::max(t_max, cols.t[i]);
      x_min = std::min(x_min, cols.x[i]);
      x_max = std::max(x_max, cols.x[i]);
      y_min = std::min(y_min, cols.y[i]);
      y_max = std::max(y_max, cols.y[i]);
    }
    EXPECT_EQ(m.oid_min, oid_min);
    EXPECT_EQ(m.oid_max, oid_max);
    EXPECT_EQ(m.t_min, t_min);
    EXPECT_EQ(m.t_max, t_max);
    EXPECT_EQ(m.x_min, x_min);
    EXPECT_EQ(m.x_max, x_max);
    EXPECT_EQ(m.y_min, y_min);
    EXPECT_EQ(m.y_max, y_max);
  }
}

TEST(BlockStoreTest, HotBlocksHoldNoRowsCompressedPinsDecode) {
  // Without `compress` the blocks are ranges of the hot columns: the
  // store holds no row bytes of its own and has nothing to pin.
  Moft hot = MakeMoft(4, 10, Blocked(15));
  const MoftBlockStore* hot_store = hot.block_store();
  ASSERT_NE(hot_store, nullptr);
  EXPECT_GT(hot_store->num_blocks(), 1u);
  EXPECT_FALSE(hot_store->compressed());
  EXPECT_EQ(hot_store->stored_bytes(), hot_store->raw_bytes());
  EXPECT_FALSE(hot_store->PinBlock(0).ok());
  EXPECT_EQ(hot_store->live_pins(), 0);
  const Moft::StorageFootprint fp = hot.Footprint();
  EXPECT_EQ(fp.resident_bytes,
            40 * 4 * sizeof(double) + 4 * sizeof(MoftColumns::Span));
  EXPECT_EQ(fp.compressed_bytes, 0u);

  Moft packed = MakeMoft(4, 10, Blocked(15, /*compress=*/true));
  const MoftBlockStore* packed_store = packed.block_store();
  ASSERT_NE(packed_store, nullptr);
  EXPECT_TRUE(packed_store->compressed());
  EXPECT_LT(packed_store->stored_bytes(), packed_store->raw_bytes());
  for (size_t b = 0; b < packed_store->num_blocks(); ++b) {
    MoftBlockStore::Pin p = packed_store->PinBlock(b).ValueOrDie();
    const BlockMeta& m = packed_store->meta(b);
    ASSERT_EQ(p.data().size(), m.rows());
    const MoftColumns& cols = hot.Columns();
    for (size_t i = 0; i < m.rows(); ++i) {
      EXPECT_EQ(p.data().t[i], cols.t[m.row_begin + i]);
    }
  }
}

TEST(BlockStoreTest, MaterializeRebuildsTheWholeTable) {
  Moft reference = MakeMoft(6, 11, BlockOptions{});
  Moft packed = MakeMoft(6, 11, Blocked(13, /*compress=*/true));
  const MoftBlockStore* store = packed.block_store();
  ASSERT_NE(store, nullptr);
  MoftColumns out;
  store->MaterializeInto(&out);
  ExpectSameColumns(out, reference.Columns());
}

TEST(BlockStoreTest, ZoneFilterSkipsNonMatchingBlocksOnly) {
  Moft packed = MakeMoft(8, 10, Blocked(10, /*compress=*/true));
  Moft reference = MakeMoft(8, 10, BlockOptions{});

  // Objects start 100 apart, so a tight window rules out most blocks.
  ZoneFilter filter;
  filter.window = Interval(TimePoint(250.0), TimePoint(320.0));
  BlockIoStats io;
  std::vector<Row> got = CollectBlockScan(packed, filter, &io);
  EXPECT_GT(io.blocks_skipped, 0u);
  EXPECT_GT(io.blocks_pinned, 0u);

  // Skipped blocks may only hide rows outside the window: filtering the
  // visited rows matches filtering the full table.
  auto window_only = [&](std::vector<Row> rows) {
    std::vector<Row> out;
    for (const Row& r : rows) {
      if (r.t >= 250.0 && r.t <= 320.0) {
        out.push_back(r);
      }
    }
    return out;
  };
  EXPECT_EQ(window_only(got), window_only(CollectBlockScan(reference)));

  ZoneFilter bbox_filter;
  geometry::BoundingBox box;
  box.ExtendWith(geometry::Point(0.0, -3.0));
  box.ExtendWith(geometry::Point(3.0, 3.0));
  bbox_filter.bbox = box;
  BlockIoStats bbox_io;
  (void)CollectBlockScan(packed, bbox_filter, &bbox_io);
  EXPECT_GT(bbox_io.blocks_skipped, 0u);
}

TEST(BlockStoreTest, SaveOpenRoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "/block_store_rt.pietblk";
  Moft moft = MakeMoft(9, 14, Blocked(30, /*compress=*/true));
  const MoftBlockStore* store = moft.block_store();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->Save(path).ok());

  auto opened = MoftBlockStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MoftBlockStore& mapped = opened.ValueOrDie();
  EXPECT_TRUE(mapped.mapped());
  ASSERT_EQ(mapped.num_blocks(), store->num_blocks());
  EXPECT_EQ(mapped.total_rows(), store->total_rows());
  EXPECT_EQ(mapped.total_spans(), store->total_spans());
  for (size_t b = 0; b < mapped.num_blocks(); ++b) {
    EXPECT_EQ(mapped.meta(b).row_begin, store->meta(b).row_begin);
    EXPECT_EQ(mapped.meta(b).row_end, store->meta(b).row_end);
    EXPECT_EQ(mapped.meta(b).t_min, store->meta(b).t_min);
    EXPECT_EQ(mapped.meta(b).t_max, store->meta(b).t_max);
  }
  MoftColumns from_disk;
  mapped.MaterializeInto(&from_disk);
  ExpectSameColumns(from_disk, moft.Columns());
}

TEST(BlockStoreTest, OpenRejectsGarbageAndMissingFiles) {
  EXPECT_FALSE(MoftBlockStore::Open("/nonexistent/dir/f.pietblk").ok());
  const std::string path = ::testing::TempDir() + "/block_store_bad.pietblk";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("not a block file at all, sorry", f);
    fclose(f);
  }
  EXPECT_FALSE(MoftBlockStore::Open(path).ok());
}

TEST(BlockStoreTest, OpenRejectsCraftedHeadersWithParseError) {
  // File layout: a 40-byte header (magic, version, compressed, total_rows,
  // total_spans, num_blocks), then one 112-byte directory entry per block:
  // payload_offset, payload_size, row_begin, row_end, span_begin,
  // span_end, then the zonemap.
  constexpr size_t kNumBlocks = 32;
  constexpr size_t kDir = 40;
  constexpr size_t kEntry = 112;
  struct Mutation {
    const char* what;
    size_t offset;
    uint64_t value;
  };
  const Mutation mutations[] = {
      {"num_blocks wraps the directory size", kNumBlocks, uint64_t{1} << 61},
      {"payload offset wraps the range check", kDir, ~uint64_t{0} - 10},
      {"payload size wraps the range check", kDir + 8, ~uint64_t{0}},
      {"block 1 rows overlap block 0", kDir + kEntry + 16, 0},
      {"block 1 spans overlap block 0", kDir + kEntry + 32, 0},
      {"block 0 rows end before they begin", kDir + 24, 0},
      {"header rows exceed the directory", 16, 1u << 20},
  };
  Moft moft = MakeMoft(9, 14, Blocked(30, /*compress=*/true));
  ASSERT_GE(moft.block_store()->num_blocks(), 2u);
  for (const Mutation& m : mutations) {
    const std::string path = ::testing::TempDir() + "/block_crafted.pietblk";
    ASSERT_TRUE(moft.Save(path).ok());
    {
      FILE* f = fopen(path.c_str(), "r+b");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(fseek(f, static_cast<long>(m.offset), SEEK_SET), 0);
      ASSERT_EQ(fwrite(&m.value, sizeof(m.value), 1, f), 1u);
      fclose(f);
    }
    auto opened = Moft::Open(path);
    EXPECT_TRUE(opened.status().IsParseError())
        << m.what << ": " << opened.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(BlockStoreTest, FuzzSaveOpenRoundTripsRandomMofts) {
  // Random MOFT -> save -> open -> bit-compare every column (the Release
  // CI job runs this as the round-trip fuzz gate).
  for (uint32_t seed = 100; seed < 120; ++seed) {
    const std::string path = ::testing::TempDir() + "/block_fuzz_" +
                             std::to_string(seed) + ".pietblk";
    Moft moft = MakeRandomMoft(seed, Blocked(16, seed % 2 == 0));
    ASSERT_TRUE(moft.Save(path).ok()) << seed;
    auto reopened = Moft::Open(path);
    ASSERT_TRUE(reopened.ok()) << seed << ": "
                               << reopened.status().ToString();
    ExpectSameColumns(reopened.ValueOrDie().Columns(), moft.Columns());
    std::remove(path.c_str());
  }
}

TEST(BlockStoreTest, FuzzByteMutatedFilesOpenOrFailWithStatus) {
  // Seeded byte flips and truncations aimed at the header, the directory
  // and the payloads of a saved random MOFT. Open must fail with a Status
  // or map a table whose block walks yield rows or a Status: no crash, no
  // sanitizer finding. Payloads carry no checksum, so a flipped payload
  // byte can still decode to wrong rows; nothing here asserts otherwise.
  constexpr size_t kHeader = 40;
  constexpr size_t kEntry = 112;
  std::mt19937 rng(20261019);
  size_t refused = 0, walked = 0;
  for (uint32_t seed = 200; seed < 216; ++seed) {
    const std::string path = ::testing::TempDir() + "/block_mutate_" +
                             std::to_string(seed) + ".pietblk";
    Moft moft = MakeRandomMoft(seed, Blocked(16, seed % 2 == 0));
    ASSERT_TRUE(moft.Save(path).ok()) << seed;
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const size_t dir_end =
        kHeader + moft.block_store()->num_blocks() * kEntry;
    ASSERT_LT(dir_end, bytes.size()) << seed;
    const size_t regions[3][2] = {
        {0, kHeader}, {kHeader, dir_end}, {dir_end, bytes.size()}};
    for (int round = 0; round < 30; ++round) {
      const size_t* region = regions[round % 3];
      std::uniform_int_distribution<size_t> at(region[0], region[1] - 1);
      std::string mutated = bytes;
      if (round % 5 == 4) {
        mutated.resize(at(rng));
      } else {
        for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
             --flips) {
          mutated[at(rng)] ^= static_cast<char>(1 + rng() % 255);
        }
      }
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(mutated.data(),
                  static_cast<std::streamsize>(mutated.size()));
      }
      Result<Moft> opened = Moft::Open(path);
      if (!opened.ok()) {
        ++refused;
        continue;
      }
      const TableBlocks blocks = opened.ValueOrDie().Blocks();
      BlockIoStats io;
      double sum = 0.0;
      const Status rows = blocks.ForEachRowRange(
          0, blocks.total_rows(), ZoneFilter{}, &io,
          [&](const MoftColumns& data, size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
              sum += data.t[i] + data.x[i] + data.y[i];
            }
            return Status::OK();
          });
      const Status spans = blocks.ForEachSpan(
          0, blocks.total_spans(), ZoneFilter{}, &io,
          [&](const MoftColumns& data, const MoftColumns::Span& span) {
            for (size_t i = span.begin; i < span.end; ++i) {
              sum += static_cast<double>(data.oid[i]);
            }
            return Status::OK();
          });
      EXPECT_EQ(rows.ok(), spans.ok()) << seed << " round " << round;
      ++walked;
      (void)sum;
    }
    std::remove(path.c_str());
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(walked, 0u);
}

TEST(BlockStoreTest, PayloadMustHoldTheSpansItsDirectoryClaims) {
  // A crafted file whose header and directory claim a third span that the
  // block's payload does not hold: Open accepts it (the rows match), and
  // a walk must fail on the pin instead of indexing past the decoded
  // spans.
  const std::string path = ::testing::TempDir() + "/block_spans.pietblk";
  Moft moft = MakeMoft(2, 5, Blocked(100, /*compress=*/true));
  ASSERT_EQ(moft.block_store()->num_blocks(), 1u);
  ASSERT_TRUE(moft.Save(path).ok());
  {
    // Header total_spans at byte 24; block 0's span_end at 40 + 40.
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint64_t spans = 3;
    for (long offset : {24L, 80L}) {
      ASSERT_EQ(fseek(f, offset, SEEK_SET), 0);
      ASSERT_EQ(fwrite(&spans, sizeof(spans), 1, f), 1u);
    }
    fclose(f);
  }
  auto opened = Moft::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const TableBlocks blocks = opened.ValueOrDie().Blocks();
  ASSERT_EQ(blocks.total_spans(), 3u);
  BlockIoStats io;
  const Status walked = blocks.ForEachSpan(
      0, blocks.total_spans(), ZoneFilter{}, &io,
      [](const MoftColumns&, const MoftColumns::Span&) {
        return Status::OK();
      });
  EXPECT_TRUE(walked.IsParseError()) << walked.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// TableBlocks facade.

TEST(TableBlocksTest, HotBlocksVisitTheHotColumnsWithoutPins) {
  // The default options still build a directory: one block here.
  Moft single = MakeMoft(3, 8, BlockOptions{});
  ASSERT_NE(single.block_store(), nullptr);
  EXPECT_EQ(single.Blocks().num_blocks(), 1u);

  // 8-row objects against a 10-row target: one object per block.
  Moft moft = MakeMoft(3, 8, Blocked(10));
  const TableBlocks blocks = moft.Blocks();
  EXPECT_EQ(blocks.num_blocks(), 3u);
  EXPECT_EQ(blocks.total_rows(), 24u);
  EXPECT_EQ(blocks.total_spans(), 3u);
  const MoftColumns& hot = moft.Columns();
  BlockIoStats io;
  std::vector<size_t> seen;
  ASSERT_TRUE(blocks
                  .ForEachRowRange(
                      0, blocks.total_rows(), ZoneFilter{}, &io,
                      [&](const MoftColumns& data, size_t b, size_t e,
                          size_t row_base) {
                        // The hot columns themselves, in global rows.
                        EXPECT_EQ(&data, &hot);
                        EXPECT_EQ(row_base, 0u);
                        for (size_t i = b; i < e; ++i) {
                          seen.push_back(i);
                        }
                        return Status::OK();
                      })
                  .ok());
  ASSERT_EQ(seen.size(), 24u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], i);
  }
  EXPECT_EQ(io.blocks_pinned, 0u);  // Hot blocks are never pinned.
  EXPECT_EQ(io.blocks_skipped, 0u);

  // The zonemaps still skip: object k lives in t in [100k, 100k + 70].
  ZoneFilter filter;
  filter.window = Interval(TimePoint(100.0), TimePoint(150.0));
  BlockIoStats skipped;
  EXPECT_EQ(CollectBlockScan(moft, filter, &skipped).size(), 8u);
  EXPECT_EQ(skipped.blocks_skipped, 2u);
  EXPECT_EQ(skipped.blocks_pinned, 0u);
}

TEST(TableBlocksTest, RowRangesConcatenateToTheSerialSequence) {
  Moft packed = MakeMoft(6, 9, Blocked(12, /*compress=*/true));
  Moft reference = MakeMoft(6, 9, BlockOptions{});
  std::vector<Row> serial = CollectBlockScan(reference);
  const TableBlocks blocks = packed.Blocks();
  // Chunked exactly like the engine fan-outs: arbitrary global row ranges
  // concatenate to the serial sequence.
  for (size_t chunk : {1u, 7u, 13u, 54u}) {
    std::vector<Row> got;
    BlockIoStats io;
    for (size_t begin = 0; begin < blocks.total_rows(); begin += chunk) {
      const size_t end = std::min(begin + chunk, blocks.total_rows());
      ASSERT_TRUE(blocks
                      .ForEachRowRange(
                          begin, end, ZoneFilter{}, &io,
                          [&](const MoftColumns& data, size_t b, size_t e) {
                            for (size_t i = b; i < e; ++i) {
                              got.push_back(Row{data.oid[i], data.t[i],
                                                data.x[i], data.y[i]});
                            }
                            return Status::OK();
                          })
                      .ok());
    }
    EXPECT_EQ(got, serial) << "chunk " << chunk;
  }
}

TEST(TableBlocksTest, SpanIterationSeesWholeObjects) {
  Moft packed = MakeMoft(5, 7, Blocked(10, /*compress=*/true));
  const TableBlocks blocks = packed.Blocks();
  BlockIoStats io;
  size_t spans_seen = 0;
  ASSERT_TRUE(blocks
                  .ForEachSpan(0, blocks.total_spans(), ZoneFilter{}, &io,
                               [&](const MoftColumns& data,
                                   const MoftColumns::Span& span) {
                                 ++spans_seen;
                                 EXPECT_EQ(span.end - span.begin, 7u);
                                 for (size_t i = span.begin + 1;
                                      i < span.end; ++i) {
                                   EXPECT_EQ(data.oid[i], span.oid);
                                   EXPECT_LT(data.t[i - 1], data.t[i]);
                                 }
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(spans_seen, 5u);
}

// ---------------------------------------------------------------------------
// Moft storage operations.

TEST(MoftBlockTest, ReleaseHotInvalidatesViewsAndRematerializes) {
  Moft moft = MakeMoft(4, 12, Blocked(20, /*compress=*/true));
  SampleView before = moft.Scan();
  ASSERT_TRUE(before.valid());
  const uint64_t epoch = moft.seal_epoch();
  std::vector<Sample> want = AllSamplesOf(moft);

  moft.ReleaseHot();
  EXPECT_FALSE(before.valid());
  EXPECT_GT(moft.seal_epoch(), epoch);

  EXPECT_EQ(AllSamplesOf(moft), want);  // Rematerialized on demand.
  EXPECT_TRUE(moft.Scan().valid());
}

TEST(MoftBlockTest, ReleaseHotIsANoOpWithoutAStoreOrWithStagedRows) {
  // Blocks without payloads have no copy of the rows to fall back on.
  Moft plain = MakeMoft(2, 5, BlockOptions{});
  const uint64_t epoch = plain.seal_epoch();
  plain.ReleaseHot();
  EXPECT_EQ(plain.seal_epoch(), epoch);

  Moft blocked = MakeMoft(2, 5, Blocked(4, /*compress=*/true));
  const uint64_t blocked_epoch = blocked.seal_epoch();
  ASSERT_TRUE(
      blocked.Add(99, TimePoint(0.0), geometry::Point(0, 0)).ok());
  blocked.ReleaseHot();  // Staged row still needs the hot tier to merge.
  EXPECT_EQ(blocked.seal_epoch(), blocked_epoch);
  EXPECT_EQ(blocked.num_samples(), 11u);
  EXPECT_EQ(AllSamplesOf(blocked).size(), 11u);
}

TEST(MoftBlockTest, AddAfterReleaseHotMergesThroughRematerialization) {
  Moft moft = MakeMoft(3, 6, Blocked(6, /*compress=*/true));
  moft.ReleaseHot();
  ASSERT_TRUE(
      moft.Add(500, TimePoint(1.0), geometry::Point(9.0, 9.0)).ok());
  std::vector<Sample> all = AllSamplesOf(moft);
  EXPECT_EQ(all.size(), 19u);
  EXPECT_EQ(moft.SamplesOf(500).size(), 1u);
}

TEST(MoftBlockTest, SpillToDiskKeepsAnswersAndRefusesNothing) {
  BlockOptions opts = Blocked(10, /*compress=*/true);
  opts.spill_dir = ::testing::TempDir();
  Moft moft = MakeMoft(5, 9, opts);
  std::vector<Sample> want = AllSamplesOf(moft);
  std::vector<Row> want_window = CollectWindow(moft, 110.0, 230.0);

  ASSERT_TRUE(moft.SpillToDisk().ok());
  const MoftBlockStore* store = moft.block_store();
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(store->mapped());

  EXPECT_EQ(AllSamplesOf(moft), want);
  EXPECT_EQ(CollectWindow(moft, 110.0, 230.0), want_window);
  // A spilled Moft is NOT read-only — it was built here, the duplicate
  // index is intact.
  EXPECT_TRUE(moft.Add(777, TimePoint(0.0), geometry::Point(1, 1)).ok());
  EXPECT_EQ(moft.num_samples(), 46u);
}

TEST(MoftBlockTest, SpillToDiskLeavesNoFileBehind) {
  BlockOptions opts = Blocked(10, /*compress=*/true);
  opts.spill_dir = ::testing::TempDir() + "/spill_leak";
  std::filesystem::remove_all(opts.spill_dir);
  ASSERT_TRUE(std::filesystem::create_directory(opts.spill_dir));
  Moft moft = MakeMoft(5, 9, opts);
  const std::vector<Sample> want = AllSamplesOf(moft);
  const std::vector<Row> want_window = CollectWindow(moft, 110.0, 230.0);

  ASSERT_TRUE(moft.SpillToDisk().ok());
  ASSERT_TRUE(moft.SpillToDisk().ok());
  EXPECT_TRUE(std::filesystem::is_empty(opts.spill_dir));
  EXPECT_TRUE(moft.block_store()->mapped());
  EXPECT_EQ(CollectWindow(moft, 110.0, 230.0), want_window);
  EXPECT_EQ(AllSamplesOf(moft), want);

  moft.ReleaseHot();
  const Moft copy = moft;  // Rematerializes from the unlinked mapping.
  EXPECT_EQ(AllSamplesOf(copy), want);
  EXPECT_EQ(CollectWindow(copy, 110.0, 230.0), want_window);
  std::filesystem::remove_all(opts.spill_dir);
}

TEST(MoftBlockTest, OpenedMoftIsReadOnly) {
  const std::string path = ::testing::TempDir() + "/moft_ro.pietblk";
  Moft moft = MakeMoft(3, 5, Blocked(5, /*compress=*/true));
  ASSERT_TRUE(moft.Save(path).ok());
  auto opened = Moft::Open(path);
  ASSERT_TRUE(opened.ok());
  Moft& ro = opened.ValueOrDie();
  EXPECT_EQ(ro.num_samples(), 15u);
  Status add = ro.Add(1, TimePoint(99.0), geometry::Point(0, 0));
  EXPECT_FALSE(add.ok());
  EXPECT_EQ(AllSamplesOf(ro), AllSamplesOf(moft));
  std::remove(path.c_str());
}

TEST(MoftBlockTest, CopyOfBlockBackedMoftIsIndependent) {
  Moft moft = MakeMoft(4, 8, Blocked(8, /*compress=*/true));
  moft.ReleaseHot();
  Moft copy = moft;  // Must rematerialize + rebuild its own store.
  ASSERT_NE(copy.block_store(), nullptr);
  EXPECT_EQ(AllSamplesOf(copy), AllSamplesOf(moft));
  ASSERT_TRUE(copy.Add(42, TimePoint(0.5), geometry::Point(0, 0)).ok());
  EXPECT_EQ(copy.num_samples(), 33u);
  EXPECT_EQ(moft.num_samples(), 32u);
}

// ---------------------------------------------------------------------------
// SamplesBetween at block seams (satellite 3).

TEST(MoftWindowSeamTest, EmptyMoft) {
  Moft moft;
  moft.SetBlockOptions(Blocked(4, /*compress=*/true));
  EXPECT_EQ(moft.SamplesBetween(TimePoint(0.0), TimePoint(100.0)).size(),
            0u);
  EXPECT_EQ(moft.Blocks().total_rows(), 0u);
  EXPECT_EQ(CollectBlockScan(moft).size(), 0u);
}

// The whole-table views have no Status channel (they go once every reader
// walks Moft::Blocks()), so an opened table whose block fails to decode
// must show them no rows at all rather than a table with that block's rows
// missing: SamplesBetween used to index the block's spans into hot columns
// that lacked them.
TEST(MoftWindowSeamTest, UndecodableBlockHidesTheWholeTable) {
  const Moft source = MakeMoft(6, 8, Blocked(16));
  auto garbled = MoftFromGarbledBlockFile(source.Columns(), Blocked(16),
                                          "window_seam_garbled.pietblk");
  ASSERT_TRUE(garbled.ok()) << garbled.status().ToString();
  const Moft& moft = garbled.ValueOrDie();
  ASSERT_GT(moft.block_store()->num_blocks(), 1u);
  // Block 0 holds objects 1 and 11, the ones the window reaches.
  EXPECT_EQ(moft.SamplesBetween(TimePoint(0.0), TimePoint(100.0)).size(), 0u);
  EXPECT_EQ(moft.Scan().size(), 0u);
  EXPECT_EQ(moft.num_objects(), 0u);
}

TEST(MoftWindowSeamTest, WindowsOnExactBlockSeams) {
  // block_rows = 4 with 4 samples per object puts every object in its own
  // block; object k spans t in [100k, 100k + 30].
  Moft packed = MakeMoft(6, 4, Blocked(4, /*compress=*/true));
  Moft reference = MakeMoft(6, 4, BlockOptions{});
  ASSERT_GT(packed.block_store()->num_blocks(), 4u);

  const double cases[][2] = {
      {130.0, 200.0},   // Starts on block 1's last sample, ends on 2's first.
      {100.0, 130.0},   // Exactly one block's full time range.
      {130.0, 130.0},   // Degenerate window on a seam sample.
      {131.0, 199.0},   // Strictly between two blocks: empty.
      {-50.0, 0.0},     // Ends on the very first sample.
      {530.0, 1e9},     // Starts on the very last sample.
      {200.0, 100.0},   // Reversed: empty.
      {-1e9, 1e9},      // Everything.
  };
  for (const auto& c : cases) {
    EXPECT_EQ(CollectWindow(packed, c[0], c[1]),
              CollectWindow(reference, c[0], c[1]))
        << "window [" << c[0] << ", " << c[1] << "]";
  }
  EXPECT_EQ(CollectWindow(packed, 131.0, 199.0).size(), 0u);
  EXPECT_EQ(CollectWindow(packed, 130.0, 200.0).size(), 2u);
}

TEST(MoftWindowSeamTest, SingleSampleObjects) {
  Moft packed = MakeMoft(8, 1, Blocked(2, /*compress=*/true));
  Moft reference = MakeMoft(8, 1, BlockOptions{});
  const double cases[][2] = {{0.0, 700.0}, {100.0, 100.0}, {150.0, 250.0}};
  for (const auto& c : cases) {
    EXPECT_EQ(CollectWindow(packed, c[0], c[1]),
              CollectWindow(reference, c[0], c[1]));
  }
  EXPECT_EQ(CollectWindow(packed, 100.0, 100.0).size(), 1u);
}

TEST(MoftWindowSeamTest, ReversedInsertionOrderMatchesForward) {
  BlockOptions opts = Blocked(4, /*compress=*/true);
  Moft forward;
  forward.SetBlockOptions(opts);
  Moft reversed;
  reversed.SetBlockOptions(opts);
  std::vector<Sample> samples;
  for (int k = 0; k < 5; ++k) {
    for (int j = 0; j < 4; ++j) {
      samples.push_back(Sample{k + 1, TimePoint(100.0 * k + 10.0 * j),
                               geometry::Point(k + j, k - j)});
    }
  }
  for (const Sample& s : samples) {
    ASSERT_TRUE(forward.Add(s.oid, s.t, s.pos).ok());
  }
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    ASSERT_TRUE(reversed.Add(it->oid, it->t, it->pos).ok());
  }
  EXPECT_EQ(AllSamplesOf(reversed), AllSamplesOf(forward));
  EXPECT_EQ(CollectWindow(reversed, 130.0, 200.0),
            CollectWindow(forward, 130.0, 200.0));
  EXPECT_EQ(CollectBlockScan(reversed).size(),
            CollectBlockScan(forward).size());
}

}  // namespace
}  // namespace piet::moving
