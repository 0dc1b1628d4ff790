#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "index/agg_rtree.h"
#include "index/grid.h"
#include "index/rtree.h"

namespace piet::index {
namespace {

using geometry::BoundingBox;
using geometry::Point;
using temporal::Interval;
using temporal::TimePoint;

std::vector<RTree::Entry> RandomEntries(Random* rng, size_t n) {
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double x = rng->UniformDouble(0, 100);
    double y = rng->UniformDouble(0, 100);
    double w = rng->UniformDouble(0, 5);
    double h = rng->UniformDouble(0, 5);
    entries.push_back({BoundingBox(x, y, x + w, y + h),
                       static_cast<RTree::Id>(i)});
  }
  return entries;
}

std::set<RTree::Id> BruteForce(const std::vector<RTree::Entry>& entries,
                               const BoundingBox& q) {
  std::set<RTree::Id> out;
  for (const auto& e : entries) {
    if (e.box.Intersects(q)) {
      out.insert(e.id);
    }
  }
  return out;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_TRUE(tree.Search(BoundingBox(0, 0, 1, 1)).empty());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(RTreeTest, SingleInsert) {
  RTree tree;
  tree.Insert(BoundingBox(1, 1, 2, 2), 7);
  EXPECT_EQ(tree.size(), 1u);
  auto hits = tree.Search(BoundingBox(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7);
  EXPECT_TRUE(tree.Search(BoundingBox(5, 5, 6, 6)).empty());
}

TEST(RTreeTest, SearchPointHitsBoundary) {
  RTree tree;
  tree.Insert(BoundingBox(0, 0, 2, 2), 1);
  EXPECT_EQ(tree.SearchPoint({2, 2}).size(), 1u);
  EXPECT_EQ(tree.SearchPoint({2.1, 2}).size(), 0u);
}

class RTreeProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeProperty, InsertMatchesBruteForce) {
  Random rng(GetParam());
  auto entries = RandomEntries(&rng, GetParam() * 37 + 5);
  RTree tree(8);
  for (const auto& e : entries) {
    tree.Insert(e.box, e.id);
  }
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_TRUE(tree.CheckInvariants());
  for (int q = 0; q < 50; ++q) {
    double x = rng.UniformDouble(-5, 100);
    double y = rng.UniformDouble(-5, 100);
    BoundingBox query(x, y, x + rng.UniformDouble(0, 20),
                      y + rng.UniformDouble(0, 20));
    auto hits = tree.Search(query);
    std::set<RTree::Id> got(hits.begin(), hits.end());
    EXPECT_EQ(got.size(), hits.size()) << "duplicate results";
    EXPECT_EQ(got, BruteForce(entries, query));
  }
}

TEST_P(RTreeProperty, BulkLoadMatchesBruteForce) {
  Random rng(GetParam() + 100);
  auto entries = RandomEntries(&rng, GetParam() * 53 + 3);
  RTree tree = RTree::BulkLoad(entries, 8);
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_TRUE(tree.CheckInvariants());
  for (int q = 0; q < 50; ++q) {
    double x = rng.UniformDouble(-5, 100);
    double y = rng.UniformDouble(-5, 100);
    BoundingBox query(x, y, x + rng.UniformDouble(0, 30),
                      y + rng.UniformDouble(0, 30));
    auto hits = tree.Search(query);
    std::set<RTree::Id> got(hits.begin(), hits.end());
    EXPECT_EQ(got, BruteForce(entries, query));
  }
}

TEST_P(RTreeProperty, MixedBulkAndInsert) {
  Random rng(GetParam() + 200);
  auto entries = RandomEntries(&rng, 64);
  RTree tree = RTree::BulkLoad(
      std::vector<RTree::Entry>(entries.begin(), entries.begin() + 32), 6);
  for (size_t i = 32; i < entries.size(); ++i) {
    tree.Insert(entries[i].box, entries[i].id);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  BoundingBox all(-10, -10, 200, 200);
  auto hits = tree.Search(all);
  EXPECT_EQ(hits.size(), entries.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeProperty, ::testing::Values(1, 3, 8, 20));

TEST(RTreeTest, VisitEarlyStop) {
  RTree tree;
  for (int i = 0; i < 100; ++i) {
    tree.Insert(BoundingBox(i, 0, i + 0.5, 1), i);
  }
  size_t visited = 0;
  tree.Visit(BoundingBox(-1, -1, 200, 2), [&](const RTree::Entry&) {
    ++visited;
    return visited < 5;
  });
  EXPECT_EQ(visited, 5u);
}

TEST(RTreeTest, NearestBasic) {
  RTree tree;
  for (int i = 0; i < 20; ++i) {
    double x = i * 10.0;
    tree.Insert(BoundingBox(x, 0, x, 0), i);
  }
  auto nearest = tree.Nearest({42, 0}, 3);
  ASSERT_EQ(nearest.size(), 3u);
  EXPECT_EQ(nearest[0].id, 4);  // x=40.
  EXPECT_EQ(nearest[1].id, 5);  // x=50.
  EXPECT_EQ(nearest[2].id, 3);  // x=30.
}

TEST(RTreeTest, NearestEdgeCases) {
  RTree empty;
  EXPECT_TRUE(empty.Nearest({0, 0}, 5).empty());
  RTree one;
  one.Insert(BoundingBox(1, 1, 1, 1), 7);
  EXPECT_TRUE(one.Nearest({0, 0}, 0).empty());
  auto all = one.Nearest({0, 0}, 10);
  ASSERT_EQ(all.size(), 1u);  // k larger than size.
  EXPECT_EQ(all[0].id, 7);
}

TEST(RTreeTest, NearestMatchesBruteForce) {
  Random rng(17);
  auto entries = RandomEntries(&rng, 200);
  // Shrink to points for exact kNN semantics.
  for (auto& e : entries) {
    e.box = BoundingBox(e.box.min_x, e.box.min_y, e.box.min_x, e.box.min_y);
  }
  RTree tree = RTree::BulkLoad(entries, 8);
  for (int q = 0; q < 30; ++q) {
    Point p(rng.UniformDouble(-10, 110), rng.UniformDouble(-10, 110));
    auto got = tree.Nearest(p, 5);
    ASSERT_EQ(got.size(), 5u);
    std::vector<double> expected;
    for (const auto& e : entries) {
      expected.push_back(e.box.SquaredDistanceTo(p));
    }
    std::sort(expected.begin(), expected.end());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].box.SquaredDistanceTo(p), expected[i], 1e-9)
          << "rank " << i;
    }
  }
}

TEST(GridIndexTest, PointQueries) {
  GridIndex grid(BoundingBox(0, 0, 100, 100), 10);
  grid.Insert(BoundingBox(10, 10, 20, 20), 1);
  grid.Insert(BoundingBox(15, 15, 30, 30), 2);
  grid.Insert(BoundingBox(80, 80, 90, 90), 3);

  auto hits = grid.SearchPoint({18, 18});
  std::set<GridIndex::Id> got(hits.begin(), hits.end());
  EXPECT_EQ(got, (std::set<GridIndex::Id>{1, 2}));
  EXPECT_TRUE(grid.SearchPoint({50, 50}).empty());
  EXPECT_EQ(grid.SearchPoint({85, 85}).size(), 1u);
}

TEST(GridIndexTest, PointsOutsideExtentClamp) {
  GridIndex grid(BoundingBox(0, 0, 10, 10), 4);
  grid.Insert(BoundingBox(9, 9, 10, 10), 1);
  // Query outside the extent clamps to the border cell and still applies
  // the exact box test.
  EXPECT_TRUE(grid.SearchPoint({11, 11}).empty());
  EXPECT_EQ(grid.SearchPoint({10, 10}).size(), 1u);
}

TEST(GridIndexTest, BoxSearchDeduplicates) {
  GridIndex grid(BoundingBox(0, 0, 100, 100), 10);
  grid.Insert(BoundingBox(0, 0, 100, 100), 42);  // Spans every cell.
  auto hits = grid.Search(BoundingBox(20, 20, 80, 80));
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndexTest, VisitBoxCoversSearch) {
  GridIndex grid(BoundingBox(0, 0, 100, 100), 10);
  grid.Insert(BoundingBox(10, 10, 20, 20), 1);
  grid.Insert(BoundingBox(15, 15, 30, 30), 2);
  grid.Insert(BoundingBox(80, 80, 90, 90), 3);
  grid.Insert(BoundingBox(30, 0, 40, 10), 4);  // Touches query edge x = 30.
  const BoundingBox query(18, 12, 30, 25);
  std::vector<GridIndex::Id> visited;
  grid.VisitBox(query, [&](GridIndex::Id id) { visited.push_back(id); });
  std::set<GridIndex::Id> got(visited.begin(), visited.end());
  std::vector<GridIndex::Id> expected = grid.Search(query);
  EXPECT_EQ(got, std::set<GridIndex::Id>(expected.begin(), expected.end()));
  EXPECT_EQ(got, (std::set<GridIndex::Id>{1, 2}));
  // An entry spanning several visited cells is reported once per cell.
  EXPECT_GT(visited.size(), got.size());
}

TEST(GridIndexTest, NonFiniteQueriesClampToBorderCells) {
  GridIndex grid(BoundingBox(0, 0, 10, 10), 4);
  grid.Insert(BoundingBox(9, 9, 10, 10), 1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(grid.SearchPoint({inf, inf}).empty());
  EXPECT_TRUE(grid.SearchPoint({nan, 5}).empty());
  size_t visits = 0;
  grid.VisitBox(BoundingBox(-inf, -inf, inf, inf),
                [&](GridIndex::Id) { ++visits; });
  EXPECT_EQ(visits, 1u);
  grid.VisitBox(BoundingBox(nan, nan, nan, nan),
                [&](GridIndex::Id) { ++visits; });
  grid.VisitBox(BoundingBox(1e308, 1e308, 1e308, 1e308),
                [&](GridIndex::Id) { ++visits; });
  EXPECT_EQ(visits, 1u);
}

TEST(AggregateRTreeTest, SingleRegionCounts) {
  AggregateRTree tree({{7, BoundingBox(0, 0, 10, 10)}}, /*bucket_width=*/60.0);
  ASSERT_TRUE(tree.AddObservation(7, TimePoint(30)).ok());
  ASSERT_TRUE(tree.AddObservation(7, TimePoint(90)).ok());
  ASSERT_TRUE(tree.AddObservation(7, TimePoint(150), 2.0).ok());

  // Bucket-aligned queries are exact.
  EXPECT_DOUBLE_EQ(
      tree.Count(BoundingBox(0, 0, 10, 10), Interval(TimePoint(0), TimePoint(60))),
      1.0);
  EXPECT_DOUBLE_EQ(
      tree.Count(BoundingBox(0, 0, 10, 10), Interval(TimePoint(0), TimePoint(120))),
      2.0);
  EXPECT_DOUBLE_EQ(
      tree.Count(BoundingBox(0, 0, 10, 10), Interval(TimePoint(0), TimePoint(180))),
      4.0);
  EXPECT_DOUBLE_EQ(
      tree.CountRegion(7, Interval(TimePoint(60), TimePoint(120))).ValueOrDie(),
      1.0);
}

TEST(AggregateRTreeTest, UnknownRegionRejected) {
  AggregateRTree tree({{1, BoundingBox(0, 0, 1, 1)}}, 60.0);
  EXPECT_TRUE(tree.AddObservation(99, TimePoint(0)).IsNotFound());
  EXPECT_TRUE(
      tree.CountRegion(99, Interval(TimePoint(0), TimePoint(1))).status().IsNotFound());
}

TEST(AggregateRTreeTest, SpatialFiltering) {
  std::vector<std::pair<AggregateRTree::RegionId, BoundingBox>> regions;
  for (int i = 0; i < 10; ++i) {
    regions.push_back({i, BoundingBox(i * 10, 0, i * 10 + 5, 5)});
  }
  AggregateRTree tree(regions, 10.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.AddObservation(i, TimePoint(5), 1.0).ok());
  }
  // Window covering regions 0..4 only.
  EXPECT_DOUBLE_EQ(
      tree.Count(BoundingBox(0, 0, 46, 10), Interval(TimePoint(0), TimePoint(10))),
      5.0);
  EXPECT_DOUBLE_EQ(
      tree.Count(BoundingBox(-10, -10, 200, 200),
                 Interval(TimePoint(0), TimePoint(10))),
      10.0);
}

TEST(AggregateRTreeTest, MatchesBruteForceOnRandomWorkload) {
  Random rng(3);
  std::vector<std::pair<AggregateRTree::RegionId, BoundingBox>> regions;
  for (int i = 0; i < 50; ++i) {
    double x = rng.UniformDouble(0, 90);
    double y = rng.UniformDouble(0, 90);
    regions.push_back({i, BoundingBox(x, y, x + 10, y + 10)});
  }
  AggregateRTree tree(regions, 100.0);
  struct Obs {
    int region;
    double t;
  };
  std::vector<Obs> observations;
  for (int i = 0; i < 2000; ++i) {
    Obs o{static_cast<int>(rng.Uniform(50)), rng.UniformDouble(0, 10000)};
    observations.push_back(o);
    ASSERT_TRUE(tree.AddObservation(o.region, TimePoint(o.t)).ok());
  }
  for (int q = 0; q < 30; ++q) {
    double x = rng.UniformDouble(0, 80);
    double y = rng.UniformDouble(0, 80);
    BoundingBox window(x, y, x + rng.UniformDouble(10, 40),
                       y + rng.UniformDouble(10, 40));
    // Bucket-aligned interval for exactness.
    double t0 = 100.0 * static_cast<double>(rng.UniformInt(0, 50));
    double t1 = t0 + 100.0 * static_cast<double>(rng.UniformInt(1, 40));
    double expected = 0.0;
    for (const Obs& o : observations) {
      if (o.t >= t0 && o.t < t1 && regions[o.region].second.Intersects(window)) {
        expected += 1.0;
      }
    }
    EXPECT_DOUBLE_EQ(
        tree.Count(window, Interval(TimePoint(t0), TimePoint(t1))), expected)
        << "window " << window.ToString() << " t=[" << t0 << "," << t1 << ")";
  }
}

TEST(AggregateRTreeTest, VisitsFewerNodesThanRegionsOnBigWindows) {
  std::vector<std::pair<AggregateRTree::RegionId, BoundingBox>> regions;
  for (int i = 0; i < 1024; ++i) {
    double x = (i % 32) * 10.0;
    double y = (i / 32) * 10.0;
    regions.push_back({i, BoundingBox(x, y, x + 10, y + 10)});
  }
  AggregateRTree tree(regions, 60.0);
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(tree.AddObservation(i, TimePoint(30)).ok());
  }
  double total = tree.Count(BoundingBox(-10, -10, 1000, 1000),
                            Interval(TimePoint(0), TimePoint(60)));
  EXPECT_DOUBLE_EQ(total, 1024.0);
  // The pre-aggregated fast path answers from the root.
  EXPECT_LT(tree.last_nodes_visited(), 16u);
}

}  // namespace
}  // namespace piet::index
