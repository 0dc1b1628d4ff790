// The leg-major trajectory refine (batch::LegRefiner) against the
// polygon-major reference it replaces: for every polygon of a set, the
// per-polygon moving::InsideIntervals / DistanceTravelledInside over the
// same trajectory. Endpoints and distances must be ==-equal, not merely
// close — every (leg, polygon) pair the refiner does not hand to
// SegmentInsideIntervals is one whose answer is known: a box miss, a
// corridor reject or a stationary leg at the previous stationary point.
//
// The second half is an operator-level oracle: the four LIT front ends
// (TrajectoryRegion, TrajectoryAggregates, ObjectsAlwaysWithin with
// trajectory semantics, Piet-QL PASSES THROUGH), plus SnapshotInRegion and
// TrajectoryNearNodes, on a seeded non-convex city, at 1 and 4 threads over
// raw and compressed storage and under windows that clip each object to a
// few legs, against a reference written here from the public per-polygon
// kernels over each object's whole history.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "core/geometry/batch.h"
#include "core/pietql/evaluator.h"
#include "corner_leg.h"
#include "geometry/polygon.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving/traj_ops.h"
#include "moving/trajectory.h"
#include "temporal/calendar.h"
#include "workload/city.h"
#include "workload/trajectories.h"

namespace piet {
namespace {

using core::batch::LegRefiner;
using core::batch::LegScratch;
using geometry::BoundingBox;
using geometry::CornerLeg;
using geometry::Point;
using geometry::Polygon;
using geometry::Ring;
using moving::LinearTrajectory;
using moving::TimedPoint;
using moving::TrajectorySample;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

// ---------------------------------------------------------------------------
// Kernel property test

Polygon MakePolygon(std::vector<Point> shell,
                    std::vector<std::vector<Point>> holes = {}) {
  std::vector<Ring> hole_rings;
  for (std::vector<Point>& h : holes) {
    hole_rings.push_back(Ring::Create(std::move(h)).ValueOrDie());
  }
  return Polygon::Create(Ring::Create(std::move(shell)).ValueOrDie(),
                         std::move(hole_rings))
      .ValueOrDie();
}

Polygon Rect(double x0, double y0, double x1, double y1) {
  return MakePolygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

/// A star-shaped (hence simple, usually non-convex) polygon around `c`.
Polygon Star(Random* rng, Point c, double r, int n) {
  std::vector<Point> v;
  for (int i = 0; i < n; ++i) {
    const double a = 2.0 * std::numbers::pi * i / n;
    const double rr = r * rng->UniformDouble(0.35, 1.0);
    v.emplace_back(c.x + rr * std::cos(a), c.y + rr * std::sin(a));
  }
  return MakePolygon(std::move(v));
}

struct PolygonSet {
  std::string name;
  std::vector<Polygon> polys;
};

std::vector<PolygonSet> PolygonSets(Random* rng) {
  std::vector<PolygonSet> sets;
  // City-like grid of unit blocks sharing edges, with an L-shaped pair.
  PolygonSet grid{"shared_edges", {}};
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      if ((x == 2 || x == 3) && (y == 2 || y == 3)) {
        continue;
      }
      grid.polys.push_back(Rect(x, y, x + 1, y + 1));
    }
  }
  grid.polys.push_back(
      MakePolygon({{2, 2}, {4, 2}, {4, 3}, {3, 3}, {3, 4}, {2, 4}}));
  grid.polys.push_back(Rect(3, 3, 4, 4));
  sets.push_back(std::move(grid));

  PolygonSet holes{"holes", {}};
  holes.polys.push_back(MakePolygon({{0, 0}, {10, 0}, {10, 10}, {0, 10}},
                                    {{{2, 2}, {4, 2}, {4, 4}, {2, 4}},
                                     {{6, 6}, {8, 6}, {7, 8}}}));
  holes.polys.push_back(
      MakePolygon({{12, 0}, {20, 0}, {20, 8}, {12, 8}},
                  {{{14, 2}, {18, 2}, {18, 6}, {16, 3}, {14, 6}}}));
  holes.polys.push_back(Rect(3, 3, 7, 7));  // Overlaps the first's hole.
  sets.push_back(std::move(holes));

  sets.push_back({"single", {Star(rng, {5, 5}, 4, 9)}});
  sets.push_back({"empty", {}});

  // Every polygon has the same box, so every grid cell holds all of them.
  PolygonSet one_cell{"one_cell", {}};
  one_cell.polys.push_back(Rect(1, 1, 3, 3));
  one_cell.polys.push_back(MakePolygon({{1, 1}, {3, 1}, {1, 3}}));
  one_cell.polys.push_back(MakePolygon({{3, 3}, {1, 3}, {3, 1}}));
  one_cell.polys.push_back(MakePolygon({{1, 1}, {3, 1}, {3, 3}, {1, 3}},
                                       {{{1.5, 1.5}, {2.5, 1.5}, {2, 2.5}}}));
  sets.push_back(std::move(one_cell));

  PolygonSet random{"random_stars", {}};
  for (int i = 0; i < 40; ++i) {
    random.polys.push_back(Star(rng,
                                {rng->UniformDouble(0, 50),
                                 rng->UniformDouble(0, 50)},
                                rng->UniformDouble(0.5, 6), 5 + i % 7));
  }
  sets.push_back(std::move(random));
  return sets;
}

BoundingBox ExtentOf(const std::vector<Polygon>& polys) {
  BoundingBox box;
  for (const Polygon& p : polys) {
    box.ExtendWith(p.Bounds());
  }
  return box.empty() ? BoundingBox(0, 0, 10, 10) : box;
}

/// Seeded trajectories that exercise the kernel's edge cases.
std::vector<std::vector<TimedPoint>> Trajectories(
    Random* rng, const std::vector<Polygon>& polys) {
  const BoundingBox ext = ExtentOf(polys);
  const double w = ext.width() > 0 ? ext.width() : 1.0;
  const double h = ext.height() > 0 ? ext.height() : 1.0;
  std::vector<std::vector<TimedPoint>> out;
  double t = 1.6e9;  // Epoch-scale timestamps.
  auto next_t = [&] {
    t += rng->UniformDouble(0.5, 40.0);
    return TimePoint(t);
  };
  auto random_point = [&](double margin) {
    return Point(rng->UniformDouble(ext.min_x - margin * w,
                                    ext.max_x + margin * w),
                 rng->UniformDouble(ext.min_y - margin * h,
                                    ext.max_y + margin * h));
  };

  // Random walks, partly outside the extent.
  for (int k = 0; k < 12; ++k) {
    std::vector<TimedPoint> tr;
    Point p = random_point(0.2);
    const int n = 2 + static_cast<int>(rng->Uniform(60));
    for (int i = 0; i < n; ++i) {
      tr.push_back({next_t(), p});
      p = Point(p.x + rng->UniformDouble(-0.15, 0.15) * w,
                p.y + rng->UniformDouble(-0.15, 0.15) * h);
    }
    out.push_back(std::move(tr));
  }
  // Single-sample objects, inside and outside.
  for (int k = 0; k < 6; ++k) {
    out.push_back({{next_t(), random_point(k % 2 == 0 ? 0.0 : 0.5)}});
  }
  // Stationary legs: repeated positions, including polygon vertices.
  for (const Polygon& pg : polys) {
    const Point v = pg.shell().vertices().front();
    const Point c = pg.Bounds().Center();
    out.push_back({{next_t(), v}, {next_t(), v}, {next_t(), c},
                   {next_t(), c}, {next_t(), c}});
    if (out.size() > 40) {
      break;
    }
  }
  // Legs lying on polygon box edges (shared edges of the grid set too).
  for (const Polygon& pg : polys) {
    const BoundingBox b = pg.Bounds();
    out.push_back({{next_t(), {b.min_x, b.min_y}},
                   {next_t(), {b.max_x, b.min_y}},
                   {next_t(), {b.max_x, b.max_y}},
                   {next_t(), {b.min_x, b.max_y}},
                   {next_t(), {b.min_x, b.min_y}}});
    if (out.size() > 80) {
      break;
    }
  }
  // Legs on candidate grid cell boundaries (k / m of the extent for every
  // m the refiner might pick at these set sizes), both axes.
  for (int m = 1; m <= 8; ++m) {
    for (int k = 0; k <= m; ++k) {
      const double x = ext.min_x + k * (ext.max_x - ext.min_x) / m;
      const double y = ext.min_y + k * (ext.max_y - ext.min_y) / m;
      out.push_back({{next_t(), {x, ext.min_y - 1}},
                     {next_t(), {x, ext.max_y + 1}},
                     {next_t(), {ext.max_x + 1, y}},
                     {next_t(), {ext.min_x - 1, y}}});
    }
  }
  // Idle runs: broken by a move back to the same point (A A A B A A), on a
  // vertex, and on an edge midpoint (a shared edge in the grid set).
  for (size_t k = 0; k < polys.size() && k < 12; ++k) {
    const std::vector<Point>& v = polys[k].shell().vertices();
    const Point a = polys[k].Bounds().Center();
    const Point m((v[0].x + v[1].x) / 2.0, (v[0].y + v[1].y) / 2.0);
    out.push_back({{next_t(), a}, {next_t(), a}, {next_t(), a},
                   {next_t(), v[1]}, {next_t(), a}, {next_t(), a}});
    out.push_back({{next_t(), v[1]}, {next_t(), v[1]}, {next_t(), v[1]},
                   {next_t(), m}, {next_t(), m}, {next_t(), m},
                   {next_t(), v[1]}, {next_t(), v[1]}});
  }
  // Stationary legs at +0 and -0: equal points, different bits (each is
  // refined exactly, none reuses the other's answer).
  {
    const double y = ext.min_y + 0.5 * h;
    out.push_back({{next_t(), {0.0, y}}, {next_t(), {-0.0, y}},
                   {next_t(), {0.0, y}}, {next_t(), {0.0, y}},
                   {next_t(), {-0.0, y}}, {next_t(), {-0.0, y}}});
  }
  // Legs passing a polygon-box corner at 0, 1 ulp, 1/2 and 2 corridor
  // margins: only the last is past the margin.
  for (size_t k = 0; k < polys.size() && k < 10; ++k) {
    for (int corner = 0; corner < 4; ++corner) {
      for (const auto& [margins, ulp] :
           {std::pair{0.0, false}, {0.0, true}, {0.5, false}, {2.0, false}}) {
        const geometry::Segment leg =
            CornerLeg(polys[k].Bounds(), corner, margins, ulp);
        out.push_back({{next_t(), leg.a}, {next_t(), leg.b}});
      }
    }
  }
  // Legs entirely outside the extent (and one crossing over it).
  out.push_back({{next_t(), {ext.max_x + 2 * w, ext.min_y}},
                 {next_t(), {ext.max_x + 3 * w, ext.max_y}},
                 {next_t(), {ext.max_x + 2 * w, ext.max_y + 5 * h}}});
  out.push_back({{next_t(), {ext.min_x - w, ext.min_y - h}},
                 {next_t(), {ext.max_x + w, ext.max_y + h}}});
  return out;
}

/// How one Refine answered its (leg, polygon) box-overlap pairs.
struct RefineCounts {
  size_t refines = 0;
  size_t corridor_rejects = 0;
  size_t stationary_reuses = 0;

  void Add(const RefineCounts& o) {
    refines += o.refines;
    corridor_rejects += o.corridor_rejects;
    stationary_reuses += o.stationary_reuses;
  }
};

RefineCounts ExpectMatchesPolygonMajor(const std::vector<Polygon>& polys,
                                       const std::vector<TimedPoint>& points,
                                       const LegRefiner& refiner,
                                       LegScratch* scratch,
                                       const std::string& tag) {
  std::vector<double> ts, xs, ys;
  for (const TimedPoint& tp : points) {
    ts.push_back(tp.t.seconds);
    xs.push_back(tp.pos.x);
    ys.push_back(tp.pos.y);
  }
  const size_t refines = refiner.Refine(ts, xs, ys, scratch);
  const LinearTrajectory traj =
      LinearTrajectory::FromSample(
          TrajectorySample::Create(points).ValueOrDie())
          .ValueOrDie();

  // Completeness of the grid probe: every (leg, polygon) pair whose boxes
  // meet is answered exactly once — by the exact kernel, a corridor reject
  // or a stationary reuse.
  size_t box_pairs = 0;
  for (const LinearTrajectory::Leg& leg : traj.Legs()) {
    for (const Polygon& pg : polys) {
      box_pairs += pg.Bounds().Intersects(leg.AsSegment().Bounds()) ? 1 : 0;
    }
  }
  const RefineCounts counts{refines, scratch->corridor_rejects,
                            scratch->stationary_reuses};
  EXPECT_EQ(counts.refines + counts.corridor_rejects +
                counts.stationary_reuses,
            box_pairs)
      << tag;

  EXPECT_TRUE(std::is_sorted(scratch->hit.begin(), scratch->hit.end()))
      << tag;
  const std::set<uint32_t> hit(scratch->hit.begin(), scratch->hit.end());
  EXPECT_EQ(hit.size(), scratch->hit.size()) << tag;
  for (size_t q = 0; q < polys.size(); ++q) {
    const IntervalSet expected = moving::InsideIntervals(traj, polys[q]);
    const double expected_dist =
        moving::DistanceTravelledInside(traj, polys[q]);
    const std::string where = tag + " polygon " + std::to_string(q);
    if (hit.count(static_cast<uint32_t>(q)) == 0) {
      EXPECT_TRUE(expected.empty()) << where << ": " << expected.ToString();
      EXPECT_EQ(expected_dist, 0.0) << where;
      EXPECT_TRUE(scratch->pieces[q].empty()) << where;
      continue;
    }
    const IntervalSet got(scratch->pieces[q]);
    EXPECT_EQ(got.size(), expected.size()) << where;
    if (got.size() != expected.size()) {
      continue;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.intervals()[i].begin.seconds,
                expected.intervals()[i].begin.seconds)
          << where;
      EXPECT_EQ(got.intervals()[i].end.seconds,
                expected.intervals()[i].end.seconds)
          << where;
    }
    EXPECT_EQ(scratch->distance[q], expected_dist) << where;
  }
  return counts;
}

TEST(LegRefinerTest, MatchesPolygonMajorKernelsBitForBit) {
  Random rng(20261017);
  RefineCounts total;
  for (const PolygonSet& set : PolygonSets(&rng)) {
    std::vector<const Polygon*> ptrs;
    for (const Polygon& p : set.polys) {
      ptrs.push_back(&p);
    }
    const LegRefiner refiner(ptrs);
    // One scratch across every trajectory of the set: the per-object
    // reset must leave nothing behind.
    LegScratch scratch;
    const std::vector<std::vector<TimedPoint>> trajs =
        Trajectories(&rng, set.polys);
    for (size_t k = 0; k < trajs.size(); ++k) {
      total.Add(ExpectMatchesPolygonMajor(
          set.polys, trajs[k], refiner, &scratch,
          set.name + " trajectory " + std::to_string(k)));
    }
  }
  // Both shortcuts are exercised, and most pairs still refine exactly.
  EXPECT_GT(total.corridor_rejects, 0u);
  EXPECT_GT(total.stationary_reuses, 0u);
  EXPECT_GT(total.refines, total.corridor_rejects + total.stationary_reuses);
}

TEST(LegRefinerTest, CorridorRejectsOnlyPastTheMargin) {
  // A rectangle near the origin and one far out (the margin scales with
  // the largest coordinate). Rectangle corners are polygon vertices, so a
  // leg through a corner touches the polygon there.
  for (const Polygon& pg :
       {Rect(0, 0, 4, 2), Rect(1e6 + 0.5, -1e6, 1e6 + 64.5, -1e6 + 3.25)}) {
    const LegRefiner refiner({&pg});
    LegScratch scratch;
    for (int corner = 0; corner < 4; ++corner) {
      for (const auto& [margins, ulp] :
           {std::pair{0.0, false}, {0.0, true}, {0.5, false}, {2.0, false}}) {
        const geometry::Segment leg =
            CornerLeg(pg.Bounds(), corner, margins, ulp);
        const std::string tag = pg.Bounds().ToString() + " corner " +
                                std::to_string(corner) + " margins " +
                                std::to_string(margins) +
                                (ulp ? " +1ulp" : "");
        const RefineCounts counts = ExpectMatchesPolygonMajor(
            {pg}, {{TimePoint(10), leg.a}, {TimePoint(20), leg.b}}, refiner,
            &scratch, tag);
        EXPECT_EQ(counts.corridor_rejects, margins > 1.0 ? 1u : 0u) << tag;
        EXPECT_EQ(counts.refines, margins > 1.0 ? 0u : 1u) << tag;
        if (margins == 0.0 && !ulp) {
          // Through the corner: a single touch point.
          ASSERT_EQ(scratch.hit, std::vector<uint32_t>{0}) << tag;
          ASSERT_EQ(scratch.pieces[0].size(), 1u) << tag;
          EXPECT_EQ(scratch.pieces[0][0].begin, scratch.pieces[0][0].end)
              << tag;
        }
      }
    }
  }
}

TEST(LegRefinerTest, StationaryRunsReuseOnlyBitIdenticalPoints) {
  const Polygon sq = Rect(0, 0, 2, 2);
  const Polygon right = Rect(2, 0, 4, 2);
  const LegRefiner refiner({&sq, &right});
  LegScratch scratch;
  // A A A B A A on the shared edge x = 2: the A legs after the first reuse
  // its two hits (both polygons contain the edge point), the B leg and the
  // legs moving between A and B refine exactly.
  const Point a(2, 1);
  const Point b(1, 1);
  const std::vector<TimedPoint> run = {
      {TimePoint(0), a}, {TimePoint(1), a}, {TimePoint(2), a},
      {TimePoint(3), b}, {TimePoint(4), a}, {TimePoint(5), a}};
  const RefineCounts counts =
      ExpectMatchesPolygonMajor({sq, right}, run, refiner, &scratch, "AAABAA");
  // Legs: AA (exact, 2 pairs), AA (reuse, 2), AB (exact, 2: the leg's box
  // touches `right` at x = 2), BA (exact, 2), AA (reuse, 2).
  EXPECT_EQ(counts.stationary_reuses, 4u);
  EXPECT_EQ(counts.refines, 6u);
  EXPECT_EQ(scratch.hit, (std::vector<uint32_t>{0, 1}));

  // +0 and -0 compare equal but differ in bits: each change of sign
  // refines exactly (one candidate, `sq`, on its left edge x = 0).
  const std::vector<TimedPoint> signs = {{TimePoint(0), {0.0, 1.0}},
                                         {TimePoint(1), {-0.0, 1.0}},
                                         {TimePoint(2), {0.0, 1.0}},
                                         {TimePoint(3), {0.0, 1.0}}};
  const RefineCounts zero =
      ExpectMatchesPolygonMajor({sq, right}, signs, refiner, &scratch, "+-0");
  EXPECT_EQ(zero.stationary_reuses, 0u);
  EXPECT_EQ(zero.refines, 3u);
}

TEST(LegRefinerTest, SingleSampleUsesContainment) {
  const Polygon sq = Rect(0, 0, 2, 2);
  const Polygon far = Rect(5, 5, 6, 6);
  const LegRefiner refiner({&sq, &far});
  LegScratch scratch;
  const std::vector<double> t = {7.0};
  for (const Point p : {Point(1, 1), Point(2, 1), Point(0, 0)}) {
    const std::vector<double> x = {p.x};
    const std::vector<double> y = {p.y};
    EXPECT_EQ(refiner.Refine(t, x, y, &scratch), 0u);
    ASSERT_EQ(scratch.hit, std::vector<uint32_t>{0});
    ASSERT_EQ(scratch.pieces[0].size(), 1u);
    EXPECT_EQ(scratch.pieces[0][0], Interval(TimePoint(7), TimePoint(7)));
    EXPECT_EQ(scratch.distance[0], 0.0);
  }
  const std::vector<double> x = {3.0};
  const std::vector<double> y = {3.0};
  refiner.Refine(t, x, y, &scratch);
  EXPECT_TRUE(scratch.hit.empty());
  EXPECT_TRUE(scratch.pieces[0].empty());
}

TEST(LegRefinerTest, NonFiniteCoordinatesAreSafe) {
  // Moft::Add refuses these; the kernel must still not hit undefined
  // behavior (the grid's cell cast) if handed them directly.
  const Polygon sq = Rect(0, 0, 2, 2);
  const LegRefiner refiner({&sq});
  LegScratch scratch;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> t = {0, 1, 2, 3};
  const std::vector<double> x = {nan, 1, inf, -inf};
  const std::vector<double> y = {1, nan, 1, 1e308};
  refiner.Refine(t, x, y, &scratch);
  const std::vector<double> t1 = {0};
  const std::vector<double> x1 = {nan};
  const std::vector<double> y1 = {inf};
  refiner.Refine(t1, x1, y1, &scratch);
  EXPECT_TRUE(scratch.hit.empty());
}

// ---------------------------------------------------------------------------
// Operator-level oracle

using core::GeometryPredicate;
using core::QueryEngine;
using core::TimePredicate;
using moving::BlockOptions;
using moving::Moft;
using moving::MoftColumns;
using moving::ObjectId;
using moving::Sample;
using olap::FactTable;
using olap::Row;
using workload::City;

enum class Tier { kRaw, kCompressed };

/// The city's trajectories plus a single-sample and a stationary object,
/// packed as one raw sealed table or as small compressed blocks with the
/// hot tier released.
Moft Pack(const Moft& base, Tier tier) {
  BlockOptions opts;
  if (tier == Tier::kCompressed) {
    opts.block_rows = 256;
    opts.compress = true;
  }
  Moft out;
  out.SetBlockOptions(opts);
  const MoftColumns& cols = base.Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    const Sample s = cols.at(i);
    EXPECT_TRUE(out.Add(s.oid, s.t, s.pos).ok());
  }
  EXPECT_TRUE(out.Add(900001, TimePoint(1200.0), {850.0, 850.0}).ok());
  for (double t : {0.0, 600.0, 1800.0, 3000.0}) {
    EXPECT_TRUE(out.Add(900002, TimePoint(t), {450.0, 1250.0}).ok());
  }
  (void)out.Columns();
  if (tier == Tier::kCompressed) {
    out.ReleaseHot();
  }
  return out;
}

std::shared_ptr<City> MakeCity(int threads, Tier tier) {
  workload::CityConfig config;
  config.seed = 1617;
  config.grid_cols = 16;
  config.grid_rows = 16;
  config.nonconvex_fraction = 0.4;
  config.low_income_fraction = 0.35;
  auto city = std::make_shared<City>(
      std::move(workload::GenerateCity(config)).ValueOrDie());
  city->db->set_num_threads(threads);
  workload::TrajectoryConfig traj;
  traj.seed = 99;
  traj.num_objects = 24;
  traj.duration = 3600.0;
  traj.sample_period = 40.0;
  traj.speed = 14.0;
  Moft base = workload::GenerateTrajectories(*city, traj).ValueOrDie();
  EXPECT_TRUE(city->db->AddMoft("cars", Pack(base, tier)).ok());
  return city;
}

/// Polygon-major reference over the public per-polygon kernels.
class Reference {
 public:
  Reference(const City& city, const std::vector<gis::GeometryId>& ids)
      : city_(city), ids_(ids) {
    const gis::Layer* layer =
        city.db->gis().GetLayer(city.neighborhoods_layer).ValueOrDie();
    for (gis::GeometryId id : ids) {
      polys_.push_back(layer->GetPolygon(id).ValueOrDie());
    }
    const Moft* moft = city.db->GetMoft("cars").ValueOrDie();
    for (ObjectId oid : moft->ObjectIds()) {
      objects_.emplace_back(
          oid, LinearTrajectory::FromSample(
                   TrajectorySample::FromMoft(*moft, oid).ValueOrDie())
                   .ValueOrDie());
    }
  }

  IntervalSet TimeOk(const TimePredicate& when,
                     const LinearTrajectory& traj) const {
    if (when.unconstrained()) {
      return IntervalSet({traj.TimeDomain()});
    }
    return when.MatchingIntervals(city_.db->time_dimension(),
                                  traj.TimeDomain())
        .ValueOrDie();
  }

  std::vector<Row> TrajectoryRegion(const TimePredicate& when) const {
    std::vector<Row> rows;
    for (const auto& [oid, traj] : objects_) {
      const IntervalSet time_ok = TimeOk(when, traj);
      for (size_t q = 0; q < polys_.size(); ++q) {
        const IntervalSet matched =
            moving::InsideIntervals(traj, *polys_[q]).Intersect(time_ok);
        for (const Interval& iv : matched.intervals()) {
          rows.push_back({Value(oid), Value(ids_[q]), Value(iv.begin.seconds),
                          Value(iv.end.seconds)});
        }
      }
    }
    return rows;
  }

  std::vector<Row> TrajectoryAggregates() const {
    std::vector<Row> rows;
    for (const auto& [oid, traj] : objects_) {
      for (size_t q = 0; q < polys_.size(); ++q) {
        const IntervalSet inside = moving::InsideIntervals(traj, *polys_[q]);
        if (inside.empty()) {
          continue;
        }
        rows.push_back(
            {Value(oid), Value(ids_[q]),
             Value(moving::DistanceTravelledInside(traj, *polys_[q])),
             Value(inside.TotalLength()),
             Value(static_cast<int64_t>(inside.size()))});
      }
    }
    return rows;
  }

  std::vector<ObjectId> AlwaysWithin(const TimePredicate& when) const {
    std::vector<ObjectId> out;
    for (const auto& [oid, traj] : objects_) {
      const IntervalSet required = TimeOk(when, traj);
      if (required.empty()) {
        continue;
      }
      IntervalSet inside_union;
      for (const Polygon* pg : polys_) {
        inside_union = inside_union.Union(moving::InsideIntervals(traj, *pg));
      }
      const IntervalSet covered = required.Intersect(inside_union);
      if (covered.TotalLength() >= required.TotalLength() - 1e-9 &&
          covered.size() == required.size()) {
        out.push_back(oid);
      }
    }
    return out;
  }

  /// PASSES THROUGH tuples: (oid, entry time) per maximal inside interval.
  std::vector<std::pair<ObjectId, double>> PassesThrough(
      const TimePredicate& when) const {
    std::vector<std::pair<ObjectId, double>> tuples;
    for (const auto& [oid, traj] : objects_) {
      const IntervalSet time_ok = TimeOk(when, traj);
      for (const Polygon* pg : polys_) {
        const IntervalSet matched =
            moving::InsideIntervals(traj, *pg).Intersect(time_ok);
        for (const Interval& iv : matched.intervals()) {
          tuples.emplace_back(oid, iv.begin.seconds);
        }
      }
    }
    return tuples;
  }

  /// SnapshotInRegion: each object's whole-history LIT position at t,
  /// tested against every polygon.
  std::vector<Row> Snapshot(TimePoint t) const {
    std::vector<Row> rows;
    for (const auto& [oid, traj] : objects_) {
      const std::optional<Point> pos = traj.PositionAt(t);
      if (!pos) {
        continue;
      }
      for (size_t q = 0; q < polys_.size(); ++q) {
        if (polys_[q]->Contains(*pos)) {
          rows.push_back(
              {Value(oid), Value(pos->x), Value(pos->y), Value(ids_[q])});
        }
      }
    }
    return rows;
  }

  /// TrajectoryNearNodes, sorted: WithinDistanceIntervals over each
  /// object's whole history, intersected with time_ok, for every node.
  std::vector<Row> NearNodes(const gis::Layer& nodes, double radius,
                             const TimePredicate& when) const {
    std::vector<Row> rows;
    for (const auto& [oid, traj] : objects_) {
      const IntervalSet time_ok = TimeOk(when, traj);
      for (const gis::GeometryId id : nodes.ids()) {
        const IntervalSet matched =
            moving::WithinDistanceIntervals(
                traj, nodes.GetPoint(id).ValueOrDie(), radius)
                .Intersect(time_ok);
        for (const Interval& iv : matched.intervals()) {
          rows.push_back({Value(oid), Value(id), Value(iv.begin.seconds),
                          Value(iv.end.seconds)});
        }
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

 private:
  const City& city_;
  std::vector<gis::GeometryId> ids_;
  std::vector<const Polygon*> polys_;
  std::vector<std::pair<ObjectId, LinearTrajectory>> objects_;
};

void ExpectRows(const Result<FactTable>& got, const std::vector<Row>& want,
                const std::string& what) {
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().rows(), want) << what;
}

TimePredicate Win(double t0, double t1) {
  return TimePredicate().Window(Interval(TimePoint(t0), TimePoint(t1)));
}

struct NamedWhen {
  std::string name;
  TimePredicate when;
};

/// The time predicates the LIT operators are checked under. City samples
/// fall every 40 s over [0, 3600]; object 900001 has one sample at 1200
/// and the stationary 900002 samples at 0, 600, 1800 and 3000.
std::vector<NamedWhen> Whens() {
  return {
      {"any", TimePredicate()},
      {"window", Win(700.0, 2500.0)},
      {"ends on sample times", Win(800.0, 2400.0)},
      {"point on a sample time", Win(600.0, 600.0)},
      {"point between samples", Win(620.0, 620.0)},
      {"before every history", Win(-500.0, -1.0)},
      {"after 900001 and 900002", Win(3100.0, 3600.0)},
      {"the single sample's instant", Win(1200.0, 1200.0)},
      {"window and hour", Win(1000.0, 3600.0).RollupEquals("hour", Value(0))},
      {"window and the next hour's instant",
       Win(2000.0, 3600.0).RollupEquals("hour", Value(1))},
  };
}

/// The low-income neighborhoods of `city`, ascending.
std::vector<gis::GeometryId> LowIncomeIds(const City& city) {
  return QueryEngine(city.db.get())
      .QualifyingGeometries(city.neighborhoods_layer,
                            GeometryPredicate::AttributeLess("income", 1500.0))
      .ValueOrDie();
}

std::string PassesThroughCount(const TimePredicate& when) {
  std::ostringstream q;
  q << "SELECT layer.neighborhoods; FROM SimCity; "
       "WHERE ATTR(layer.neighborhoods, income) < 1500; "
       "| SELECT COUNT(*) FROM cars WHERE PASSES THROUGH RESULT";
  if (when.window()) {
    q << " AND T BETWEEN " << when.window()->begin.seconds << " AND "
      << when.window()->end.seconds;
  }
  return q.str();
}

TEST(LegRefineOracleTest, LitOperatorsMatchPolygonMajorReference) {
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  const TimePredicate any;
  const TimePredicate window = Win(700.0, 2500.0);
  const std::string kPasses =
      "SELECT layer.neighborhoods; FROM SimCity; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500; "
      "| SELECT COUNT(*) FROM cars WHERE PASSES THROUGH RESULT";
  const std::string kPassesDistinct =
      "SELECT layer.neighborhoods; FROM SimCity; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500; "
      "| SELECT COUNT(DISTINCT OID) FROM cars WHERE PASSES THROUGH RESULT";
  const std::string kPassesHourly =
      "SELECT layer.neighborhoods; FROM SimCity; "
      "WHERE ATTR(layer.neighborhoods, income) < 1500; "
      "| SELECT RATE PER HOUR FROM cars WHERE PASSES THROUGH RESULT "
      "AND T BETWEEN 700 AND 2500";

  // Expected answers, computed once from the reference over a raw serial
  // copy of the city (the geometric part is not under test here).
  std::shared_ptr<City> ref_city = MakeCity(1, Tier::kRaw);
  const std::vector<gis::GeometryId> ids = LowIncomeIds(*ref_city);
  ASSERT_GT(ids.size(), 10u);
  const Reference ref(*ref_city, ids);
  const std::vector<NamedWhen> whens = Whens();
  std::vector<std::vector<Row>> want_region;
  std::vector<std::vector<ObjectId>> want_always;
  std::vector<size_t> want_passes;
  for (const NamedWhen& w : whens) {
    want_region.push_back(ref.TrajectoryRegion(w.when));
    want_always.push_back(ref.AlwaysWithin(w.when));
    want_passes.push_back(ref.PassesThrough(w.when).size());
  }
  const std::vector<Row> want_aggregates = ref.TrajectoryAggregates();
  ASSERT_FALSE(want_region[1].empty());
  ASSERT_FALSE(want_always[0].empty());

  const auto tuples = ref.PassesThrough(any);
  std::set<ObjectId> oids;
  for (const auto& tp : tuples) {
    oids.insert(tp.first);
  }
  std::set<std::pair<ObjectId, double>> pairs;
  std::set<double> hours;
  for (const auto& [oid, t] : ref.PassesThrough(window)) {
    const double bucket = temporal::StartOfHour(TimePoint(t)).seconds;
    pairs.emplace(oid, bucket);
    hours.insert(bucket);
  }
  ASSERT_FALSE(hours.empty());
  std::vector<gis::GeometryId> want_ids = ids;
  std::sort(want_ids.begin(), want_ids.end());

  for (Tier tier : {Tier::kRaw, Tier::kCompressed}) {
    for (int threads : {1, 4}) {
      const std::string tag =
          std::string(tier == Tier::kRaw ? "raw" : "compressed") + "/t" +
          std::to_string(threads);
      std::shared_ptr<City> city = MakeCity(threads, tier);
      QueryEngine engine(city->db.get());
      engine.set_num_threads(threads);
      core::pietql::Evaluator eval(city->db.get());
      eval.set_num_threads(threads);
      size_t region_legs_any = 0;
      size_t always_legs_any = 0;
      for (size_t w = 0; w < whens.size(); ++w) {
        const TimePredicate& when = whens[w].when;
        const std::string wtag = tag + " [" + whens[w].name + "]";
        ExpectRows(engine.TrajectoryRegion("cars", city->neighborhoods_layer,
                                           low, when),
                   want_region[w], wtag + " TrajectoryRegion");
        if (!want_region[w].empty()) {
          EXPECT_GT(engine.stats().leg_refines, 0u) << wtag;
          EXPECT_LT(engine.stats().leg_refines,
                    engine.stats().legs_tested * ids.size())
              << wtag;
        }
        // The clip: a window refines strictly fewer legs than the whole
        // histories.
        if (w == 0) {
          region_legs_any = engine.stats().legs_tested;
        } else {
          EXPECT_LT(engine.stats().legs_tested, region_legs_any)
              << wtag << " TrajectoryRegion legs_tested";
        }

        Result<std::vector<ObjectId>> always = engine.ObjectsAlwaysWithin(
            "cars", city->neighborhoods_layer, low, when, true);
        ASSERT_TRUE(always.ok()) << wtag;
        EXPECT_EQ(always.ValueOrDie(), want_always[w])
            << wtag << " ObjectsAlwaysWithin";
        if (w == 0) {
          always_legs_any = engine.stats().legs_tested;
        } else {
          EXPECT_LT(engine.stats().legs_tested, always_legs_any)
              << wtag << " ObjectsAlwaysWithin legs_tested";
        }

        if (when.unconstrained() || when.window_only()) {
          auto passes = eval.EvaluateString(PassesThroughCount(when));
          ASSERT_TRUE(passes.ok()) << wtag << ": "
                                   << passes.status().ToString();
          EXPECT_EQ(*passes.ValueOrDie().scalar,
                    Value(static_cast<int64_t>(want_passes[w])))
              << wtag << " PASSES THROUGH count";
        }
      }
      ExpectRows(engine.TrajectoryAggregates("cars",
                                             city->neighborhoods_layer, low),
                 want_aggregates, tag + " TrajectoryAggregates");

      auto count = eval.EvaluateString(kPasses);
      ASSERT_TRUE(count.ok()) << tag << ": " << count.status().ToString();
      std::vector<gis::GeometryId> got_ids = count.ValueOrDie().geometry_ids;
      std::sort(got_ids.begin(), got_ids.end());
      EXPECT_EQ(got_ids, want_ids) << tag;
      EXPECT_EQ(*count.ValueOrDie().scalar,
                Value(static_cast<int64_t>(tuples.size())))
          << tag << " PASSES THROUGH count";
      auto distinct = eval.EvaluateString(kPassesDistinct);
      ASSERT_TRUE(distinct.ok()) << tag;
      EXPECT_EQ(*distinct.ValueOrDie().scalar,
                Value(static_cast<int64_t>(oids.size())))
          << tag << " PASSES THROUGH distinct";
      auto hourly = eval.EvaluateString(kPassesHourly);
      ASSERT_TRUE(hourly.ok()) << tag << ": " << hourly.status().ToString();
      EXPECT_EQ(*hourly.ValueOrDie().scalar,
                Value(static_cast<double>(pairs.size()) /
                      static_cast<double>(hours.size())))
          << tag << " PASSES THROUGH rate";
    }
  }
}

// SnapshotInRegion and TrajectoryNearNodes do not refine through the
// LegRefiner; both are checked against the LIT of each object's whole
// history.
TEST(LegRefineOracleTest, SnapshotAndNearNodesMatchWholeHistoryReference) {
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  const double kRadius = 150.0;
  std::shared_ptr<City> ref_city = MakeCity(1, Tier::kRaw);
  const Reference ref(*ref_city, LowIncomeIds(*ref_city));
  const gis::Layer* stops =
      ref_city->db->gis().GetLayer(ref_city->stops_layer).ValueOrDie();
  const std::vector<double> instants = {-10.0,  0.0,    600.0, 620.0, 1200.0,
                                        2999.5, 3000.0, 3600.0, 3700.0};
  std::vector<std::vector<Row>> want_snapshot;
  for (double t : instants) {
    want_snapshot.push_back(ref.Snapshot(TimePoint(t)));
  }
  ASSERT_FALSE(want_snapshot[2].empty());
  const std::vector<NamedWhen> whens = Whens();
  std::vector<std::vector<Row>> want_near;
  for (const NamedWhen& w : whens) {
    want_near.push_back(ref.NearNodes(*stops, kRadius, w.when));
  }
  ASSERT_FALSE(want_near[0].empty());
  ASSERT_FALSE(want_near[1].empty());

  for (Tier tier : {Tier::kRaw, Tier::kCompressed}) {
    for (int threads : {1, 4}) {
      const std::string tag =
          std::string(tier == Tier::kRaw ? "raw" : "compressed") + "/t" +
          std::to_string(threads);
      std::shared_ptr<City> city = MakeCity(threads, tier);
      QueryEngine engine(city->db.get());
      engine.set_num_threads(threads);
      for (size_t i = 0; i < instants.size(); ++i) {
        ExpectRows(engine.SnapshotInRegion("cars", city->neighborhoods_layer,
                                           low, TimePoint(instants[i])),
                   want_snapshot[i],
                   tag + " SnapshotInRegion at " +
                       std::to_string(instants[i]));
      }
      size_t legs_any = 0;
      for (size_t w = 0; w < whens.size(); ++w) {
        const std::string wtag = tag + " [" + whens[w].name + "]";
        Result<FactTable> got = engine.TrajectoryNearNodes(
            "cars", city->stops_layer, kRadius, whens[w].when);
        ASSERT_TRUE(got.ok()) << wtag << ": " << got.status().ToString();
        std::vector<Row> rows = got.ValueOrDie().rows();
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(rows, want_near[w]) << wtag << " TrajectoryNearNodes";
        if (w == 0) {
          legs_any = engine.stats().legs_tested;
        } else {
          EXPECT_LT(engine.stats().legs_tested, legs_any) << wtag;
        }
      }
    }
  }
}

// MatchingIntervals keeps matches of measure zero: a point window, and a
// window that only touches an object's first or last instant. The
// trajectory operators must then agree with sample semantics and with
// SnapshotInRegion at that instant.
TEST(LegRefineOracleTest, ZeroMeasureWindowsAgreeWithSamplesAndSnapshot) {
  const GeometryPredicate low =
      GeometryPredicate::AttributeLess("income", 1500.0);
  std::shared_ptr<City> city = MakeCity(1, Tier::kRaw);
  QueryEngine engine(city->db.get());
  const std::string& layer = city->neighborhoods_layer;

  // Point windows: TrajectoryRegion is the snapshot, as [t, t] rows.
  for (double t : {600.0, 620.0, 1200.0, 3000.0}) {
    const std::string tag = "t=" + std::to_string(t);
    const FactTable region =
        engine.TrajectoryRegion("cars", layer, low, Win(t, t)).ValueOrDie();
    const FactTable snap =
        engine.SnapshotInRegion("cars", layer, low, TimePoint(t)).ValueOrDie();
    std::vector<std::pair<Value, Value>> got;
    for (const Row& row : region.rows()) {
      EXPECT_EQ(row[2], Value(t)) << tag;
      EXPECT_EQ(row[3], Value(t)) << tag;
      got.emplace_back(row[0], row[1]);
    }
    std::vector<std::pair<Value, Value>> want;
    for (const Row& row : snap.rows()) {
      want.emplace_back(row[0], row[3]);
    }
    EXPECT_EQ(got, want) << tag;
    if (t == 600.0) {
      EXPECT_FALSE(got.empty()) << tag;
    }
  }

  // Every (object, polygon, t) sample-semantics match lies in one of the
  // trajectory's inside intervals, also where the window only touches the
  // object's last sample (900002 at 3000) or its single one (900001).
  for (const TimePredicate& when :
       {Win(600.0, 600.0), Win(1200.0, 1200.0), Win(3000.0, 3100.0),
        Win(-100.0, 0.0)}) {
    const std::string tag = "window [" +
                            std::to_string(when.window()->begin.seconds) +
                            ", " +
                            std::to_string(when.window()->end.seconds) + "]";
    const FactTable samples =
        engine.SampleRegion("cars", layer, low, when, core::Strategy::kNaive)
            .ValueOrDie();
    const FactTable region =
        engine.TrajectoryRegion("cars", layer, low, when).ValueOrDie();
    ASSERT_FALSE(samples.rows().empty()) << tag;
    for (const Row& s : samples.rows()) {
      const bool covered = std::any_of(
          region.rows().begin(), region.rows().end(), [&](const Row& r) {
            return r[0] == s[0] && r[1] == s[2] && !(s[1] < r[2]) &&
                   !(r[3] < s[1]);
          });
      EXPECT_TRUE(covered) << tag << ": object " << s[0].ToString()
                           << " at " << s[1].ToString();
    }
  }

  // The stationary object whose last sample is the window's only instant
  // stays inside its polygon there, under both semantics.
  const TimePredicate touch = Win(3000.0, 3100.0);
  for (bool trajectory : {false, true}) {
    const std::vector<ObjectId> always =
        engine.ObjectsAlwaysWithin("cars", layer, low, touch, trajectory)
            .ValueOrDie();
    EXPECT_TRUE(std::find(always.begin(), always.end(), 900002) !=
                always.end())
        << (trajectory ? "trajectory" : "sample") << " semantics";
  }
}

// Non-vacuity on real movement: over a seeded random-waypoint city (plus
// the stationary object Pack adds), both shortcuts fire, and every object
// still matches the polygon-major reference bit for bit.
TEST(LegRefineOracleTest, ShortcutsFireOnARandomWaypointCity) {
  std::shared_ptr<City> city = MakeCity(1, Tier::kRaw);
  const gis::Layer* layer =
      city->db->gis().GetLayer(city->neighborhoods_layer).ValueOrDie();
  std::vector<Polygon> polys;
  for (gis::GeometryId id : layer->ids()) {
    polys.push_back(*layer->GetPolygon(id).ValueOrDie());
  }
  std::vector<const Polygon*> ptrs;
  for (const Polygon& p : polys) {
    ptrs.push_back(&p);
  }
  const LegRefiner refiner(ptrs);
  LegScratch scratch;
  const Moft* moft = city->db->GetMoft("cars").ValueOrDie();
  RefineCounts total;
  for (ObjectId oid : moft->ObjectIds()) {
    const TrajectorySample sample =
        TrajectorySample::FromMoft(*moft, oid).ValueOrDie();
    total.Add(ExpectMatchesPolygonMajor(polys, sample.points(), refiner,
                                        &scratch,
                                        "object " + std::to_string(oid)));
  }
  EXPECT_GT(total.refines, 0u);
  EXPECT_GT(total.corridor_rejects, 0u);
  EXPECT_GT(total.stationary_reuses, 0u);
}

}  // namespace
}  // namespace piet
