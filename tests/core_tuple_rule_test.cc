// Pins the tuple rule of the γ-state operators (DESIGN.md §8.1): region C
// is a set of (Oid, t) tuples (Def. 7), so a Piet-QL aggregate folds one
// tuple per matching sample, however many wanted polygons or nodes the
// sample hits, and PASSES THROUGH one tuple per maximal inside interval of
// each wanted polygon. The engine's row operators keep one row per hit.
// Each case runs with and without the overlay, at 1 and 4 threads, over
// hot and compressed 64-row blocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "workload/scenario.h"

namespace piet::core {
namespace {

using geometry::Point;
using moving::Moft;
using temporal::TimePoint;

/// The probe object's oid; fillers take 0..kFillers-1, so the probe sits
/// in the last block.
constexpr moving::ObjectId kProbe = 1000;
constexpr int kFillers = 30;

// Figure 1's grid (workload/scenario.cc): N1 = [40,80]x[0,40] and
// N4 = [40,80]x[40,80] share the edge y = 40; schools sit at (20,20),
// (70,25) and (100,60). Income < 2200 wants N1, N3 and N4.
constexpr const char* kWanted =
    "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 2200 ";

/// (overlay, compressed, threads).
using Param = std::tuple<bool, bool, int>;

class TupleRuleTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    auto scenario = workload::BuildFigure1Scenario();
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    scenario_ = std::move(scenario).ValueOrDie();
    // The probe: a sample on the N1/N4 edge; a sample 25.1 from two
    // schools; a leg crossing from N1 into N4 at t = 20.
    AddTable("edge", {{0, Point(60, 40)}, {60, Point(110, 10)}});
    AddTable("near", {{0, Point(45, 22.5)}});
    AddTable("cross", {{0, Point(50, 20)}, {40, Point(50, 60)}});
    if (overlay()) {
      ASSERT_TRUE(scenario_.db->BuildOverlay({"Ln"}).ok());
    }
  }

  bool overlay() const { return std::get<0>(GetParam()); }
  int threads() const { return std::get<2>(GetParam()); }

  /// A table of the probe's `samples` plus fillers that stay inside N2,
  /// farther than 30 from every school, packed into 64-row blocks.
  void AddTable(const std::string& name,
                std::initializer_list<std::pair<double, Point>> samples) {
    moving::BlockOptions opts;
    opts.block_rows = 64;
    opts.compress = std::get<1>(GetParam());
    Moft moft;
    moft.SetBlockOptions(opts);
    for (int k = 0; k < kFillers; ++k) {
      for (int j = 0; j < 5; ++j) {
        ASSERT_TRUE(moft.Add(k, TimePoint(100.0 * j),
                             Point(101 + 0.5 * k, 5 + 4 * j))
                        .ok());
      }
    }
    for (const auto& [t, pos] : samples) {
      ASSERT_TRUE(moft.Add(kProbe, TimePoint(t), pos).ok());
    }
    ASSERT_TRUE(scenario_.db->AddMoft(name, std::move(moft)).ok());
  }

  int64_t Count(const std::string& moft, const std::string& clause) const {
    pietql::Evaluator eval(scenario_.db.get());
    eval.set_num_threads(threads());
    auto result = eval.EvaluateString(std::string(kWanted) +
                                      "| SELECT COUNT(*) FROM " + moft +
                                      " WHERE " + clause);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.ValueOrDie().scalar->AsIntUnchecked() : -1;
  }

  QueryEngine Engine() const {
    QueryEngine engine(scenario_.db.get());
    engine.set_num_threads(threads());
    return engine;
  }

  workload::Figure1Scenario scenario_;
};

GeometryPredicate Wanted() {
  return GeometryPredicate::AttributeLess("income", 2200.0);
}

TEST_P(TupleRuleTest, EdgeSampleCountsOnceInside) {
  EXPECT_EQ(Count("edge", "INSIDE RESULT"), 1);
  const QueryEngine engine = Engine();
  for (Strategy s :
       {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
    if (s == Strategy::kOverlay && !overlay()) {
      continue;
    }
    auto rows = engine.SampleRegion("edge", "Ln", Wanted(), TimePredicate(), s);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows.ValueOrDie().num_rows(), 2u) << StrategyToString(s);
  }
}

TEST_P(TupleRuleTest, SampleNearTwoNodesCountsOnce) {
  EXPECT_EQ(Count("near", "NEAR(layer.Ls, 30)"), 1);
  auto rows = Engine().SamplesNearNodes("near", "Ls", 30.0, TimePredicate());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.ValueOrDie().num_rows(), 2u);
}

TEST_P(TupleRuleTest, CrossingLegCountsOncePerInsideInterval) {
  EXPECT_EQ(Count("cross", "PASSES THROUGH RESULT"), 2);
  auto rows =
      Engine().TrajectoryRegion("cross", "Ln", Wanted(), TimePredicate());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.ValueOrDie().num_rows(), 2u);
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::get<0>(info.param) ? "overlay" : "no_overlay";
  name += std::get<1>(info.param) ? "_compressed" : "_hot";
  name += "_t";
  name += std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(Tiers, TupleRuleTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 4)),
                         ParamName);

}  // namespace
}  // namespace piet::core
