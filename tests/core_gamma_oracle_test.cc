// Oracle for γ (src/core/gamma.h): every COUNT(*), COUNT(DISTINCT OID)
// and RATE PER HOUR answer of the Piet-QL evaluator, scalar and grouped,
// against the tuple-set aggregation the evaluator ran before γ had a
// partial state. The reference materializes region C as (Oid, t) tuples
// through the QueryEngine front end on a raw, overlay-free, serial copy
// of the city, then reduces each group with std::sets. The queries are
// the era city's 48 generated queries, each under all three aggregates,
// evaluated with the overlay on and off, the aggregate cache on and off,
// 1 and 4 threads, over raw and compressed 64-row blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/pietql/evaluator.h"
#include "core/pietql/parser.h"
#include "era_city.h"
#include "temporal/calendar.h"

namespace piet {
namespace {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using core::aggcache::AggCacheMode;
using core::pietql::MoAggregate;
using core::pietql::MoCondition;
using core::pietql::MoQuery;
using core::pietql::QueryResult;
using gis::GeometryId;
using moving::ObjectId;
using olap::FactTable;
using olap::Row;
using temporal::TimePoint;
using Tuple = std::pair<ObjectId, double>;

/// Samples every 25 s: a minute holds two or three samples of one car, so
/// sub-hour groups repeat (Oid, hour) pairs across their granules.
constexpr double kSamplePeriod = 25.0;

struct OracleParam {
  bool overlay;
  bool agg_cache;
  int threads;
  bool compressed;  ///< 64-row compressed blocks, released to cold.
};

std::string Name(const OracleParam& p) {
  std::string name = p.overlay ? "overlay" : "nooverlay";
  name += p.agg_cache ? "_cache" : "_nocache";
  name += p.threads == 1 ? "_t1" : "_t4";
  name += p.compressed ? "_compressed64" : "_raw";
  return name;
}

/// Keeps test names free of the struct's padding bytes.
void PrintTo(const OracleParam& p, std::ostream* os) { *os << Name(p); }

std::unique_ptr<core::GeoOlapDatabase> MakeCity(const OracleParam& p) {
  moving::BlockOptions opts;
  if (p.compressed) {
    opts.block_rows = 64;
    opts.compress = true;
  }
  std::unique_ptr<core::GeoOlapDatabase> db =
      test_support::MakeEraCity(opts, p.overlay, kSamplePeriod);
  if (p.compressed) {
    db->GetMoft("cars").ValueOrDie()->ReleaseHot();
  }
  return db;
}

/// The generated queries, each under all three aggregates.
std::vector<std::string> Queries() {
  std::vector<std::string> out;
  for (const std::string& q : test_support::MakeEraQueries(7)) {
    const size_t agg = q.find("| SELECT ") + 9;
    const size_t from = q.find(" FROM cars");
    for (const char* f :
         {"COUNT(*)", "COUNT(DISTINCT OID)", "RATE PER HOUR"}) {
      out.push_back(q.substr(0, agg) + f + q.substr(from));
    }
  }
  return out;
}

/// Region C as the evaluator's tuples: one (Oid, t) per matching sample
/// (INSIDE RESULT, NEAR, time only), or one per maximal inside interval
/// stamped at its entry (PASSES THROUGH).
Result<std::vector<Tuple>> RegionC(const QueryEngine& engine,
                                   const MoQuery& mo,
                                   const std::string& layer,
                                   std::vector<GeometryId> ids) {
  TimePredicate when;
  bool inside = false;
  bool passes = false;
  const MoCondition* near = nullptr;
  for (const MoCondition& cond : mo.where) {
    switch (cond.kind) {
      case MoCondition::Kind::kInsideResult:
        inside = true;
        break;
      case MoCondition::Kind::kPassesThroughResult:
        passes = true;
        break;
      case MoCondition::Kind::kTimeEquals:
        when.RollupEquals(cond.time_level, cond.literal);
        break;
      case MoCondition::Kind::kTimeBetween:
        when.Window(
            temporal::Interval(TimePoint(cond.t0), TimePoint(cond.t1)));
        break;
      case MoCondition::Kind::kNearLayer:
        near = &cond;
        break;
    }
  }
  std::sort(ids.begin(), ids.end());
  const GeometryPredicate pred(
      [ids](const gis::Layer&, GeometryId id) {
        return std::binary_search(ids.begin(), ids.end(), id);
      });
  std::vector<Tuple> tuples;
  if (passes) {
    PIET_ASSIGN_OR_RETURN(const FactTable stays,
                          engine.TrajectoryRegion(mo.moft, layer, pred, when));
    for (const Row& r : stays.rows()) {
      tuples.emplace_back(r[0].AsIntUnchecked(), r[2].AsDoubleUnchecked());
    }
    return tuples;
  }
  FactTable rows;
  if (inside) {
    PIET_ASSIGN_OR_RETURN(rows, engine.SampleRegion(mo.moft, layer, pred,
                                                    when, Strategy::kNaive));
  } else if (near != nullptr) {
    PIET_ASSIGN_OR_RETURN(rows, engine.SamplesNearNodes(mo.moft,
                                                        near->near_layer,
                                                        near->radius, when));
  } else {
    PIET_ASSIGN_OR_RETURN(rows, engine.SamplesMatchingTime(mo.moft, when));
  }
  for (const Row& r : rows.rows()) {
    tuples.emplace_back(r[0].AsIntUnchecked(), r[1].AsDoubleUnchecked());
  }
  // One tuple per sample, however many polygons or nodes it met.
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

/// The evaluator's tuple-set γ before the partial state: one std::set
/// insert per tuple.
Value AggregateTuples(MoAggregate::Kind kind, const std::vector<Tuple>& rows) {
  switch (kind) {
    case MoAggregate::Kind::kCountAll:
      return Value(static_cast<int64_t>(rows.size()));
    case MoAggregate::Kind::kCountDistinctOid: {
      std::set<ObjectId> oids;
      for (const auto& [oid, t] : rows) {
        oids.insert(oid);
      }
      return Value(static_cast<int64_t>(oids.size()));
    }
    case MoAggregate::Kind::kRatePerHour: {
      std::set<std::pair<ObjectId, double>> pairs;
      std::set<double> hours;
      for (const auto& [oid, t] : rows) {
        const double bucket = temporal::StartOfHour(TimePoint(t)).seconds;
        pairs.emplace(oid, bucket);
        hours.insert(bucket);
      }
      if (hours.empty()) {
        return Value(0.0);
      }
      return Value(static_cast<double>(pairs.size()) /
                   static_cast<double>(hours.size()));
    }
  }
  return Value();
}

/// The reference answer rows: the scalar, or one (member, value) row per
/// group of the rollup of t, in Value order.
Result<std::vector<Row>> Reference(const MoQuery& mo,
                                   const std::vector<Tuple>& tuples,
                                   const temporal::TimeDimension& dim) {
  if (!mo.group_by_level) {
    return std::vector<Row>{{AggregateTuples(mo.agg.kind, tuples)}};
  }
  std::map<Value, std::vector<Tuple>> groups;
  for (const Tuple& tuple : tuples) {
    PIET_ASSIGN_OR_RETURN(
        Value key, dim.Rollup(*mo.group_by_level, TimePoint(tuple.second)));
    groups[key].push_back(tuple);
  }
  std::vector<Row> out;
  for (const auto& [key, rows] : groups) {
    out.push_back({key, AggregateTuples(mo.agg.kind, rows)});
  }
  return out;
}

std::vector<Row> Answer(const QueryResult& result) {
  if (result.scalar) {
    return {{*result.scalar}};
  }
  return result.table ? result.table->rows() : std::vector<Row>{};
}

std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += v.is_double() ? "d " : " ";
    }
    out += "; ";
  }
  return out;
}

/// Same values, of the same type (an int count never equals a double).
bool Identical(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].type() != b[i][j].type() || a[i][j] != b[i][j]) {
        return false;
      }
    }
  }
  return true;
}

class GammaOracleTest : public ::testing::TestWithParam<OracleParam> {};

TEST_P(GammaOracleTest, EveryAnswerMatchesTheTupleSetReduction) {
  const OracleParam p = GetParam();
  const std::unique_ptr<core::GeoOlapDatabase> ref_db =
      MakeCity({false, false, 1, false});
  QueryEngine ref_engine(ref_db.get());
  ref_engine.set_num_threads(1);
  const std::unique_ptr<core::GeoOlapDatabase> db = MakeCity(p);
  core::pietql::Evaluator eval(db.get());
  eval.set_num_threads(p.threads);
  eval.set_agg_cache_mode(p.agg_cache ? AggCacheMode::kOn
                                      : AggCacheMode::kOff);

  // Where a wrong granule rule would show: sub-hour rate groups holding
  // an Oid in two granules of one hour.
  size_t sub_hour_rate_groups = 0;
  for (const std::string& q : Queries()) {
    SCOPED_TRACE(q);
    auto parsed = core::pietql::Parse(q);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const MoQuery& mo = *parsed.ValueOrDie().mo;
    auto got = eval.EvaluateString(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // The geometric part is not under test; its ids bound region C.
    auto tuples = RegionC(ref_engine, mo, got.ValueOrDie().result_layer,
                          got.ValueOrDie().geometry_ids);
    ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
    auto want = Reference(mo, tuples.ValueOrDie(), db->time_dimension());
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const std::vector<Row> answer = Answer(got.ValueOrDie());
    EXPECT_TRUE(Identical(answer, want.ValueOrDie()))
        << "got  " << Render(answer) << "\nwant " << Render(want.ValueOrDie());
    if (mo.agg.kind == MoAggregate::Kind::kRatePerHour && mo.group_by_level &&
        (*mo.group_by_level == "minute" || *mo.group_by_level == "timeId")) {
      sub_hour_rate_groups += want.ValueOrDie().size();
    }
  }
  EXPECT_GT(sub_hour_rate_groups, 0u);
}

std::vector<OracleParam> Params() {
  std::vector<OracleParam> out;
  for (const bool overlay : {false, true}) {
    for (const bool agg_cache : {false, true}) {
      for (const int threads : {1, 4}) {
        for (const bool compressed : {false, true}) {
          out.push_back({overlay, agg_cache, threads, compressed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, GammaOracleTest, ::testing::ValuesIn(Params()),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      return Name(info.param);
    });

}  // namespace
}  // namespace piet
