#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "olap/aggregate.h"
#include "olap/cube.h"
#include "olap/dimension.h"
#include "olap/fact_table.h"

namespace piet::olap {
namespace {

DimensionSchema GeoSchema() {
  DimensionSchema schema("Geo", "neighborhood");
  EXPECT_TRUE(schema.AddEdge("neighborhood", "city").ok());
  EXPECT_TRUE(schema.AddEdge("city", "country").ok());
  EXPECT_TRUE(schema.AddEdge("country", DimensionSchema::kAll).ok());
  return schema;
}

TEST(DimensionSchemaTest, Structure) {
  DimensionSchema schema = GeoSchema();
  EXPECT_TRUE(schema.HasLevel("city"));
  EXPECT_FALSE(schema.HasLevel("continent"));
  EXPECT_TRUE(schema.RollsUp("neighborhood", "country"));
  EXPECT_FALSE(schema.RollsUp("country", "neighborhood"));
  EXPECT_TRUE(schema.RollsUp("city", "city"));
  auto path = schema.PathBetween("neighborhood", "country");
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], "neighborhood");
  EXPECT_EQ(path[2], "country");
  EXPECT_TRUE(schema.Validate().ok());
}

TEST(DimensionSchemaTest, RejectsCycles) {
  DimensionSchema schema("D", "a");
  ASSERT_TRUE(schema.AddEdge("a", "b").ok());
  ASSERT_TRUE(schema.AddEdge("b", "c").ok());
  EXPECT_TRUE(schema.AddEdge("c", "a").IsInvalidArgument());
  EXPECT_TRUE(schema.AddEdge("a", "a").IsInvalidArgument());
}

TEST(DimensionSchemaTest, ValidateRequiresPathToAll) {
  DimensionSchema schema("D", "a");
  schema.AddLevel("orphan");
  ASSERT_TRUE(schema.AddEdge("a", DimensionSchema::kAll).ok());
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(DimensionInstanceTest, RollupComposition) {
  DimensionInstance dim(GeoSchema());
  ASSERT_TRUE(dim.AddRollup("neighborhood", Value("Berchem"), "city",
                            Value("Antwerp")).ok());
  ASSERT_TRUE(dim.AddRollup("neighborhood", Value("Wilrijk"), "city",
                            Value("Antwerp")).ok());
  ASSERT_TRUE(dim.AddRollup("city", Value("Antwerp"), "country",
                            Value("Belgium")).ok());
  EXPECT_EQ(dim.RollupValue("neighborhood", Value("Berchem"), "country")
                .ValueOrDie(),
            Value("Belgium"));
  EXPECT_EQ(dim.RollupValue("neighborhood", Value("Berchem"),
                            DimensionSchema::kAll)
                .ValueOrDie(),
            Value("all"));
  auto under =
      dim.MembersUnder("neighborhood", "city", Value("Antwerp")).ValueOrDie();
  EXPECT_EQ(under.size(), 2u);
}

TEST(DimensionInstanceTest, FunctionalRollup) {
  DimensionInstance dim(GeoSchema());
  ASSERT_TRUE(dim.AddRollup("neighborhood", Value("X"), "city",
                            Value("A")).ok());
  EXPECT_TRUE(dim.AddRollup("neighborhood", Value("X"), "city", Value("B"))
                  .IsAlreadyExists());
  // Idempotent re-add is fine.
  EXPECT_TRUE(
      dim.AddRollup("neighborhood", Value("X"), "city", Value("A")).ok());
}

TEST(DimensionInstanceTest, ConsistencyDetectsMissingRollup) {
  DimensionInstance dim(GeoSchema());
  ASSERT_TRUE(dim.AddMember("neighborhood", Value("Orphan")).ok());
  Status s = dim.CheckConsistency();
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(DimensionInstanceTest, ConsistencyAcceptsComplete) {
  DimensionInstance dim(GeoSchema());
  ASSERT_TRUE(dim.AddRollup("neighborhood", Value("B"), "city",
                            Value("A")).ok());
  ASSERT_TRUE(
      dim.AddRollup("city", Value("A"), "country", Value("BE")).ok());
  EXPECT_TRUE(dim.CheckConsistency().ok());
}

TEST(DimensionInstanceTest, MembersKeepInsertionOrderAndDedupe) {
  DimensionInstance dim(GeoSchema());
  for (const Value& v : {Value("c"), Value("a"), Value("c"), Value(2),
                         Value(2.0), Value("b"), Value("a")}) {
    ASSERT_TRUE(dim.AddMember("neighborhood", v).ok());
  }
  // 2 and 2.0 compare equal, so the second is a duplicate.
  EXPECT_EQ(dim.Members("neighborhood").ValueOrDie(),
            (std::vector<Value>{Value("c"), Value("a"), Value(2),
                                Value("b")}));
  EXPECT_TRUE(dim.HasMember("neighborhood", Value(2.0)));
  EXPECT_FALSE(dim.HasMember("neighborhood", Value("d")));
  EXPECT_FALSE(dim.HasMember("city", Value("c")));
}

TEST(DimensionInstanceTest, UnknownLevels) {
  DimensionInstance dim(GeoSchema());
  EXPECT_TRUE(dim.AddMember("bogus", Value(1)).IsNotFound());
  EXPECT_TRUE(dim.Members("bogus").status().IsNotFound());
  EXPECT_TRUE(dim.AddRollup("neighborhood", Value("x"), "country", Value("y"))
                  .IsInvalidArgument());  // No direct edge.
}

FactTable SalesTable() {
  FactTable t = FactTable::Make({"city", "product"}, {"amount"});
  EXPECT_TRUE(t.Append({Value("Antwerp"), Value("beer"), Value(10.0)}).ok());
  EXPECT_TRUE(t.Append({Value("Antwerp"), Value("fries"), Value(5.0)}).ok());
  EXPECT_TRUE(t.Append({Value("Brussels"), Value("beer"), Value(7.0)}).ok());
  EXPECT_TRUE(t.Append({Value("Brussels"), Value("beer"), Value(3.0)}).ok());
  return t;
}

TEST(FactTableTest, SchemaAndAppend) {
  FactTable t = SalesTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_TRUE(t.Append({Value(1)}).IsInvalidArgument());
  EXPECT_EQ(t.At(0, "amount").ValueOrDie(), Value(10.0));
  EXPECT_TRUE(t.At(9, "amount").status().IsOutOfRange());
  EXPECT_TRUE(t.At(0, "bogus").status().IsNotFound());
}

TEST(FactTableTest, FilterProjectDistinct) {
  FactTable t = SalesTable();
  FactTable antwerp = t.Filter(
      [](const Row& r) { return r[0] == Value("Antwerp"); });
  EXPECT_EQ(antwerp.num_rows(), 2u);

  auto projected = t.Project({"city"}).ValueOrDie();
  EXPECT_EQ(projected.num_rows(), 4u);
  auto distinct = t.ProjectDistinct({"city"}).ValueOrDie();
  EXPECT_EQ(distinct.num_rows(), 2u);

  auto values = t.DistinctValues("product").ValueOrDie();
  EXPECT_EQ(values.size(), 2u);
}

TEST(AggregateTest, AllFunctions) {
  FactTable t = SalesTable();
  EXPECT_EQ(AggregateScalar(t, AggFunction::kCount, "amount").ValueOrDie(),
            Value(int64_t{4}));
  EXPECT_EQ(AggregateScalar(t, AggFunction::kSum, "amount").ValueOrDie(),
            Value(25.0));
  EXPECT_EQ(AggregateScalar(t, AggFunction::kAvg, "amount").ValueOrDie(),
            Value(6.25));
  EXPECT_EQ(AggregateScalar(t, AggFunction::kMin, "amount").ValueOrDie(),
            Value(3.0));
  EXPECT_EQ(AggregateScalar(t, AggFunction::kMax, "amount").ValueOrDie(),
            Value(10.0));
  EXPECT_EQ(
      AggregateScalar(t, AggFunction::kCountDistinct, "city").ValueOrDie(),
      Value(int64_t{2}));
}

TEST(AggregateTest, GroupBy) {
  FactTable t = SalesTable();
  auto grouped =
      Aggregate(t, {"city"}, AggFunction::kSum, "amount").ValueOrDie();
  ASSERT_EQ(grouped.num_rows(), 2u);
  // Ordered map => deterministic order (Antwerp < Brussels).
  EXPECT_EQ(grouped.row(0)[0], Value("Antwerp"));
  EXPECT_EQ(grouped.row(0)[1], Value(15.0));
  EXPECT_EQ(grouped.row(1)[1], Value(10.0));
}

TEST(AggregateTest, GroupByTwoKeys) {
  FactTable t = SalesTable();
  auto grouped =
      Aggregate(t, {"city", "product"}, AggFunction::kCount, "amount")
          .ValueOrDie();
  EXPECT_EQ(grouped.num_rows(), 3u);
}

TEST(AggregateTest, EmptyInput) {
  FactTable t = FactTable::Make({"k"}, {"v"});
  EXPECT_EQ(AggregateScalar(t, AggFunction::kCount, "v").ValueOrDie(),
            Value(int64_t{0}));
  EXPECT_TRUE(AggregateScalar(t, AggFunction::kSum, "v").ValueOrDie().is_null());
  auto grouped = Aggregate(t, {"k"}, AggFunction::kSum, "v").ValueOrDie();
  EXPECT_EQ(grouped.num_rows(), 0u);
}

TEST(AggregateTest, TypeErrors) {
  FactTable t = FactTable::Make({"k"}, {"v"});
  ASSERT_TRUE(t.Append({Value("a"), Value("not numeric")}).ok());
  EXPECT_TRUE(
      AggregateScalar(t, AggFunction::kSum, "v").status().IsTypeError());
  EXPECT_TRUE(AggregateScalar(t, AggFunction::kCount, "v").ok());
}

TEST(AggregateTest, ParseNames) {
  EXPECT_EQ(AggFunctionFromString("sum").ValueOrDie(), AggFunction::kSum);
  EXPECT_EQ(AggFunctionFromString("COUNT DISTINCT").ValueOrDie(),
            AggFunction::kCountDistinct);
  EXPECT_TRUE(AggFunctionFromString("median").status().IsParseError());
}

TEST(CubeTest, RollUpAlongHierarchy) {
  auto dim = std::make_shared<DimensionInstance>(GeoSchema());
  ASSERT_TRUE(dim->AddRollup("city", Value("Antwerp"), "country",
                             Value("Belgium")).ok());
  ASSERT_TRUE(dim->AddRollup("city", Value("Brussels"), "country",
                             Value("Belgium")).ok());
  ASSERT_TRUE(dim->AddRollup("country", Value("Belgium"),
                             DimensionSchema::kAll, Value("all")).ok());

  Cube cube(SalesTable(), {{"city", dim, "city"}});
  ASSERT_TRUE(cube.Validate().ok());

  auto rolled =
      cube.RollUp("city", "country", AggFunction::kSum, "amount").ValueOrDie();
  // Grouped by (country, product): Belgium/beer = 20, Belgium/fries = 5.
  ASSERT_EQ(rolled.num_rows(), 2u);
  EXPECT_EQ(rolled.row(0)[0], Value("Belgium"));
}

TEST(CubeTest, ValidateCatchesUnknownMember) {
  auto dim = std::make_shared<DimensionInstance>(GeoSchema());
  ASSERT_TRUE(dim->AddMember("city", Value("Antwerp")).ok());
  Cube cube(SalesTable(), {{"city", dim, "city"}});
  EXPECT_TRUE(cube.Validate().IsInvalidArgument());  // "Brussels" missing.
}

TEST(CubeTest, SliceAndDice) {
  auto dim = std::make_shared<DimensionInstance>(GeoSchema());
  ASSERT_TRUE(dim->AddMember("city", Value("Antwerp")).ok());
  ASSERT_TRUE(dim->AddMember("city", Value("Brussels")).ok());
  Cube cube(SalesTable(), {{"city", dim, "city"}});

  auto sliced = cube.Slice("city", Value("Antwerp")).ValueOrDie();
  EXPECT_EQ(sliced.base().num_rows(), 2u);
  EXPECT_FALSE(sliced.base().HasColumn("city"));
  EXPECT_TRUE(sliced.bindings().empty());

  auto diced = cube.Dice("product", {Value("beer")}).ValueOrDie();
  EXPECT_EQ(diced.base().num_rows(), 3u);
  EXPECT_TRUE(diced.base().HasColumn("city"));
}

}  // namespace
}  // namespace piet::olap
