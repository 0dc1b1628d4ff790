#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/diagnostic.h"

namespace piet::analysis {
namespace {

std::string ReadGolden(const char* name) {
  const std::filesystem::path path =
      std::filesystem::path(PIET_SOURCE_DIR) / "tests" / "golden" / name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The four-finding sample exercises every rendering branch: an error with no
// fix-it, a warning and a note with fix-its, and a finding whose strings need
// JSON escaping (quote, backslash, tab, newline).
DiagnosticList SampleList() {
  DiagnosticList diags;
  diags.AddError(
      "lint-rollup-functional", "rollup line->polyline in layer 'Lr'",
      "fine id 0 maps to 2 coarse ids; rollup must be function-valued");
  diags.AddWarning("lint-dead-clause", "mo WHERE clause 1 (T BETWEEN)",
                   "empty time window: upper bound 50 precedes lower bound 100",
                   "T BETWEEN 50 AND 100");
  diags.AddNote("lint-redundant-clause",
                "geo WHERE clause 2 (ATTR layer.Ln, income)",
                "every element of layer 'Ln' already satisfies this clause",
                "drop this clause");
  diags.AddWarning("check-quote \"escape\"", "entity with\ttab",
                   "message with\nnewline and backslash \\");
  return diags;
}

TEST(DiagnosticGoldenTest, ToStringMatchesGolden) {
  EXPECT_EQ(SampleList().ToString() + "\n", ReadGolden("diagnostics.txt"));
}

TEST(DiagnosticGoldenTest, ToJsonMatchesGolden) {
  EXPECT_EQ(SampleList().ToJson() + "\n", ReadGolden("diagnostics.json"));
}

TEST(DiagnosticGoldenTest, JsonOmitsEmptyFixit) {
  const Diagnostic bare{Severity::kError, "x", "e", "m", ""};
  EXPECT_EQ(bare.ToJson(),
            "{\"severity\":\"error\",\"check_id\":\"x\",\"entity\":\"e\","
            "\"message\":\"m\"}");
  const Diagnostic fixed{Severity::kError, "x", "e", "m", "f"};
  EXPECT_EQ(fixed.ToJson(),
            "{\"severity\":\"error\",\"check_id\":\"x\",\"entity\":\"e\","
            "\"message\":\"m\",\"fixit\":\"f\"}");
}

TEST(DiagnosticDedupeTest, AddDropsExactRepeats) {
  DiagnosticList diags;
  diags.AddWarning("lint-dead-clause", "clause 1", "never matches");
  diags.AddWarning("lint-dead-clause", "clause 1", "never matches");
  EXPECT_EQ(diags.size(), 1u);

  // A different message on the same (check_id, entity) is a new finding.
  diags.AddWarning("lint-dead-clause", "clause 1", "other reason");
  EXPECT_EQ(diags.size(), 2u);
  // So is the same message on a different entity.
  diags.AddWarning("lint-dead-clause", "clause 2", "never matches");
  EXPECT_EQ(diags.size(), 3u);
}

TEST(DiagnosticDedupeTest, FirstEntryWinsOverFixitAndSeverity) {
  DiagnosticList diags;
  diags.AddWarning("lint-dead-clause", "clause 1", "never matches", "fix A");
  diags.AddNote("lint-redundant-clause", "clause 2", "subsumed");
  diags.AddError("lint-dead-clause", "clause 1", "never matches", "fix B");
  diags.AddError("lint-redundant-clause", "clause 2", "subsumed", "drop it");
  ASSERT_EQ(diags.size(), 2u) << diags.ToString();
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].fixit, "fix A");
  EXPECT_EQ(diags[1].check_id, "lint-redundant-clause");
  EXPECT_EQ(diags[1].severity, Severity::kNote);
  EXPECT_EQ(diags[1].fixit, "");

  // A copy dedupes against the findings it carries.
  DiagnosticList copy = diags;
  copy.AddWarning("lint-dead-clause", "clause 1", "never matches");
  EXPECT_EQ(copy.size(), 2u);
}

/// `prefix` followed by `n` (built in two steps: GCC 12 warns falsely on
/// a string literal + std::to_string).
std::string Numbered(const char* prefix, int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

TEST(DiagnosticDedupeTest, ManyDistinctFindingsKeepTheirOrder) {
  // Triples that differ only in where a piece ends up must stay distinct.
  DiagnosticList diags;
  for (int i = 0; i < 20000; ++i) {
    diags.AddError("c", Numbered("e", i % 100), Numbered("m", i / 100));
  }
  diags.AddError("ce", "", "m0");
  diags.AddError("c", "e0m", "0");
  for (int i = 0; i < 20000; i += 7) {
    diags.AddError("c", Numbered("e", i % 100), Numbered("m", i / 100));
  }
  ASSERT_EQ(diags.size(), 20002u);
  EXPECT_EQ(diags[12345].entity, "e45");
  EXPECT_EQ(diags[12345].message, "m123");
  EXPECT_EQ(diags[20000].check_id, "ce");
  EXPECT_EQ(diags[20001].entity, "e0m");
}

TEST(DiagnosticDedupeTest, MergeRoutesThroughAdd) {
  DiagnosticList a;
  a.AddError("lint-graph-cycle", "layer 'Ln' graph", "cycle");
  DiagnosticList b;
  b.AddError("lint-graph-cycle", "layer 'Ln' graph", "cycle");
  b.AddNote("lint-redundant-clause", "clause 3", "subsumed");
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u) << a.ToString();
  EXPECT_TRUE(a.Has("lint-redundant-clause"));
}

}  // namespace
}  // namespace piet::analysis
