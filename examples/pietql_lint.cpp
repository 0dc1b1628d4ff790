// Standalone Piet-QL static linter — the command-line front end of the
// src/analysis/lint/ pass. Lints `.lint` corpus cases (schema model +
// queries, see analysis/lint/corpus.h for the format) without evaluating
// anything, and prints structured diagnostics with fix-its. Diagnostics
// (LintQuery) and --fix edits (FixQuery) read the same static walk of
// each query.
//
// Usage:
//   pietql_lint [--json] [--figure1] [--fix] [--estimate] [case.lint ...]
//
//   --figure1   lint the paper's six-bus Figure 1 scenario (schema +
//               canonical queries); must come out clean
//   --json      print diagnostics as a JSON array instead of text
//   --fix       apply FixQuery's answer-preserving edits to each case's
//               queries and print the edited Piet-QL (round-tripped
//               through the printer) instead of linting; also verifies any
//               `expect-rewrite` directive
//   --estimate  print the static resource estimate of each case query
//               (against the corpus catalog: the case's schema, a quadtree
//               overlay, the deterministic corpus MOFT) instead of
//               linting; also verifies any `expect-estimate` directive
//
// Exit status:
//   0  every case matched its `expect` set (cases without `expect` lines
//      must produce no findings) and --figure1, when given, was clean;
//      under --fix, every fix-it applied (edited text re-parses, the fix
//      is idempotent, and `expect-rewrite` sets matched); under
//      --estimate, every `expect-estimate` interval contained its estimate
//   1  some case missed/overshot its expectations, a clean case warned,
//      or a --fix edit / --estimate check failed
//   2  usage / IO errors

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/lint/corpus.h"
#include "analysis/lint/query_lint.h"
#include "analysis/lint/schema_lint.h"
#include "analysis/query_check.h"
#include "core/pietql/parser.h"
#include "core/pietql/printer.h"
#include "workload/scenario.h"

namespace {

using piet::analysis::DiagnosticList;
using piet::analysis::lint::CorpusCase;

void PrintDiagnostics(const DiagnosticList& list, bool json) {
  if (json) {
    std::printf("%s\n", list.ToJson().c_str());
    return;
  }
  for (const piet::analysis::Diagnostic& d : list) {
    std::printf("  %s\n", d.ToString().c_str());
  }
}

/// Lints the Figure 1 scenario: FromInstance over the live schema, then the
/// paper's canonical queries. Returns false on any warning-or-worse finding.
bool LintFigure1(bool json) {
  auto scenario = piet::workload::BuildFigure1Scenario();
  if (!scenario.ok()) {
    std::fprintf(stderr, "figure1 build failed: %s\n",
                 scenario.status().ToString().c_str());
    return false;
  }
  const auto& db = *scenario.ValueOrDie().db;
  piet::analysis::lint::SchemaModel model =
      piet::analysis::lint::SchemaModel::FromInstance(db.gis());
  DiagnosticList all = piet::analysis::lint::LintSchema(model);

  piet::analysis::QueryContext context;
  context.gis = &db.gis();
  context.moft_names = db.MoftNames();
  const char* kQueries[] = {
      "SELECT layer.Ln; FROM PietSchema; WHERE ATTR(layer.Ln, income) < 1500"
      " | SELECT RATE PER HOUR FROM FMbus WHERE INSIDE RESULT AND"
      " TIME.timeOfDay = 'Morning'",
      "SELECT layer.Ln; FROM PietSchema;"
      " | SELECT COUNT(DISTINCT OID) FROM FMbus WHERE PASSES THROUGH RESULT",
      "SELECT layer.Ln; FROM PietSchema;"
      " | SELECT COUNT(*) FROM FMbus WHERE NEAR(layer.Ls, 10)"
      " GROUP BY TIME.hour",
  };
  for (const char* text : kQueries) {
    auto query = piet::core::pietql::Parse(text);
    if (!query.ok()) {
      std::fprintf(stderr, "figure1 query failed to parse: %s\n",
                   query.status().ToString().c_str());
      return false;
    }
    all.Merge(piet::analysis::AnalyzeQuery(context, query.ValueOrDie()));
    all.Merge(
        piet::analysis::lint::LintQuery(context, query.ValueOrDie()));
  }
  std::printf("figure1: %zu finding(s)\n", all.size());
  PrintDiagnostics(all, json);
  bool clean = true;
  for (const piet::analysis::Diagnostic& d : all) {
    if (d.severity != piet::analysis::Severity::kNote) {
      clean = false;
    }
  }
  return clean;
}

/// --fix: applies FixQuery to each of the case's queries and prints the
/// edited Piet-QL. A fix-it fails to apply when the edited text does not
/// re-parse, a second FixQuery pass changes it again (non-idempotent), or
/// an `expect-rewrite` directive mismatches.
bool FixCase(const CorpusCase& c) {
  bool ok = true;
  if (c.instance == nullptr) {
    std::printf("%s: schema-defect case, no queries to rewrite\n",
                c.name.c_str());
  } else {
    piet::analysis::QueryContext context;
    context.gis = c.instance.get();
    context.moft_names = c.moft_names;
    for (size_t i = 0; i < c.queries.size(); ++i) {
      auto parsed = piet::core::pietql::Parse(c.queries[i]);
      if (!parsed.ok()) {
        // An unparseable query is a lint finding (lint-parse-error), not a
        // fix-it failure: there is nothing to rewrite.
        std::printf("%s query %zu: unparseable, skipped\n", c.name.c_str(),
                    i + 1);
        continue;
      }
      const piet::analysis::lint::FixedQuery fixed =
          piet::analysis::lint::FixQuery(context, parsed.ValueOrDie());
      const std::string rewritten = piet::core::pietql::Print(fixed.query);
      std::printf("%s query %zu: %s\n", c.name.c_str(), i + 1,
                  rewritten.c_str());
      for (const piet::analysis::lint::AppliedFix& a : fixed.applied) {
        std::printf("  applied %s [%s]: %s\n", a.rule_id.c_str(),
                    a.entity.c_str(), a.detail.c_str());
      }
      auto reparsed = piet::core::pietql::Parse(rewritten);
      if (!reparsed.ok()) {
        std::printf("  FIX FAILED: rewritten text does not re-parse: %s\n",
                    reparsed.status().ToString().c_str());
        ok = false;
        continue;
      }
      const std::string second = piet::core::pietql::Print(
          piet::analysis::lint::FixQuery(context, reparsed.ValueOrDie())
              .query);
      if (second != rewritten) {
        std::printf("  FIX FAILED: fix is not idempotent (second pass "
                    "gave: %s)\n",
                    second.c_str());
        ok = false;
      }
    }
  }
  auto verdict = piet::analysis::lint::CheckRewriteExpectations(c);
  if (!verdict.ok()) {
    std::printf("  %s\n", verdict.ToString().c_str());
    ok = false;
  }
  return ok;
}

/// --estimate: prints the static resource estimate of each case query and
/// verifies the case's `expect-estimate` directives.
bool EstimateCase(const CorpusCase& c) {
  if (c.instance == nullptr) {
    std::printf("%s: schema-defect case, nothing to estimate\n",
                c.name.c_str());
    return c.estimate_expectations.empty();
  }
  for (size_t i = 0; i < c.queries.size(); ++i) {
    auto est = piet::analysis::lint::EstimateForCase(c, i);
    if (!est.ok()) {
      std::printf("%s query %zu: %s\n", c.name.c_str(), i + 1,
                  est.status().ToString().c_str());
      continue;
    }
    std::printf("%s query %zu: %s\n%s\n", c.name.c_str(), i + 1,
                c.queries[i].c_str(),
                est.ValueOrDie().ToString().c_str());
  }
  auto verdict = piet::analysis::lint::CheckEstimateExpectations(c);
  if (!verdict.ok()) {
    std::printf("  %s\n", verdict.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool figure1 = false;
  bool fix = false;
  bool estimate = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--figure1") == 0) {
      figure1 = true;
    } else if (std::strcmp(argv[i], "--fix") == 0) {
      fix = true;
    } else if (std::strcmp(argv[i], "--estimate") == 0) {
      estimate = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: pietql_lint [--json] [--figure1] [--fix] "
                   "[--estimate] [case.lint ...]\n");
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (!figure1 && files.empty()) {
    std::fprintf(stderr,
                 "usage: pietql_lint [--json] [--figure1] [--fix] "
                 "[--estimate] [case.lint ...]\n");
    return 2;
  }

  bool all_ok = true;
  if (figure1 && !LintFigure1(json)) {
    all_ok = false;
  }
  for (const std::string& path : files) {
    auto parsed = piet::analysis::lint::ParseCorpusFile(path);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    const CorpusCase& c = parsed.ValueOrDie();
    if (fix) {
      if (!FixCase(c)) {
        all_ok = false;
      }
      continue;
    }
    if (estimate) {
      if (!EstimateCase(c)) {
        all_ok = false;
      }
      continue;
    }
    const DiagnosticList found = piet::analysis::lint::LintCase(c);
    auto verdict = piet::analysis::lint::CheckExpectations(c, found);
    std::printf("%s: %zu finding(s)%s\n", c.name.c_str(), found.size(),
                verdict.ok() ? "" : " [EXPECTATION MISMATCH]");
    PrintDiagnostics(found, json);
    if (!verdict.ok()) {
      std::printf("  %s\n", verdict.ToString().c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
