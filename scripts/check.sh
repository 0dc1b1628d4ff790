#!/usr/bin/env bash
# Local gate mirroring CI: warnings-as-errors build, full test suite, and
# (when the tool is installed) clang-tidy over src/, tests/ and bench/.
# Exits non-zero on the first failure.
#
#   scripts/check.sh          full gate (build + ctest + clang-tidy)
#   scripts/check.sh --lint   build pietql_lint and run it over the
#                             seeded-defect corpus in tests/lint_corpus/
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-check}"
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-all}"

echo "== grep gates =="
# Moft::AllSamples was demoted to a test helper in the block-store
# refactor: whole-table row copies defeat zonemap skipping and force cold
# blocks to decode, so no query path under src/ may regain a call site.
if grep -rn "AllSamples(" src/; then
  echo "error: AllSamples is test-only (tests/moving_test_util.h);" \
       "query paths must iterate Moft::Blocks()" >&2
  exit 1
fi
# Time-series rings belong to the telemetry sampler: every consumer reads
# windows through TelemetrySampler (Series/WindowDelta), so ring capacity
# and eviction stay one implementation. No code outside src/obs/ may
# construct a MetricRing directly.
if grep -rn "MetricRing(" --include='*.cc' --include='*.h' --include='*.cpp' \
     src/ bench/ examples/ | grep -v '^src/obs/'; then
  echo "error: MetricRing is constructed only by src/obs/ (the telemetry" \
       "sampler); consume series through obs::TelemetrySampler" >&2
  exit 1
fi
# The estimator's soundness contract (DESIGN.md §16) holds because every
# ResourceEstimate is derived by the abstract interpretation in
# src/analysis/estimate/ — a hand-built estimate would dodge the
# calibration gate. Consumers go through Evaluator::EstimateQuery or the
# corpus harness; passing estimates around (Result<ResourceEstimate>,
# const refs) stays legal, constructing one does not.
if grep -rEn "ResourceEstimate[[:space:]]*[{(]" \
     --include='*.cc' --include='*.h' --include='*.cpp' \
     src/ tests/ bench/ examples/ | grep -v '^src/analysis/estimate/'; then
  echo "error: ResourceEstimate is constructed only inside" \
       "src/analysis/estimate/; obtain estimates via" \
       "Evaluator::EstimateQuery or lint::EstimateForCase" >&2
  exit 1
fi

# Both front ends lower their MOFT scans onto one operator, core::BlockScan
# (src/core/scan.h): it owns the zonemap filter, the chunked fan-out and
# its ordered merge, first-error-wins Status and the scan accounting. The
# engine and the Piet-QL evaluator supply per-row / per-object work only,
# so neither may fan out or walk blocks itself.
if grep -nE "(OrderedReduce|ParallelFor|ForEach(RowRange|Span|SpanRange|WindowRange))\b" \
     src/core/engine.cc src/core/pietql/evaluator.cc; then
  echo "error: QueryEngine and the Piet-QL evaluator scan through" \
       "core::BlockScan (src/core/scan.h), never the block walks or" \
       "the parallel loops directly" >&2
  exit 1
fi

# One operator set for both front ends (DESIGN.md §8.1): the Piet-QL
# evaluator keeps parsing, the geometric part and the γ finish, and its
# moft_intersect calls the engine's γ-state operator for its clause
# (QueryEngine::WindowState / RegionState / TrajectoryState / NearState).
# It never scans blocks, classifies samples, probes the aggregate cache or
# runs a geometry kernel itself.
if grep -nE 'BlockScan|ClassifySamples\(|AggCache\(|#include "core/geometry/batch\.h"' \
     src/core/pietql/evaluator.cc; then
  echo "error: src/core/pietql/evaluator.cc lowers moft_intersect onto the" \
       "engine's gamma-state operators (src/core/engine.h), never onto" \
       "BlockScan, ClassifySamples, AggCache or core/geometry/batch.h" >&2
  exit 1
fi

# Every per-object LIT operator clips the object to its time predicate
# through one helper, core::ClipToTime (src/core/scan.h): it computes
# time_ok with TimePredicate::MatchingIntervals and keeps only the legs
# that meet it. No other code under src/ may call MatchingIntervals, so
# no operator computes time_ok by hand and skips the clip.
if grep -rn "MatchingIntervals(" src/ \
     | grep -vE '^src/core/(region\.(h|cc)|scan\.h):'; then
  echo "error: time_ok is computed only by core::ClipToTime" \
       "(src/core/scan.h); operators clip through it" >&2
  exit 1
fi

# Queries run exactly as written (DESIGN.md §12): the rw-* rules are
# `pietql_lint --fix` fix-its that lint::FixQuery reads off the linter's own
# walk, never a stage of the query path. The deleted rewriter stays
# deleted, no code under src/core/ calls FixQuery, and the retired
# rewrite-mode knob stays gone.
if grep -rn "analysis/rewrite/" --include='*.cc' --include='*.h' \
     --include='*.cpp' src/ tests/ examples/ bench/; then
  echo "error: src/analysis/rewrite/ was folded into src/analysis/lint/;" \
       "fix-its come from lint::FixQuery" >&2
  exit 1
fi
if grep -rn "FixQuery(" --include='*.cc' --include='*.h' src/core/; then
  echo "error: FixQuery serves pietql_lint --fix and the tests; the query" \
       "path under src/core/ runs queries as written" >&2
  exit 1
fi
if grep -rnE "PIET_REWRITE|set_rewrite_mode|rewrite_on" \
     src/ examples/ tests/ bench/; then
  echo "error: the rewrite-mode knob was removed; queries run as written" >&2
  exit 1
fi

# The sample-semantics count helpers fold region C into distinct keys
# inside the scan (QueryEngine::RegionState). A helper that called
# SampleRegion would materialize every matched row as a boxed FactTable
# row only to count it, so src/core/queries.cc may not call it.
if grep -n "SampleRegion(" src/core/queries.cc; then
  echo "error: count helpers in src/core/queries.cc fold through" \
       "QueryEngine::RegionState, never SampleRegion" >&2
  exit 1
fi

# Every COUNT / COUNT DISTINCT / RATE PER HOUR answer is finished by one γ
# (src/core/gamma.h), which owns the granule rule. The Piet-QL evaluator
# and the query helpers fold tuples through gamma::Granule and never
# compute hour buckets by hand.
if grep -nE "(HourBucketKey|StartOfHour)\(" \
     src/core/pietql/evaluator.cc src/core/queries.cc; then
  echo "error: src/core/pietql/evaluator.cc and src/core/queries.cc" \
       "bucket hours through core::gamma, never HourBucketKey/StartOfHour" >&2
  exit 1
fi

# The sub-hour level test ("timeId" / "minute") has one definition,
# temporal::IsSubHourLevel (src/temporal/time_dimension.h); no code outside
# src/temporal/ spells the pair out again.
if grep -rnE '== "timeId" \|\| [^|]*== "minute"' \
     --include='*.cc' --include='*.h' --include='*.cpp' \
     src/ tests/ examples/ bench/ | grep -v '^src/temporal/'; then
  echo "error: test sub-hour levels with temporal::IsSubHourLevel" \
       "(src/temporal/time_dimension.h)" >&2
  exit 1
fi

# The LIT hot path (batch::LegRefiner) refines legs through the
# allocation-free form of the segment/polygon kernel, which writes into
# caller-owned cuts/out buffers (DESIGN.md §12). The vector-returning
# SegmentInsideIntervals allocates per (leg, polygon) pair, so no code
# under src/core/ may call it: every call there passes four arguments.
if ! python3 - <<'PY'
import pathlib
import re
import sys

bad = []
for path in sorted(pathlib.Path("src/core").rglob("*")):
    if path.suffix not in (".h", ".cc", ".cpp"):
        continue
    text = re.sub(r"//[^\n]*", "", path.read_text())
    for call in re.finditer(r"\bSegmentInsideIntervals\s*\(", text):
        depth, args, i = 1, 1, call.end()
        while i < len(text) and depth:
            if text[i] in "([{":
                depth += 1
            elif text[i] in ")]}":
                depth -= 1
            elif text[i] == "," and depth == 1:
                args += 1
            i += 1
        if args < 4:
            bad.append(f"{path}:{text.count(chr(10), 0, call.start()) + 1}")
print("\n".join(bad), end="\n" if bad else "")
sys.exit(1 if bad else 0)
PY
then
  echo "error: src/core/ calls SegmentInsideIntervals only with caller-owned" \
       "cuts/out buffers (the four-argument form)" >&2
  exit 1
fi

# Each static fact has one proof (DESIGN.md §11). The schema lattice of
# Defs. 1-3 is proven by lint::LintSchema, which ModelChecker::CheckInstance
# calls: the graph helpers are defined only in src/analysis/lint/schema_lint.cc.
if grep -rnE "^[A-Za-z].*[^A-Za-z0-9_](HasCycle|ReachableFrom|GraphNodes)\(" \
     --include='*.cc' --include='*.h' src/ \
     | grep -v '^src/analysis/lint/schema_lint.cc:'; then
  echo "error: the H(L) graph helpers live in src/analysis/lint/schema_lint.cc;" \
       "prove lattice facts through lint::LintSchema" >&2
  exit 1
fi
# The geo-WHERE candidate flow is lint::WalkGeo's; the linter, FixQuery and
# the estimator read it, so no other analysis walks R-tree candidates.
if grep -rn "CandidatesInBox(" src/analysis/ \
     | grep -v '^src/analysis/lint/query_lint.cc:'; then
  echo "error: under src/analysis/ only lint::WalkGeo" \
       "(src/analysis/lint/query_lint.cc) flows geo-WHERE candidates" >&2
  exit 1
fi
# A check-mode load walks the MOFT's blocks span by span; a whole-table view
# would rematerialize a released or opened table's hot tier.
if grep -nE "Scan\(\)|SpanAt\(|Columns\(\)" src/analysis/model_check.cc; then
  echo "error: ModelChecker::CheckMoft walks Moft::Blocks(), never the" \
       "whole-table views Scan()/SpanAt()/Columns()" >&2
  exit 1
fi

# The aggregate cache groups rows by their classification hit sets and
# reads fringe rows through Moft::Blocks() (DESIGN.md §13): it borrows no
# whole-table view, so a released or spilled table stays cold, and it runs
# no point location or geometry kernel of its own.
if grep -rnE 'Scan\(\)|Columns\(\)|SamplesBetween\(|SamplesOf\(|SpanAt\(|CellsContaining\(|#include "core/geometry/batch\.h"' \
     src/core/aggcache/; then
  echo "error: src/core/aggcache/ reads the MOFT through Moft::Blocks() and" \
       "its membership from SampleClassification, never a whole-table view" \
       "(Scan/Columns/SamplesBetween/SamplesOf/SpanAt), CellsContaining or" \
       "core/geometry/batch.h" >&2
  exit 1
fi

echo "== configure (${BUILD_DIR}, -Werror) =="
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DPIET_WERROR=ON >/dev/null

if [[ "${MODE}" == "--lint" ]]; then
  echo "== build pietql_lint =="
  cmake --build "${BUILD_DIR}" --target pietql_lint -j "${JOBS}"
  echo "== lint corpus (tests/lint_corpus/) =="
  "${BUILD_DIR}/examples/pietql_lint" tests/lint_corpus/*.lint
  echo "== lint figure-1 scenario (must be clean) =="
  "${BUILD_DIR}/examples/pietql_lint" --figure1
  echo "== fix corpus: FixQuery --fix round-trips + expect-rewrite =="
  "${BUILD_DIR}/examples/pietql_lint" --fix tests/lint_corpus/*.lint
  echo "== estimate corpus: expect-estimate directives =="
  "${BUILD_DIR}/examples/pietql_lint" --estimate tests/lint_corpus/*.lint
  echo "== lint checks passed =="
  exit 0
fi

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== test =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

# clang-tidy is optional: the config in .clang-tidy is authoritative, but the
# toolchain image may only ship GCC. CI runs it in a dedicated job.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  mapfile -t sources < <(find src tests bench -name '*.cc' -o -name '*.cpp' | sort)
  clang-tidy -p "${BUILD_DIR}" --quiet "${sources[@]}"
else
  echo "== clang-tidy: not installed, skipping (CI covers it) =="
fi

echo "== all checks passed =="
