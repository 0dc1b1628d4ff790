#include "analysis/lint/query_lint.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "analysis/lint/time_domain.h"
#include "gis/layer.h"
#include "temporal/interval.h"
#include "temporal/time_dimension.h"

namespace piet::analysis::lint {

namespace pietql = core::pietql;
using MoKind = pietql::MoCondition::Kind;
using gis::GeometryId;
using gis::Layer;
using temporal::Interval;
using temporal::TimePoint;

GeoFacts WalkGeo(const QueryContext& context, const pietql::GeoQuery& geo) {
  GeoFacts facts;
  if (geo.select.empty()) {
    return facts;
  }
  const std::string& result_name = geo.select.front().name;
  facts.layer = context.FindLayer(result_name);
  if (facts.layer == nullptr) {
    return facts;  // query-unknown-layer territory.
  }
  const Layer& layer = *facts.layer;
  std::vector<GeometryId> current(layer.ids());
  std::sort(current.begin(), current.end());
  const double universe =
      static_cast<double>(std::max<size_t>(layer.ids().size(), 1));
  for (const pietql::GeoCondition& cond : geo.where) {
    if (cond.a.name != result_name) {
      facts.foreign = true;
      return facts;
    }
    GeoClause& clause = facts.clauses.emplace_back();
    std::vector<GeometryId> satisfying;
    if (cond.kind == pietql::GeoCondition::Kind::kAttrCompare) {
      clause.exact = true;
      for (const GeometryId id : layer.ids()) {
        const auto v = layer.GetAttribute(id, cond.attribute);
        if (v.ok() &&
            pietql::CompareValues(v.ValueOrDie(), cond.op, cond.literal)) {
          satisfying.push_back(id);
        }
      }
    } else {
      const Layer* other = context.FindLayer(cond.b.name);
      if (other == nullptr) {
        facts.abstained = true;
        continue;
      }
      if (cond.kind == pietql::GeoCondition::Kind::kContains &&
          layer.kind() != gis::GeometryKind::kPolygon) {
        // CONTAINS needs a polygon left layer: the evaluator's test errors
        // on every pair and counts the error as a miss, so exactly nothing
        // satisfies the clause.
        clause.exact = true;
      } else {
        for (const GeometryId id : layer.ids()) {
          const auto bounds = layer.BoundsOf(id);
          if (bounds.ok() &&
              !other->CandidatesInBox(bounds.ValueOrDie()).empty()) {
            satisfying.push_back(id);
          }
        }
      }
    }
    std::sort(satisfying.begin(), satisfying.end());
    clause.selectivity = static_cast<double>(satisfying.size()) / universe;
    clause.dead = satisfying.empty();
    clause.implied = clause.exact &&
                     std::includes(satisfying.begin(), satisfying.end(),
                                   current.begin(), current.end());
    std::vector<GeometryId> next;
    std::set_intersection(current.begin(), current.end(), satisfying.begin(),
                          satisfying.end(), std::back_inserter(next));
    current = std::move(next);
  }
  facts.empty_region =
      !geo.where.empty() && !facts.abstained && current.empty();
  facts.candidates = std::move(current);
  return facts;
}

namespace {

/// Shortest round-trip rendering, matching the printer (no 6-digit
/// truncation): "50", "1.5", "189493200".
std::string FormatNumber(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    return "0";
  }
  std::string out(buf, ptr);
  if (out.size() > 2 && out.substr(out.size() - 2) == ".0") {
    out.resize(out.size() - 2);
  }
  return out;
}

/// Why a NEAR clause can never hold. The evaluator checks the layer's kind
/// before it scans, so an empty node or point layer is told apart.
enum class NearDead { kNo, kNegativeRadius, kEmptyLayer, kEmptyNodes };

/// What the mo walk proves about one WHERE clause.
struct MoClause {
  TimeFold fold = TimeFold::kUnknown;  // TIME.<level> = literal by itself.
  // The closed T BETWEEN window a rollup equality is exactly equivalent to
  // under sample semantics; set only where that edit applies.
  std::optional<Interval> window;
  NearDead near = NearDead::kNo;
};

/// The mo part's facts: per-clause proofs and the time fold.
struct MoFacts {
  std::vector<MoClause> clauses;
  TimeAbstract time;  // Every time clause; bottom proves no instant matches.
  bool inside = false;
  bool passes = false;
  bool sub_hour = false;  // Some TIME.timeId / TIME.minute equality.
  std::optional<size_t> near;  // The last NEAR clause.
};

/// Folds the mo WHERE conjunction: T BETWEEN windows intersect, rollup
/// equalities meet the masks or their absolute windows, and NEAR clauses
/// are checked against their layer.
MoFacts WalkMo(const QueryContext& context, const pietql::MoQuery& mo) {
  MoFacts facts;
  facts.passes = std::any_of(
      mo.where.begin(), mo.where.end(), [](const pietql::MoCondition& c) {
        return c.kind == MoKind::kPassesThroughResult;
      });
  facts.clauses.resize(mo.where.size());
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pietql::MoCondition& cond = mo.where[i];
    MoClause& clause = facts.clauses[i];
    switch (cond.kind) {
      case MoKind::kTimeBetween:
        facts.time.MeetWindow(
            Interval(TimePoint(cond.t0), TimePoint(cond.t1)));
        break;
      case MoKind::kTimeEquals: {
        facts.sub_hour =
            facts.sub_hour || temporal::IsSubHourLevel(cond.time_level);
        clause.fold = facts.time.MeetLevelEquals(cond.time_level,
                                                 cond.literal);
        // The rollup holds on the half-open [begin, begin + len), so the
        // closed window's upper end is the predecessor double (timeId
        // already folds to an exact [t, t]). Under PASSES THROUGH,
        // MatchingIntervals answers with closed pieces whose boundary
        // instants that window would drop, so the equality stays.
        const auto window =
            TimeAbstract::LevelEqualsWindow(cond.time_level, cond.literal);
        if (window && !facts.passes) {
          double hi = window->end.seconds;
          if (cond.time_level != "timeId") {
            hi = std::nextafter(hi, -std::numeric_limits<double>::infinity());
          }
          clause.window = Interval(window->begin, TimePoint(hi));
          facts.time.MeetWindow(*clause.window);
        }
        break;
      }
      case MoKind::kNearLayer: {
        facts.near = i;
        const Layer* layer = context.FindLayer(cond.near_layer);
        if (cond.radius < 0.0) {
          clause.near = NearDead::kNegativeRadius;
        } else if (layer != nullptr && layer->size() == 0) {
          const bool nodes = layer->kind() == gis::GeometryKind::kNode ||
                             layer->kind() == gis::GeometryKind::kPoint;
          clause.near = nodes ? NearDead::kEmptyNodes : NearDead::kEmptyLayer;
        }
        break;
      }
      case MoKind::kInsideResult:
        facts.inside = true;
        break;
      case MoKind::kPassesThroughResult:
        break;
    }
  }
  return facts;
}

/// "TIME.<level> = <literal> as T BETWEEN <lo> AND <hi>": the fold edit of
/// one rollup equality, shared by the fix and the lint fix-it text.
std::string FoldEdit(const pietql::MoCondition& cond, const Interval& w) {
  return "TIME." + cond.time_level + " = " + cond.literal.ToString() +
         " as T BETWEEN " + FormatNumber(w.begin.seconds) + " AND " +
         FormatNumber(w.end.seconds);
}

/// Drops implied exact clauses and orders the survivors cheapest / most
/// selective first. Abstains on an unknown or foreign layer, whose
/// evaluation errors: a fix must never suppress an error.
void FixGeoPart(const GeoFacts& facts, FixedQuery* fixed) {
  if (facts.layer == nullptr || facts.foreign) {
    return;
  }
  pietql::GeoQuery& geo = fixed->query.geo;
  const std::string& result_name = geo.select.front().name;
  std::vector<size_t> order;
  for (size_t i = 0; i < geo.where.size(); ++i) {
    if (!facts.clauses[i].implied) {
      order.push_back(i);
      continue;
    }
    // The test is exact and every still-possible candidate passes it: the
    // clause cannot change the result from any position.
    fixed->applied.push_back(
        {"rw-drop-redundant-clause", GeoClauseEntity(i, geo.where[i]),
         "every remaining candidate of layer '" + result_name +
             "' satisfies this clause; dropped"});
  }
  if (facts.empty_region) {
    fixed->applied.push_back(
        {"rw-empty-region", "geo WHERE",
         "the conjunction selects no geometry of layer '" + result_name +
             "'; short-circuiting to an empty result"});
  }
  if (!facts.abstained && !facts.empty_region && order.size() >= 2) {
    std::vector<size_t> sorted = order;
    std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      const GeoClause& x = facts.clauses[a];
      const GeoClause& y = facts.clauses[b];
      return x.exact != y.exact ? x.exact : x.selectivity < y.selectivity;
    });
    if (sorted != order) {
      std::string detail = "reordered cheapest/most-selective first:";
      for (size_t i : sorted) {
        detail += " " + std::to_string(i + 1);
      }
      fixed->applied.push_back({"rw-select-reorder", "geo WHERE", detail});
      order = std::move(sorted);
    }
  }
  std::vector<pietql::GeoCondition> kept;
  for (size_t i : order) {
    kept.push_back(geo.where[i]);
  }
  geo.where = std::move(kept);
}

/// Folds the mo WHERE's time clauses into one T BETWEEN window and proves
/// the scan empty. Abstains from everything under PASSES THROUGH with a
/// timeId/minute equality, which MatchingIntervals rejects with an error.
void FixMoPart(const pietql::MoQuery& mo, const MoFacts& facts,
               bool empty_region, FixedQuery* fixed) {
  if (facts.passes && facts.sub_hour) {
    return;
  }
  std::vector<pietql::MoCondition>& where = fixed->query.mo->where;
  std::vector<bool> drop(where.size(), false);
  auto apply = [fixed](const char* rule, std::string entity,
                       std::string detail) {
    fixed->applied.push_back({rule, std::move(entity), std::move(detail)});
  };

  // Always-true rollup constraints (TIME.all = 'all') filter nothing. The
  // T BETWEEN windows fold into their intersection: when one of them is
  // that intersection the others are implied by it; otherwise the first
  // one carries it (possibly inverted, which rw-empty-time then proves).
  std::vector<size_t> windows;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < where.size(); ++i) {
    if (facts.clauses[i].fold == TimeFold::kAlways) {
      drop[i] = true;
      apply("rw-drop-redundant-clause", MoClauseEntity(i),
            "TIME." + where[i].time_level + " = " +
                where[i].literal.ToString() +
                " holds at every instant; dropped");
    } else if (where[i].kind == MoKind::kTimeBetween) {
      windows.push_back(i);
      lo = std::max(lo, where[i].t0);
      hi = std::min(hi, where[i].t1);
    }
  }
  std::optional<size_t> slot;
  for (size_t w : windows) {
    if (where[w].t0 == lo && where[w].t1 == hi) {
      slot = w;
      break;
    }
  }
  const bool implied = slot.has_value();
  if (!windows.empty() && !implied) {
    slot = windows.front();
    apply("rw-fold-time-window", "mo WHERE",
          "merged " + std::to_string(windows.size()) +
              " T BETWEEN windows into T BETWEEN " + FormatNumber(lo) +
              " AND " + FormatNumber(hi));
  }
  for (size_t w : windows) {
    if (w == *slot) {
      where[w].t0 = lo;
      where[w].t1 = hi;
      continue;
    }
    drop[w] = true;
    const std::string kept =
        "the T BETWEEN in clause " + std::to_string(*slot + 1) + "; dropped";
    if (implied) {
      apply("rw-drop-redundant-clause", MoClauseEntity(w), "implied by " + kept);
    } else {
      apply("rw-fold-time-window", MoClauseEntity(w), "folded into " + kept);
    }
  }

  // Absolute rollup equalities fold into the same window, enabling the
  // sorted-time binary-search fast path. The synthesized window takes the
  // first participating slot, where the reader expects it.
  size_t merged = slot ? 1 : 0;
  size_t insert_at = slot.value_or(where.size());
  for (size_t i = 0; i < where.size(); ++i) {
    const std::optional<Interval>& w = facts.clauses[i].window;
    if (w) {
      lo = std::max(lo, w->begin.seconds);
      hi = std::min(hi, w->end.seconds);
      insert_at = std::min(insert_at, i);
      drop[i] = true;
      ++merged;
      apply("rw-fold-time-window", MoClauseEntity(i),
            "rewrote " + FoldEdit(where[i], *w));
    }
  }
  if (merged > (slot ? 1 : 0)) {
    if (merged > 1) {
      apply("rw-fold-time-window", "mo WHERE",
            "merged " + std::to_string(merged) +
                " time constraints into T BETWEEN " + FormatNumber(lo) +
                " AND " + FormatNumber(hi));
    }
    if (slot) {
      drop[*slot] = true;
    }
    where[insert_at] = pietql::MoCondition();
    where[insert_at].kind = MoKind::kTimeBetween;
    where[insert_at].t0 = lo;
    where[insert_at].t1 = hi;
    drop[insert_at] = false;
  }
  std::vector<pietql::MoCondition> kept;
  for (size_t i = 0; i < where.size(); ++i) {
    if (!drop[i]) {
      kept.push_back(std::move(where[i]));
    }
  }
  where = std::move(kept);

  // The WHERE is a conjunction, so the time fold is faithful: clauses it
  // cannot fold only shrink the concrete set further.
  bool zero = facts.time.IsBottom();
  if (zero) {
    apply("rw-empty-time", "mo WHERE",
          "the time constraints match no instant; short-circuiting the "
          "tuple scan");
  }
  const NearDead near =
      facts.near ? facts.clauses[*facts.near].near : NearDead::kNo;
  if (!zero && (near == NearDead::kNegativeRadius ||
                near == NearDead::kEmptyNodes)) {
    zero = true;
    const pietql::MoCondition& cond = mo.where[*facts.near];
    apply("rw-contradictory-spatial", MoClauseEntity(*facts.near),
          near == NearDead::kNegativeRadius
              ? "NEAR radius " + FormatNumber(cond.radius) +
                    " is negative; no sample can qualify"
              : "NEAR layer '" + cond.near_layer +
                    "' has no elements; no sample can qualify");
  }
  if (!zero && (facts.inside || facts.passes) && empty_region) {
    apply("rw-contradictory-spatial", "mo WHERE",
          std::string(facts.passes ? "PASSES THROUGH" : "INSIDE") +
              " RESULT over a provably empty region; no tuple can qualify");
  }
}

}  // namespace

DiagnosticList LintQuery(const QueryContext& context,
                         const pietql::Query& query) {
  DiagnosticList out;
  const GeoFacts geo = WalkGeo(context, query.geo);
  for (size_t i = 0; i < geo.clauses.size(); ++i) {
    const std::string entity = GeoClauseEntity(i, query.geo.where[i]);
    if (geo.clauses[i].dead) {
      out.AddWarning("lint-dead-clause", entity,
                     "no element of layer '" + query.geo.select.front().name +
                         "' can satisfy this clause; it always filters "
                         "everything");
    } else if (geo.clauses[i].implied) {
      out.AddNote("lint-redundant-clause", entity,
                  "every remaining element satisfies this clause; it "
                  "filters nothing",
                  "drop this clause");
    }
  }
  if (geo.empty_region) {
    out.AddWarning("lint-empty-region", "geo WHERE clauses",
                   "the conjunction provably selects no geometry of layer "
                   "'" + query.geo.select.front().name +
                       "'; the result region is empty");
  }
  if (!query.mo) {
    return out;
  }
  const pietql::MoQuery& mo = *query.mo;
  const MoFacts facts = WalkMo(context, mo);

  bool any_time_dead = false;
  size_t windows = 0;
  size_t rollup_equals = 0;
  std::string fastpath_fixit;
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pietql::MoCondition& cond = mo.where[i];
    const MoClause& clause = facts.clauses[i];
    const std::string entity = MoClauseEntity(i);
    switch (cond.kind) {
      case MoKind::kTimeBetween:
        ++windows;
        if (cond.t1 < cond.t0) {
          any_time_dead = true;
          out.AddWarning("lint-dead-clause", entity + " (T BETWEEN)",
                         "empty time window: upper bound " +
                             FormatNumber(cond.t1) +
                             " precedes lower bound " + FormatNumber(cond.t0),
                         "T BETWEEN " + FormatNumber(cond.t1) + " AND " +
                             FormatNumber(cond.t0));
        }
        break;
      case MoKind::kTimeEquals: {
        if (!temporal::TimeDimension::HasLevel(cond.time_level)) {
          break;  // query-unknown-time-level territory.
        }
        ++rollup_equals;  // Any rollup-equality disables window_only().
        const std::string clause_entity =
            entity + " (TIME." + cond.time_level + ")";
        const std::string clause_text =
            "TIME." + cond.time_level + " = " + cond.literal.ToString();
        if (clause.fold == TimeFold::kDead) {
          any_time_dead = true;
          out.AddWarning("lint-dead-clause", clause_entity,
                         clause_text + " matches no instant; " +
                             cond.literal.ToString() +
                             " is not a member of this level");
        } else if (clause.fold == TimeFold::kAlways) {
          out.AddNote("lint-redundant-clause", clause_entity,
                      clause_text + " holds at every instant",
                      "drop this clause");
        }
        if (fastpath_fixit.empty() && clause.window) {
          fastpath_fixit = "rewrite " + FoldEdit(cond, *clause.window);
        }
        break;
      }
      case MoKind::kNearLayer: {
        const std::string clause_entity =
            entity + " (NEAR layer." + cond.near_layer + ")";
        if (clause.near == NearDead::kNegativeRadius) {
          out.AddWarning("lint-contradictory-spatial", clause_entity,
                         "radius " + FormatNumber(cond.radius) +
                             " is negative; no sample is ever within a "
                             "negative distance");
        } else if (clause.near != NearDead::kNo) {
          out.AddWarning("lint-contradictory-spatial", clause_entity,
                         "layer '" + cond.near_layer +
                             "' has no elements; NEAR can never hold");
        }
        break;
      }
      case MoKind::kInsideResult:
      case MoKind::kPassesThroughResult:
        if (geo.empty_region) {
          out.AddWarning("lint-contradictory-spatial",
                         entity + (cond.kind == MoKind::kInsideResult
                                       ? " (INSIDE RESULT)"
                                       : " (PASSES THROUGH RESULT)"),
                         "the geometric part provably selects no geometry, "
                         "so this condition can never hold");
        }
        break;
    }
  }
  if (facts.time.IsBottom() && !any_time_dead) {
    out.AddWarning("lint-empty-time", "mo WHERE clauses",
                   "the time predicates are individually satisfiable but "
                   "their conjunction matches no instant");
  }
  if (windows > 0 && rollup_equals > 0) {
    out.AddNote("lint-fastpath-defeated", "mo WHERE clauses",
                "mixing T BETWEEN with TIME.<level> = disables the "
                "window-only SamplesMatchingTime binary-search fast path; "
                "every sample is tested row by row",
                fastpath_fixit);
  }
  return out;
}

std::vector<std::string> AllLintCheckIds() {
  return {
      "lint-alpha-dangling",
      "lint-alpha-functional",
      "lint-att-binding",
      "lint-contradictory-spatial",
      "lint-dead-clause",
      "lint-empty-region",
      "lint-empty-time",
      "lint-fastpath-defeated",
      "lint-graph-cycle",
      "lint-graph-shape",
      "lint-parse-error",
      "lint-redundant-clause",
      "lint-rollup-composition",
      "lint-rollup-dangling",
      "lint-rollup-functional",
      "lint-rollup-total",
      "lint-summability",
  };
}

std::vector<std::string> AllFixRuleIds() {
  return {
      "rw-contradictory-spatial", "rw-drop-redundant-clause",
      "rw-empty-region",          "rw-empty-time",
      "rw-fold-time-window",      "rw-select-reorder",
  };
}

FixedQuery FixQuery(const QueryContext& context, const pietql::Query& query) {
  FixedQuery fixed;
  fixed.query = query;
  const GeoFacts geo = WalkGeo(context, query.geo);
  FixGeoPart(geo, &fixed);
  if (query.mo) {
    FixMoPart(*query.mo, WalkMo(context, *query.mo), geo.empty_region,
              &fixed);
  }
  return fixed;
}

}  // namespace piet::analysis::lint
