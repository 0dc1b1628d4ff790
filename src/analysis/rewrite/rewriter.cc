#include "analysis/rewrite/rewriter.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/lint/time_domain.h"
#include "gis/layer.h"
#include "temporal/interval.h"

namespace piet::analysis::rewrite {

namespace pietql = core::pietql;
using gis::GeometryId;
using gis::Layer;
using temporal::Interval;
using temporal::TimePoint;

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

bool CompareValues(const Value& lhs, pietql::CompareOp op, const Value& rhs) {
  switch (op) {
    case pietql::CompareOp::kLt:
      return lhs < rhs;
    case pietql::CompareOp::kGt:
      return rhs < lhs;
    case pietql::CompareOp::kLe:
      return !(rhs < lhs);
    case pietql::CompareOp::kGe:
      return !(lhs < rhs);
    case pietql::CompareOp::kEq:
      return lhs == rhs;
  }
  return false;
}

const Layer* ResolveLayer(const RewriteContext& context,
                          const std::string& name) {
  if (context.gis == nullptr) {
    return nullptr;
  }
  const auto layer = context.gis->GetLayer(name);
  return layer.ok() ? layer.ValueOrDie() : nullptr;
}

/// Same entity naming as the linter, so EXPLAIN output and diagnostics
/// point at clauses consistently.
std::string GeoEntity(size_t index, const pietql::GeoCondition& cond) {
  const std::string entity = "geo WHERE clause " + std::to_string(index + 1);
  switch (cond.kind) {
    case pietql::GeoCondition::Kind::kAttrCompare:
      return entity + " (ATTR layer." + cond.a.name + ", " + cond.attribute +
             ")";
    case pietql::GeoCondition::Kind::kIntersection:
      return entity + " (INTERSECTION layer." + cond.a.name + ", layer." +
             cond.b.name + ")";
    case pietql::GeoCondition::Kind::kContains:
      return entity + " (CONTAINS layer." + cond.a.name + ", layer." +
             cond.b.name + ")";
  }
  return entity;
}

std::string MoEntity(size_t index) {
  return "mo WHERE clause " + std::to_string(index + 1);
}

std::vector<GeometryId> SortedIntersection(const std::vector<GeometryId>& a,
                                           const std::vector<GeometryId>& b) {
  std::vector<GeometryId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Rewrites the geometric part in place: drops provably redundant ATTR
/// clauses, proves the region empty, and orders surviving clauses by
/// estimated cost/selectivity. Abstains (leaves the part untouched) in
/// every shape where the evaluator reports an error — a rewrite must never
/// suppress one.
void RewriteGeoPart(const RewriteContext& context, RewritePlan* plan) {
  pietql::GeoQuery& geo = plan->query.geo;
  if (geo.select.empty()) {
    return;  // Evaluation errors out; nothing to optimize.
  }
  const std::string result_name = geo.select.front().name;
  const Layer* layer = ResolveLayer(context, result_name);
  if (layer == nullptr) {
    return;  // Unknown result layer: evaluation errors out.
  }
  for (const pietql::GeoCondition& cond : geo.where) {
    if (cond.a.name != result_name) {
      return;  // The evaluator rejects this shape outright.
    }
  }

  struct ClauseFacts {
    size_t orig = 0;
    bool resolved = true;  // False when the b-layer is unknown.
    bool drop = false;
    bool exact = false;  // Attribute tests are exact and cheapest.
    double selectivity = 1.0;
  };

  std::vector<GeometryId> current(layer->ids());
  std::sort(current.begin(), current.end());
  const double universe =
      static_cast<double>(std::max<size_t>(layer->ids().size(), 1));
  bool abstained = false;
  std::vector<ClauseFacts> facts(geo.where.size());
  for (size_t i = 0; i < geo.where.size(); ++i) {
    const pietql::GeoCondition& cond = geo.where[i];
    ClauseFacts& f = facts[i];
    f.orig = i;
    // The clause's satisfying set over the whole layer, exactly as the
    // lint dataflow computes it: attr comparisons are exact, spatial
    // clauses over-approximate with bounding boxes.
    std::vector<GeometryId> satisfying;
    switch (cond.kind) {
      case pietql::GeoCondition::Kind::kAttrCompare: {
        f.exact = true;
        for (const GeometryId id : layer->ids()) {
          const auto v = layer->GetAttribute(id, cond.attribute);
          if (v.ok() && CompareValues(v.ValueOrDie(), cond.op, cond.literal)) {
            satisfying.push_back(id);
          }
        }
        break;
      }
      case pietql::GeoCondition::Kind::kIntersection:
      case pietql::GeoCondition::Kind::kContains: {
        const Layer* other = ResolveLayer(context, cond.b.name);
        if (other == nullptr) {
          // Evaluation errors on the unknown layer; never drop or reorder
          // around it.
          abstained = true;
          f.resolved = false;
          continue;
        }
        for (const GeometryId id : layer->ids()) {
          const auto bounds = layer->BoundsOf(id);
          if (bounds.ok() &&
              !other->CandidatesInBox(bounds.ValueOrDie()).empty()) {
            satisfying.push_back(id);
          }
        }
        break;
      }
    }
    std::sort(satisfying.begin(), satisfying.end());
    f.selectivity = static_cast<double>(satisfying.size()) / universe;
    if (f.exact &&
        std::includes(satisfying.begin(), satisfying.end(), current.begin(),
                      current.end())) {
      // Every still-possible candidate satisfies the clause, and the test
      // is exact — the clause cannot change the result from any position.
      f.drop = true;
      plan->applied.push_back(
          {"rw-drop-redundant-clause", GeoEntity(i, cond),
           "every remaining candidate of layer '" + result_name +
               "' satisfies this clause; dropped"});
      continue;
    }
    current = SortedIntersection(current, satisfying);
  }

  if (!abstained && !geo.where.empty() && current.empty()) {
    // The over-approximate flow emptied out, which proves the exact result
    // empty. All layers resolved, so evaluation cannot error either way.
    plan->geo_zero = true;
    plan->applied.push_back(
        {"rw-empty-region", "geo WHERE",
         "the conjunction selects no geometry of layer '" + result_name +
             "'; short-circuiting to an empty result"});
  }

  std::vector<size_t> order;
  for (size_t i = 0; i < geo.where.size(); ++i) {
    if (!facts[i].drop) {
      order.push_back(i);
    }
  }
  if (!abstained && !plan->geo_zero && order.size() >= 2) {
    std::vector<size_t> sorted = order;
    std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      if (facts[a].exact != facts[b].exact) {
        return facts[a].exact;
      }
      return facts[a].selectivity < facts[b].selectivity;
    });
    if (sorted != order) {
      std::ostringstream detail;
      detail << "reordered cheapest/most-selective first:";
      for (size_t i : sorted) {
        detail << " " << (i + 1);
      }
      plan->applied.push_back({"rw-select-reorder", "geo WHERE",
                               detail.str()});
      order = std::move(sorted);
    }
  }

  if (order.size() != geo.where.size() ||
      !std::is_sorted(order.begin(), order.end())) {
    std::vector<pietql::GeoCondition> rewritten;
    rewritten.reserve(order.size());
    for (size_t i : order) {
      rewritten.push_back(geo.where[i]);
    }
    geo.where = std::move(rewritten);
  }
}

/// Rewrites the moving-object part in place. The mo WHERE is a
/// conjunction: rollup-equality clauses accumulate and T BETWEEN windows
/// intersect (TimePredicate::Window).
void RewriteMoPart(const RewriteContext& context, RewritePlan* plan) {
  if (!plan->query.mo) {
    return;
  }
  pietql::MoQuery& mo = *plan->query.mo;

  bool passes = false;
  bool inside = false;
  std::optional<size_t> near_idx;
  pietql::MoCondition near_copy;
  bool interval_hostile_rollup = false;
  for (size_t i = 0; i < mo.where.size(); ++i) {
    const pietql::MoCondition& cond = mo.where[i];
    switch (cond.kind) {
      case pietql::MoCondition::Kind::kPassesThroughResult:
        passes = true;
        break;
      case pietql::MoCondition::Kind::kInsideResult:
        inside = true;
        break;
      case pietql::MoCondition::Kind::kNearLayer:
        near_idx = i;
        near_copy = cond;
        break;
      case pietql::MoCondition::Kind::kTimeEquals:
        if (cond.time_level == "timeId" || cond.time_level == "minute") {
          interval_hostile_rollup = true;
        }
        break;
      case pietql::MoCondition::Kind::kTimeBetween:
        break;
    }
  }
  // PASSES THROUGH evaluates via MatchingIntervals, which (a) rejects
  // timeId/minute rollups with an error a rewrite must not suppress, and
  // (b) keeps closed boundary instants a folded window would trim. Abstain
  // from every mo rewrite in the first case, and from window folding in
  // the second.
  if (passes && interval_hostile_rollup) {
    return;
  }

  struct Item {
    size_t orig = 0;
    pietql::MoCondition cond;
    bool drop = false;
  };
  std::vector<Item> items;
  items.reserve(mo.where.size());
  for (size_t i = 0; i < mo.where.size(); ++i) {
    items.push_back({i, mo.where[i], false});
  }

  // Always-true rollup constraints (TIME.all = 'all') filter nothing.
  for (Item& item : items) {
    if (item.cond.kind != pietql::MoCondition::Kind::kTimeEquals) {
      continue;
    }
    lint::TimeAbstract scratch;
    if (scratch.MeetLevelEquals(item.cond.time_level, item.cond.literal) ==
        lint::TimeFold::kAlways) {
      item.drop = true;
      plan->applied.push_back(
          {"rw-drop-redundant-clause", MoEntity(item.orig),
           "TIME." + item.cond.time_level + " = " +
               item.cond.literal.ToString() +
               " holds at every instant; dropped"});
    }
  }

  // The T BETWEEN clauses are a conjunction: fold them into their
  // intersection. When one window is that intersection the others are
  // implied by it and dropped; otherwise the first window's slot carries
  // the intersection (possibly inverted, which rw-empty-time then proves).
  std::vector<size_t> windows;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].drop &&
        items[i].cond.kind == pietql::MoCondition::Kind::kTimeBetween) {
      windows.push_back(i);
    }
  }
  std::optional<size_t> window_slot;
  if (!windows.empty()) {
    double lo = items[windows.front()].cond.t0;
    double hi = items[windows.front()].cond.t1;
    for (size_t w : windows) {
      lo = std::max(lo, items[w].cond.t0);
      hi = std::min(hi, items[w].cond.t1);
    }
    for (size_t w : windows) {
      if (items[w].cond.t0 == lo && items[w].cond.t1 == hi) {
        window_slot = w;
        break;
      }
    }
    const bool implied = window_slot.has_value();
    if (!implied) {
      window_slot = windows.front();
      plan->applied.push_back(
          {"rw-fold-time-window", "mo WHERE",
           "merged " + std::to_string(windows.size()) +
               " T BETWEEN windows into T BETWEEN " + FormatNumber(lo) +
               " AND " + FormatNumber(hi)});
    }
    const std::string kept =
        "the T BETWEEN in clause " +
        std::to_string(items[*window_slot].orig + 1) + "; dropped";
    for (size_t w : windows) {
      if (w != *window_slot) {
        items[w].drop = true;
        plan->applied.push_back(
            implied ? AppliedRewrite{"rw-drop-redundant-clause",
                                     MoEntity(items[w].orig),
                                     "implied by " + kept}
                    : AppliedRewrite{"rw-fold-time-window",
                                     MoEntity(items[w].orig),
                                     "folded into " + kept});
      }
    }
    items[*window_slot].cond.t0 = lo;
    items[*window_slot].cond.t1 = hi;
  }

  // Constant-fold absolute rollup equalities into one T BETWEEN window,
  // enabling the sorted-time binary-search fast path. The rollup holds on
  // the half-open [begin, begin + len), so the closed window's upper end
  // is the predecessor double (timeId already folds to an exact [t, t]).
  // Skipped under PASSES THROUGH: MatchingIntervals answers with closed
  // hour pieces whose boundary instants a trimmed window would drop.
  if (!passes) {
    std::vector<size_t> foldable;
    std::vector<Interval> fold_windows;
    for (size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      if (item.drop ||
          item.cond.kind != pietql::MoCondition::Kind::kTimeEquals) {
        continue;
      }
      auto window = lint::TimeAbstract::LevelEqualsWindow(
          item.cond.time_level, item.cond.literal);
      if (!window) {
        continue;
      }
      double hi = window->end.seconds;
      if (item.cond.time_level != "timeId") {
        hi = std::nextafter(hi, -std::numeric_limits<double>::infinity());
      }
      foldable.push_back(i);
      fold_windows.emplace_back(window->begin, TimePoint(hi));
    }
    if (!foldable.empty()) {
      double lo = fold_windows.front().begin.seconds;
      double hi = fold_windows.front().end.seconds;
      for (size_t k = 1; k < fold_windows.size(); ++k) {
        lo = std::max(lo, fold_windows[k].begin.seconds);
        hi = std::min(hi, fold_windows[k].end.seconds);
      }
      size_t insert_at = foldable.front();
      size_t merged = foldable.size();
      if (window_slot) {
        const pietql::MoCondition& w = items[*window_slot].cond;
        lo = std::max(lo, w.t0);
        hi = std::min(hi, w.t1);
        insert_at = std::min(insert_at, *window_slot);
        items[*window_slot].drop = true;
        ++merged;
      }
      for (size_t k = 0; k < foldable.size(); ++k) {
        Item& item = items[foldable[k]];
        item.drop = true;
        plan->applied.push_back(
            {"rw-fold-time-window", MoEntity(item.orig),
             "rewrote TIME." + item.cond.time_level + " = " +
                 item.cond.literal.ToString() + " as T BETWEEN " +
                 FormatNumber(fold_windows[k].begin.seconds) + " AND " +
                 FormatNumber(fold_windows[k].end.seconds)});
      }
      if (merged > 1) {
        plan->applied.push_back(
            {"rw-fold-time-window", "mo WHERE",
             "merged " + std::to_string(merged) +
                 " time constraints into T BETWEEN " + FormatNumber(lo) +
                 " AND " + FormatNumber(hi)});
      }
      pietql::MoCondition window;
      window.kind = pietql::MoCondition::Kind::kTimeBetween;
      window.t0 = lo;
      window.t1 = hi;
      // Reuse the first participating slot so the synthesized window sits
      // where the reader expects it.
      items[insert_at].cond = std::move(window);
      items[insert_at].drop = false;
    }
  }

  std::vector<pietql::MoCondition> rewritten;
  rewritten.reserve(items.size());
  for (const Item& item : items) {
    if (!item.drop) {
      rewritten.push_back(item.cond);
    }
  }
  mo.where = std::move(rewritten);

  // Empty-time proof: the mo WHERE is a conjunction, so a straight fold is
  // faithful. Unfoldable clauses only shrink the concrete set further, so
  // bottom still proves it empty.
  lint::TimeAbstract acc;
  for (const pietql::MoCondition& cond : mo.where) {
    if (cond.kind == pietql::MoCondition::Kind::kTimeBetween) {
      acc.MeetWindow(Interval(TimePoint(cond.t0), TimePoint(cond.t1)));
    } else if (cond.kind == pietql::MoCondition::Kind::kTimeEquals) {
      acc.MeetLevelEquals(cond.time_level, cond.literal);
    }
  }
  if (acc.IsBottom()) {
    plan->mo_zero = true;
    plan->applied.push_back(
        {"rw-empty-time", "mo WHERE",
         "the time constraints match no instant; short-circuiting the "
         "tuple scan"});
  }

  // Contradictory spatial constraints: a scan that provably yields no
  // tuple. Validations the evaluator performs (layer kinds, mutual
  // exclusivity, unknown names) run before its scan loops, so the short
  // circuit never masks an error.
  if (!plan->mo_zero && near_idx) {
    if (near_copy.radius < 0.0) {
      plan->mo_zero = true;
      plan->applied.push_back(
          {"rw-contradictory-spatial", MoEntity(*near_idx),
           "NEAR radius " + FormatNumber(near_copy.radius) +
               " is negative; no sample can qualify"});
    } else {
      const Layer* nodes = ResolveLayer(context, near_copy.near_layer);
      if (nodes != nullptr &&
          (nodes->kind() == gis::GeometryKind::kNode ||
           nodes->kind() == gis::GeometryKind::kPoint) &&
          nodes->size() == 0) {
        plan->mo_zero = true;
        plan->applied.push_back(
            {"rw-contradictory-spatial", MoEntity(*near_idx),
             "NEAR layer '" + near_copy.near_layer +
                 "' has no elements; no sample can qualify"});
      }
    }
  }
  if (!plan->mo_zero && (inside || passes) && plan->geo_zero) {
    plan->mo_zero = true;
    plan->applied.push_back(
        {"rw-contradictory-spatial", "mo WHERE",
         std::string(passes ? "PASSES THROUGH" : "INSIDE") +
             " RESULT over a provably empty region; no tuple can qualify"});
  }
}

}  // namespace

std::string RewritePlan::ToString() const {
  if (applied.empty()) {
    return "no rewrites applied";
  }
  std::ostringstream os;
  for (size_t i = 0; i < applied.size(); ++i) {
    if (i > 0) {
      os << "\n";
    }
    os << applied[i].rule_id << " [" << applied[i].entity
       << "]: " << applied[i].detail;
  }
  return os.str();
}

std::vector<std::string> AllRewriteRuleIds() {
  return {
      "rw-contradictory-spatial", "rw-drop-redundant-clause",
      "rw-empty-region",          "rw-empty-time",
      "rw-fold-time-window",      "rw-select-reorder",
  };
}

RewritePlan RewriteQuery(const RewriteContext& context,
                         const pietql::Query& query) {
  RewritePlan plan;
  plan.query = query;
  RewriteGeoPart(context, &plan);
  RewriteMoPart(context, &plan);
  return plan;
}

}  // namespace piet::analysis::rewrite
