#include "analysis/lint/corpus.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/lint/query_lint.h"
#include "analysis/query_check.h"
#include "core/pietql/parser.h"
#include "geometry/wkt.h"
#include "gis/layer.h"
#include "gis/overlay.h"
#include "gis/schema.h"

namespace piet::analysis::lint {

using gis::GeometryId;
using gis::GeometryKind;

namespace {

std::vector<std::string> SplitTokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::istringstream in{std::string(line)};
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

Status ParseError(const std::string& what) {
  return Status::ParseError(what);
}

/// "t:value" with t in i/d/s/b, the gis/io attribute tagging (strings raw —
/// corpus members never need escapes).
Result<Value> ParseTaggedValue(const std::string& s) {
  if (s.size() < 2 || s[1] != ':') {
    return Status::ParseError("bad tagged value '" + s + "'");
  }
  const std::string body = s.substr(2);
  switch (s[0]) {
    case 'i': {
      int64_t v = 0;
      const auto res = std::from_chars(body.data(), body.data() + body.size(), v);
      if (res.ec != std::errc() || res.ptr != body.data() + body.size()) {
        return Status::ParseError("bad int '" + body + "'");
      }
      return Value(v);
    }
    case 'd': {
      double v = 0.0;
      const auto res = std::from_chars(body.data(), body.data() + body.size(), v);
      if (res.ec != std::errc() || res.ptr != body.data() + body.size()) {
        return Status::ParseError("bad double '" + body + "'");
      }
      return Value(v);
    }
    case 's':
      return Value(body);
    case 'b':
      return Value(body == "1");
    default:
      return Status::ParseError("unknown value tag '" + s.substr(0, 1) + "'");
  }
}

Result<int64_t> ParseInt(const std::string& s) {
  int64_t v = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), v);
  if (res.ec != std::errc() || res.ptr != s.data() + s.size()) {
    return Status::ParseError("bad integer '" + s + "'");
  }
  return v;
}

struct RawLayer {
  GeometryKind kind = GeometryKind::kPolygon;
  std::vector<std::string> wkts;
  /// (element id, attribute name, value).
  std::vector<std::tuple<GeometryId, std::string, Value>> attrvals;
};

/// Builds a live instance from the parsed pieces; any gis-API rejection
/// (cyclic graph, bad edge, dangling rollup) means the case is a
/// schema-defect case and queries are skipped.
std::shared_ptr<gis::GisDimensionInstance> TryBuildInstance(
    const CorpusCase& c, const std::map<std::string, RawLayer>& layers) {
  gis::GisDimensionSchema schema;
  for (const SchemaModel::Graph& g : c.model.graphs) {
    gis::GeometryGraph graph;
    for (const auto& [fine, coarse] : g.edges) {
      if (!graph.AddEdge(fine, coarse).ok()) {
        return nullptr;
      }
    }
    if (!schema.AddLayerGraph(g.layer, std::move(graph)).ok()) {
      return nullptr;
    }
  }
  for (const gis::AttributeBinding& att : c.model.attributes) {
    if (!schema.AddAttribute(att.attribute, att.kind, att.layer).ok()) {
      return nullptr;
    }
  }
  if (!schema.Validate().ok()) {
    return nullptr;
  }
  auto instance =
      std::make_shared<gis::GisDimensionInstance>(std::move(schema));
  for (const auto& [name, raw] : layers) {
    auto layer = std::make_shared<gis::Layer>(name, raw.kind);
    for (const std::string& wkt : raw.wkts) {
      bool ok = false;
      switch (raw.kind) {
        case GeometryKind::kPoint:
        case GeometryKind::kNode: {
          auto p = geometry::PointFromWkt(wkt);
          ok = p.ok() && layer->AddPoint(p.ValueOrDie()).ok();
          break;
        }
        case GeometryKind::kLine:
        case GeometryKind::kPolyline: {
          auto l = geometry::PolylineFromWkt(wkt);
          ok = l.ok() && layer->AddPolyline(std::move(l).ValueOrDie()).ok();
          break;
        }
        case GeometryKind::kPolygon: {
          auto p = geometry::PolygonFromWkt(wkt);
          ok = p.ok() && layer->AddPolygon(std::move(p).ValueOrDie()).ok();
          break;
        }
        case GeometryKind::kAll:
          break;
      }
      if (!ok) {
        return nullptr;
      }
    }
    for (const auto& [id, attr, value] : raw.attrvals) {
      if (!layer->SetAttribute(id, attr, value).ok()) {
        return nullptr;
      }
    }
    if (!instance->AddLayer(std::move(layer)).ok()) {
      return nullptr;
    }
  }
  for (const SchemaModel::Rollup& rollup : c.model.rollups) {
    for (const auto& [fine_id, coarse_id] : rollup.pairs) {
      if (!instance
               ->AddGeometryRollup(rollup.layer, rollup.fine, fine_id,
                                   rollup.coarse, coarse_id)
               .ok()) {
        return nullptr;
      }
    }
  }
  for (const SchemaModel::AlphaBinding& alpha : c.model.alphas) {
    for (const auto& [member, geom] : alpha.pairs) {
      if (!instance->BindAlpha(alpha.attribute, member, geom).ok()) {
        return nullptr;
      }
    }
  }
  return instance;
}

/// OK when the sorted, unique id sets agree; otherwise InvalidArgument
/// "<label>: missing ...; unexpected ...".
Status CompareIdSets(const std::string& label,
                     const std::vector<std::string>& expected,
                     const std::vector<std::string>& have) {
  std::vector<std::string> missing;
  std::set_difference(expected.begin(), expected.end(), have.begin(),
                      have.end(), std::back_inserter(missing));
  std::vector<std::string> unexpected;
  std::set_difference(have.begin(), have.end(), expected.begin(),
                      expected.end(), std::back_inserter(unexpected));
  if (missing.empty() && unexpected.empty()) {
    return Status::OK();
  }
  std::ostringstream os;
  os << label << ":";
  if (!missing.empty()) {
    os << " missing";
    for (const std::string& id : missing) {
      os << " " << id;
    }
  }
  if (!unexpected.empty()) {
    os << (missing.empty() ? "" : ";") << " unexpected";
    for (const std::string& id : unexpected) {
      os << " " << id;
    }
  }
  return Status::InvalidArgument(os.str());
}

}  // namespace

Result<CorpusCase> ParseCorpusText(std::string name, std::string_view text) {
  CorpusCase c;
  c.name = std::move(name);
  std::map<std::string, RawLayer> layers;

  std::istringstream in{std::string(text)};
  std::string raw_line;
  size_t lineno = 0;
  while (std::getline(in, raw_line)) {
    ++lineno;
    const std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    const size_t space = line.find(' ');
    const std::string directive(line.substr(0, space));
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view()
                                        : Trim(line.substr(space + 1));
    // The whole directive parse runs inside one Status-returning lambda so
    // every failure — bad argument counts and sub-parses alike — comes
    // back with a "<case-name>:<line>:" prefix naming its source line.
    Status line_status = [&]() -> Status {
    if (directive == "query") {
      if (rest.empty()) {
        return ParseError("query needs text");
      }
      c.queries.emplace_back(rest);
      return Status::OK();
    }
    std::vector<std::string> args = SplitTokens(rest);
    if (directive == "layer") {
      if (args.size() != 2) {
        return ParseError("layer <name> <kind>");
      }
      PIET_ASSIGN_OR_RETURN(GeometryKind kind,
                            gis::GeometryKindFromString(args[1]));
      layers[args[0]].kind = kind;
    } else if (directive == "graph") {
      if (args.empty()) {
        return ParseError("graph <layer> <fine>-><coarse>...");
      }
      SchemaModel::Graph graph;
      graph.layer = args[0];
      for (size_t i = 1; i < args.size(); ++i) {
        const size_t arrow = args[i].find("->");
        if (arrow == std::string::npos) {
          return ParseError("bad edge '" + args[i] + "'");
        }
        PIET_ASSIGN_OR_RETURN(
            GeometryKind fine,
            gis::GeometryKindFromString(args[i].substr(0, arrow)));
        PIET_ASSIGN_OR_RETURN(
            GeometryKind coarse,
            gis::GeometryKindFromString(args[i].substr(arrow + 2)));
        graph.edges.emplace_back(fine, coarse);
      }
      c.model.graphs.push_back(std::move(graph));
    } else if (directive == "elem") {
      if (args.empty() || rest.size() <= args[0].size()) {
        return ParseError("elem <layer> <WKT>");
      }
      auto it = layers.find(args[0]);
      if (it == layers.end()) {
        return ParseError("elem before layer '" + args[0] + "'");
      }
      it->second.wkts.emplace_back(Trim(rest.substr(args[0].size())));
    } else if (directive == "attrval") {
      if (args.size() != 4) {
        return ParseError("attrval <layer> <id> <name> <t:value>");
      }
      auto it = layers.find(args[0]);
      if (it == layers.end()) {
        return ParseError("attrval before layer '" + args[0] + "'");
      }
      PIET_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[1]));
      PIET_ASSIGN_OR_RETURN(Value value, ParseTaggedValue(args[3]));
      it->second.attrvals.emplace_back(id, args[2], std::move(value));
    } else if (directive == "ids") {
      if (args.size() < 2) {
        return ParseError("ids <layer> <kind> <id>...");
      }
      SchemaModel::LevelUniverse universe;
      universe.layer = args[0];
      PIET_ASSIGN_OR_RETURN(universe.kind,
                            gis::GeometryKindFromString(args[1]));
      for (size_t i = 2; i < args.size(); ++i) {
        PIET_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[i]));
        universe.ids.push_back(id);
      }
      c.model.levels.push_back(std::move(universe));
    } else if (directive == "attr") {
      if (args.size() != 3) {
        return ParseError("attr <name> <kind> <layer>");
      }
      PIET_ASSIGN_OR_RETURN(GeometryKind kind,
                            gis::GeometryKindFromString(args[1]));
      c.model.attributes.push_back(
          gis::AttributeBinding{args[0], kind, args[2]});
    } else if (directive == "rollup") {
      if (args.size() < 3) {
        return ParseError("rollup <layer> <fine> <coarse> <f>:<c>...");
      }
      SchemaModel::Rollup rollup;
      rollup.layer = args[0];
      PIET_ASSIGN_OR_RETURN(rollup.fine,
                            gis::GeometryKindFromString(args[1]));
      PIET_ASSIGN_OR_RETURN(rollup.coarse,
                            gis::GeometryKindFromString(args[2]));
      for (size_t i = 3; i < args.size(); ++i) {
        const size_t colon = args[i].find(':');
        if (colon == std::string::npos) {
          return ParseError("bad pair '" + args[i] + "'");
        }
        PIET_ASSIGN_OR_RETURN(int64_t fine_id,
                              ParseInt(args[i].substr(0, colon)));
        PIET_ASSIGN_OR_RETURN(int64_t coarse_id,
                              ParseInt(args[i].substr(colon + 1)));
        rollup.pairs.emplace_back(fine_id, coarse_id);
      }
      c.model.rollups.push_back(std::move(rollup));
    } else if (directive == "alpha") {
      if (args.size() != 3) {
        return ParseError("alpha <attr> <t:value> <geomId>");
      }
      PIET_ASSIGN_OR_RETURN(Value member, ParseTaggedValue(args[1]));
      PIET_ASSIGN_OR_RETURN(int64_t geom, ParseInt(args[2]));
      SchemaModel::AlphaBinding* binding = nullptr;
      for (SchemaModel::AlphaBinding& existing : c.model.alphas) {
        if (existing.attribute == args[0]) {
          binding = &existing;
          break;
        }
      }
      if (binding == nullptr) {
        c.model.alphas.push_back(SchemaModel::AlphaBinding{args[0], {}});
        binding = &c.model.alphas.back();
      }
      binding->pairs.emplace_back(std::move(member), geom);
    } else if (directive == "fact") {
      if (args.size() < 3) {
        return ParseError("fact <name> <layer> <kind> [<id>...]");
      }
      SchemaModel::FactTable fact;
      fact.name = args[0];
      fact.layer = args[1];
      PIET_ASSIGN_OR_RETURN(fact.level,
                            gis::GeometryKindFromString(args[2]));
      for (size_t i = 3; i < args.size(); ++i) {
        PIET_ASSIGN_OR_RETURN(int64_t id, ParseInt(args[i]));
        fact.ids.push_back(id);
      }
      c.model.fact_tables.push_back(std::move(fact));
    } else if (directive == "moft") {
      if (args.size() != 1) {
        return ParseError("moft <name>");
      }
      c.moft_names.push_back(args[0]);
    } else if (directive == "expect") {
      for (std::string& id : args) {
        c.expected_ids.push_back(std::move(id));
      }
    } else if (directive == "expect-rewrite") {
      c.expect_rewrite_set = true;
      for (std::string& id : args) {
        c.expected_rewrite_ids.push_back(std::move(id));
      }
    } else if (directive == "expect-estimate") {
      if (args.size() != 4 || args[0].size() < 2 || args[0][0] != 'q') {
        return ParseError("expect-estimate q<N> <metric> <lo> <hi>");
      }
      EstimateExpectation e;
      PIET_ASSIGN_OR_RETURN(int64_t qnum, ParseInt(args[0].substr(1)));
      if (qnum < 1) {
        return ParseError("query index counts from q1");
      }
      e.query_index = static_cast<size_t>(qnum - 1);
      e.metric = args[1];
      PIET_ASSIGN_OR_RETURN(e.lo, ParseInt(args[2]));
      PIET_ASSIGN_OR_RETURN(e.hi, ParseInt(args[3]));
      if (e.hi < e.lo) {
        return ParseError("empty interval [" + args[2] + "," + args[3] + "]");
      }
      c.estimate_expectations.push_back(std::move(e));
    } else {
      return ParseError("unknown directive '" + directive + "'");
    }
    return Status::OK();
    }();
    if (!line_status.ok()) {
      return line_status.WithContext(c.name + ":" + std::to_string(lineno));
    }
  }
  std::sort(c.expected_ids.begin(), c.expected_ids.end());
  c.expected_ids.erase(
      std::unique(c.expected_ids.begin(), c.expected_ids.end()),
      c.expected_ids.end());
  std::sort(c.expected_rewrite_ids.begin(), c.expected_rewrite_ids.end());
  c.expected_rewrite_ids.erase(
      std::unique(c.expected_rewrite_ids.begin(),
                  c.expected_rewrite_ids.end()),
      c.expected_rewrite_ids.end());

  // Layers with elements implicitly declare their own level's universe.
  for (const auto& [name, raw] : layers) {
    const bool declared =
        std::any_of(c.model.levels.begin(), c.model.levels.end(),
                    [&, &layer_name = name](
                        const SchemaModel::LevelUniverse& u) {
                      return u.layer == layer_name && u.kind == raw.kind;
                    });
    if (!declared && !raw.wkts.empty()) {
      SchemaModel::LevelUniverse universe;
      universe.layer = name;
      universe.kind = raw.kind;
      for (size_t i = 0; i < raw.wkts.size(); ++i) {
        universe.ids.push_back(static_cast<GeometryId>(i));
      }
      c.model.levels.push_back(std::move(universe));
    }
  }

  c.instance = TryBuildInstance(c, layers);
  return c;
}

Result<CorpusCase> ParseCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open corpus file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string name = path;
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  return ParseCorpusText(std::move(name), text.str());
}

DiagnosticList LintCase(const CorpusCase& c) {
  DiagnosticList out = LintSchema(c.model);
  const QueryContext context{c.instance.get(), c.moft_names};
  for (size_t i = 0; i < c.queries.size(); ++i) {
    const std::string entity = "query " + std::to_string(i + 1);
    auto parsed = core::pietql::Parse(c.queries[i]);
    if (!parsed.ok()) {
      out.AddError("lint-parse-error", entity,
                   parsed.status().ToString());
      continue;
    }
    if (c.instance == nullptr) {
      continue;  // Schema-defect case; nothing to resolve queries against.
    }
    out.Merge(AnalyzeQuery(context, parsed.ValueOrDie()));
    out.Merge(LintQuery(context, parsed.ValueOrDie()));
  }
  return out;
}

Status CheckExpectations(const CorpusCase& c, const DiagnosticList& found) {
  return CompareIdSets("case '" + c.name + "'", c.expected_ids,
                       found.CheckIds());
}

moving::Moft CorpusEstimateMoft() {
  moving::Moft moft;
  moving::BlockOptions opts;
  opts.block_rows = 64;
  opts.compress = true;
  moft.SetBlockOptions(opts);
  for (int o = 0; o < 8; ++o) {
    const double start = kCorpusMoftBase + o * 1800.0;
    for (int i = 0; i < 72; ++i) {
      // A deterministic walk of the [0, 100)^2 square; co-prime strides
      // keep consecutive samples distinct so nothing prunes at seal.
      const double x = static_cast<double>((o * 13 + i * 7) % 100);
      const double y = static_cast<double>((o * 29 + i * 3) % 100);
      const Status added = moft.Add(static_cast<moving::ObjectId>(o + 1),
                                    temporal::TimePoint(start + i * 300.0),
                                    geometry::Point(x, y));
      (void)added;  // Distinct (oid, t) pairs by construction.
    }
  }
  return moft;
}

Result<estimate::ResourceEstimate> EstimateForCase(const CorpusCase& c,
                                                   size_t query_index) {
  if (c.instance == nullptr) {
    return Status::InvalidArgument("case '" + c.name +
                                   "' has no instance (schema defect)");
  }
  if (query_index >= c.queries.size()) {
    return Status::InvalidArgument("case '" + c.name + "' has no query " +
                                   std::to_string(query_index + 1));
  }
  PIET_ASSIGN_OR_RETURN(core::pietql::Query query,
                        core::pietql::Parse(c.queries[query_index]));

  estimate::Catalog catalog;
  catalog.gis = c.instance.get();
  catalog.agg_cache_on = true;
  // Corpus cases carry no overlay of their own; estimate against a
  // quadtree overlay over the case's polygon layers (the configuration the
  // calibration harness replays), so cache-serve eligibility is real.
  std::vector<const gis::Layer*> polygon_layers;
  for (const std::string& layer_name : c.instance->LayerNames()) {
    auto layer = c.instance->GetLayer(layer_name);
    if (layer.ok() &&
        layer.ValueOrDie()->kind() == GeometryKind::kPolygon &&
        layer.ValueOrDie()->size() > 0) {
      polygon_layers.push_back(layer.ValueOrDie());
      catalog.overlay_layers.push_back(layer_name);
    }
  }
  Result<gis::OverlayDb> overlay =
      Status::InvalidArgument("no polygon layers");
  if (!polygon_layers.empty()) {
    overlay = gis::OverlayDb::BuildQuadtree(polygon_layers, /*max_depth=*/6,
                                            /*threads=*/1);
  }
  if (overlay.ok()) {
    catalog.overlay = &overlay.ValueOrDie();
  } else {
    catalog.overlay_layers.clear();
  }
  const moving::Moft corpus_moft = CorpusEstimateMoft();
  for (const std::string& moft_name : c.moft_names) {
    catalog.mofts.emplace(moft_name, corpus_moft.CatalogStats());
  }
  return estimate::EstimateQuery(catalog, query);
}

Status CheckEstimateExpectations(const CorpusCase& c) {
  for (const EstimateExpectation& e : c.estimate_expectations) {
    PIET_ASSIGN_OR_RETURN(const auto est, EstimateForCase(c, e.query_index));
    const std::map<std::string, estimate::EstInterval> metrics = {
        {"rows_scanned", est.rows_scanned},
        {"tuples", est.tuples},
        {"blocks", est.blocks},
        {"blocks_skipped", est.blocks_skipped},
        {"blocks_decoded", est.blocks_decoded},
        {"result_rows", est.result_rows},
        {"region_ids", est.region_ids},
    };
    const auto it = metrics.find(e.metric);
    if (it == metrics.end()) {
      return Status::InvalidArgument("case '" + c.name +
                                     "': unknown estimate metric '" +
                                     e.metric + "'");
    }
    if (it->second.lo < e.lo || it->second.hi > e.hi) {
      std::ostringstream os;
      os << "case '" << c.name << "' q" << (e.query_index + 1) << " "
         << e.metric << ": computed " << it->second.ToString()
         << " not within expected [" << e.lo << "," << e.hi << "]";
      return Status::InvalidArgument(os.str());
    }
  }
  return Status::OK();
}

Status CheckRewriteExpectations(const CorpusCase& c) {
  if (!c.expect_rewrite_set) {
    return Status::OK();
  }
  std::vector<std::string> have;
  const QueryContext context{c.instance.get(), c.moft_names};
  for (size_t i = 0; c.instance != nullptr && i < c.queries.size(); ++i) {
    auto parsed = core::pietql::Parse(c.queries[i]);
    if (!parsed.ok()) {
      continue;
    }
    for (const AppliedFix& a :
         FixQuery(context, parsed.ValueOrDie()).applied) {
      have.push_back(a.rule_id);
    }
  }
  std::sort(have.begin(), have.end());
  have.erase(std::unique(have.begin(), have.end()), have.end());
  return CompareIdSets("case '" + c.name + "' rewrite",
                       c.expected_rewrite_ids, have);
}

}  // namespace piet::analysis::lint
