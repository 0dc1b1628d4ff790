#include "analysis/lint/schema_lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace piet::analysis::lint {

using gis::GeometryId;
using gis::GeometryKind;
using gis::GeometryKindToString;

namespace {

using KindEdge = std::pair<GeometryKind, GeometryKind>;

std::string KindName(GeometryKind kind) {
  return std::string(GeometryKindToString(kind));
}

std::string EdgeName(GeometryKind fine, GeometryKind coarse) {
  return KindName(fine) + "->" + KindName(coarse);
}

std::string GraphEntity(const std::string& layer) {
  return "layer '" + layer + "' graph";
}

std::string RollupEntity(const SchemaModel::Rollup& r) {
  return "rollup " + EdgeName(r.fine, r.coarse) + " in layer '" + r.layer +
         "'";
}

/// Nodes of a raw edge relation plus the two distinguished kinds that are
/// always part of H(L) (Def. 1).
std::set<GeometryKind> GraphNodes(const std::vector<KindEdge>& edges) {
  std::set<GeometryKind> nodes = {GeometryKind::kPoint, GeometryKind::kAll};
  for (const auto& [fine, coarse] : edges) {
    nodes.insert(fine);
    nodes.insert(coarse);
  }
  return nodes;
}

/// All nodes reachable from `start` along raw edges (reflexive).
std::set<GeometryKind> ReachableFrom(const std::vector<KindEdge>& edges,
                                     GeometryKind start) {
  std::set<GeometryKind> seen = {start};
  std::vector<GeometryKind> stack = {start};
  while (!stack.empty()) {
    const GeometryKind node = stack.back();
    stack.pop_back();
    for (const auto& [fine, coarse] : edges) {
      if (fine == node && seen.insert(coarse).second) {
        stack.push_back(coarse);
      }
    }
  }
  return seen;
}

/// True when the raw edge relation has a directed cycle (self-loops count).
bool HasCycle(const std::vector<KindEdge>& edges) {
  const std::set<GeometryKind> nodes = GraphNodes(edges);
  std::map<GeometryKind, int> state;  // 0 = white, 1 = grey, 2 = black.
  for (const GeometryKind root : nodes) {
    if (state[root] != 0) {
      continue;
    }
    // Iterative DFS with an explicit exit marker per node.
    std::vector<std::pair<GeometryKind, bool>> stack = {{root, false}};
    while (!stack.empty()) {
      const auto [node, exiting] = stack.back();
      stack.pop_back();
      if (exiting) {
        state[node] = 2;
        continue;
      }
      if (state[node] == 1) {
        continue;
      }
      state[node] = 1;
      stack.emplace_back(node, true);
      for (const auto& [fine, coarse] : edges) {
        if (fine != node) {
          continue;
        }
        if (state[coarse] == 1) {
          return true;
        }
        if (state[coarse] == 0) {
          stack.emplace_back(coarse, false);
        }
      }
    }
  }
  return false;
}

const SchemaModel::Graph* FindGraph(const SchemaModel& model,
                                    const std::string& layer) {
  for (const SchemaModel::Graph& g : model.graphs) {
    if (g.layer == layer) {
      return &g;
    }
  }
  return nullptr;
}

/// Membership in ids sorted once, in logarithmic time.
bool Contains(const std::vector<GeometryId>& sorted, GeometryId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

std::vector<GeometryId> Sorted(std::vector<GeometryId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One declared level universe: its ids in declaration order (findings
/// over it follow that order) and sorted, for membership tests.
struct Universe {
  const std::vector<GeometryId>* ids = nullptr;
  std::vector<GeometryId> sorted;
};

/// The declared level universes of a model, indexed and sorted once. The
/// first declaration of a (layer, kind) level wins.
class Universes {
 public:
  explicit Universes(const SchemaModel& model) {
    for (const SchemaModel::LevelUniverse& u : model.levels) {
      levels_.try_emplace({u.layer, u.kind}, Universe{&u.ids, Sorted(u.ids)});
      std::vector<GeometryId>& all = layers_[u.layer];
      all.insert(all.end(), u.ids.begin(), u.ids.end());
    }
    for (auto& [layer, ids] : layers_) {
      ids = Sorted(std::move(ids));
    }
  }

  /// The universe of (layer, kind); null when none is declared.
  const Universe* Find(const std::string& layer, GeometryKind kind) const {
    const auto it = levels_.find({layer, kind});
    return it == levels_.end() ? nullptr : &it->second;
  }

  /// Every id any level of `layer` declares, sorted; null when it
  /// declares none.
  const std::vector<GeometryId>* OfLayer(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::pair<std::string, GeometryKind>, Universe> levels_;
  std::map<std::string, std::vector<GeometryId>> layers_;
};

const SchemaModel::Rollup* FindRollup(const SchemaModel& model,
                                      const std::string& layer,
                                      GeometryKind fine, GeometryKind coarse) {
  for (const SchemaModel::Rollup& r : model.rollups) {
    if (r.layer == layer && r.fine == fine && r.coarse == coarse) {
      return &r;
    }
  }
  return nullptr;
}

void LintGraphs(const SchemaModel& model, std::set<std::string>* acyclic,
                DiagnosticList* out) {
  std::set<std::string> seen;
  for (const SchemaModel::Graph& graph : model.graphs) {
    if (!seen.insert(graph.layer).second) {
      out->AddError("lint-graph-shape", GraphEntity(graph.layer),
                    "layer declares more than one geometry graph");
      continue;
    }
    if (HasCycle(graph.edges)) {
      out->AddError("lint-graph-cycle", GraphEntity(graph.layer),
                    "H(L) has a directed cycle; rollup order is undefined "
                    "(Def. 1 requires a DAG from point to All)");
      continue;  // Shape checks assume acyclicity.
    }
    acyclic->insert(graph.layer);
    for (const auto& [fine, coarse] : graph.edges) {
      if (coarse == GeometryKind::kPoint) {
        out->AddError("lint-graph-shape", GraphEntity(graph.layer),
                      "edge " + EdgeName(fine, coarse) +
                          " enters 'point'; point must be the unique source");
      }
      if (fine == GeometryKind::kAll) {
        out->AddError("lint-graph-shape", GraphEntity(graph.layer),
                      "edge " + EdgeName(fine, coarse) +
                          " leaves 'All'; All must be the unique sink");
      }
    }
    const std::set<GeometryKind> from_point =
        ReachableFrom(graph.edges, GeometryKind::kPoint);
    for (const GeometryKind node : GraphNodes(graph.edges)) {
      if (node != GeometryKind::kPoint && !from_point.count(node)) {
        out->AddError("lint-graph-shape", GraphEntity(graph.layer),
                      "kind '" + KindName(node) +
                          "' is not reachable from point");
      }
      if (node != GeometryKind::kAll &&
          !ReachableFrom(graph.edges, node).count(GeometryKind::kAll)) {
        out->AddError("lint-graph-shape", GraphEntity(graph.layer),
                      "kind '" + KindName(node) + "' does not reach All");
      }
    }
  }
}

void LintAttributes(const SchemaModel& model, DiagnosticList* out) {
  std::set<std::string> seen;
  for (const gis::AttributeBinding& att : model.attributes) {
    const std::string entity = "attribute '" + att.attribute + "'";
    if (!seen.insert(att.attribute).second) {
      out->AddError("lint-att-binding", entity,
                    "Att is not a function: attribute bound more than once");
      continue;
    }
    const SchemaModel::Graph* graph = FindGraph(model, att.layer);
    if (graph == nullptr) {
      out->AddError("lint-att-binding", entity,
                    "bound to unknown layer '" + att.layer + "'");
      continue;
    }
    if (!GraphNodes(graph->edges).count(att.kind)) {
      out->AddError("lint-att-binding", entity,
                    "bound to kind '" + KindName(att.kind) +
                        "' absent from layer '" + att.layer + "'");
    }
  }
}

void LintRollups(const SchemaModel& model, const Universes& universes,
                 DiagnosticList* out) {
  for (const SchemaModel::Rollup& rollup : model.rollups) {
    const std::string entity = RollupEntity(rollup);
    const SchemaModel::Graph* graph = FindGraph(model, rollup.layer);
    if (graph == nullptr) {
      out->AddError("lint-rollup-dangling", entity,
                    "layer has no geometry graph");
      continue;
    }
    if (std::find(graph->edges.begin(), graph->edges.end(),
                  KindEdge{rollup.fine, rollup.coarse}) ==
        graph->edges.end()) {
      out->AddError("lint-rollup-dangling", entity,
                    "no edge " + EdgeName(rollup.fine, rollup.coarse) +
                        " in H(L); the relation rolls up along nothing");
    }
    // Functionality: r^{Gj,Gk}_L must map each fine id to one coarse id.
    std::map<GeometryId, std::set<GeometryId>> images;
    for (const auto& [fine_id, coarse_id] : rollup.pairs) {
      images[fine_id].insert(coarse_id);
    }
    for (const auto& [fine_id, coarse_ids] : images) {
      if (coarse_ids.size() > 1) {
        out->AddError("lint-rollup-functional", entity,
                      "fine id " + std::to_string(fine_id) + " maps to " +
                          std::to_string(coarse_ids.size()) +
                          " coarse ids; rollup must be function-valued");
      }
    }
    // Totality over the declared fine universe, when one is known.
    const Universe* fine = universes.Find(rollup.layer, rollup.fine);
    if (fine != nullptr) {
      for (const GeometryId id : *fine->ids) {
        if (!images.count(id)) {
          out->AddError("lint-rollup-total", entity,
                        "fine id " + std::to_string(id) +
                            " has no image; rollup must be total");
        }
      }
    }
    // Dangling ids against declared universes.
    const Universe* coarse = universes.Find(rollup.layer, rollup.coarse);
    for (const auto& [fine_id, coarse_id] : rollup.pairs) {
      if (fine != nullptr && !Contains(fine->sorted, fine_id)) {
        out->AddError("lint-rollup-dangling", entity,
                      "fine id " + std::to_string(fine_id) +
                          " is not an element of level '" +
                          KindName(rollup.fine) + "'");
      }
      if (coarse != nullptr && !Contains(coarse->sorted, coarse_id)) {
        out->AddError("lint-rollup-dangling", entity,
                      "coarse id " + std::to_string(coarse_id) +
                          " is not an element of level '" +
                          KindName(rollup.coarse) + "'");
      }
    }
  }
}

void LintCompositions(const SchemaModel& model, DiagnosticList* out) {
  for (const SchemaModel::Rollup& r12 : model.rollups) {
    for (const SchemaModel::Rollup& r23 : model.rollups) {
      if (r23.layer != r12.layer || r23.fine != r12.coarse) {
        continue;
      }
      const SchemaModel::Rollup* r13 =
          FindRollup(model, r12.layer, r12.fine, r23.coarse);
      if (r13 == nullptr) {
        continue;  // No stored shortcut relation to be consistent with.
      }
      const std::string entity = RollupEntity(*r13);
      // r23 as fine id -> its coarse ids in stored order, and r13 sorted.
      std::map<GeometryId, std::vector<GeometryId>> r23_images;
      for (const auto& [b, c] : r23.pairs) {
        r23_images[b].push_back(c);
      }
      std::vector<std::pair<GeometryId, GeometryId>> stored = r13->pairs;
      std::sort(stored.begin(), stored.end());
      for (const auto& [a, b] : r12.pairs) {
        const auto it = r23_images.find(b);
        if (it == r23_images.end()) {
          continue;
        }
        for (const GeometryId c : it->second) {
          if (!std::binary_search(stored.begin(), stored.end(),
                                  std::pair<GeometryId, GeometryId>{a, c})) {
            out->AddError(
                "lint-rollup-composition", entity,
                "composition " + EdgeName(r12.fine, r12.coarse) + " ∘ " +
                    EdgeName(r23.fine, r23.coarse) + " maps " +
                    std::to_string(a) + " to " + std::to_string(c) +
                    " but the stored relation does not");
          }
        }
      }
    }
  }
}

void LintAlphas(const SchemaModel& model, const Universes& universes,
                DiagnosticList* out) {
  std::set<std::string> seen;
  for (const SchemaModel::AlphaBinding& alpha : model.alphas) {
    const std::string entity = "alpha '" + alpha.attribute + "'";
    if (!seen.insert(alpha.attribute).second) {
      out->AddError("lint-alpha-dangling", entity,
                    "attribute has more than one alpha binding");
      continue;
    }
    const gis::AttributeBinding* binding = nullptr;
    for (const gis::AttributeBinding& att : model.attributes) {
      if (att.attribute == alpha.attribute) {
        binding = &att;
        break;
      }
    }
    if (binding == nullptr) {
      out->AddError("lint-alpha-dangling", entity,
                    "alpha binds members of an attribute with no Att entry");
      continue;
    }
    // Functionality: sorted by member, the pairs of one member are
    // adjacent, and a member with several pairs must bind one geometry.
    using AlphaPair = std::pair<Value, GeometryId>;
    std::vector<const AlphaPair*> sorted;
    sorted.reserve(alpha.pairs.size());
    for (const AlphaPair& pair : alpha.pairs) {
      sorted.push_back(&pair);
    }
    const auto by_member = [](const AlphaPair* a, const AlphaPair* b) {
      return a->first < b->first;
    };
    if (!std::is_sorted(sorted.begin(), sorted.end(), by_member)) {
      std::stable_sort(sorted.begin(), sorted.end(), by_member);
    }
    for (size_t i = 0, j = 0; i < sorted.size(); i = j) {
      j = i + 1;
      while (j < sorted.size() && !by_member(sorted[i], sorted[j])) {
        ++j;
      }
      if (j - i == 1) {
        continue;  // One pair: a function at this member.
      }
      std::set<GeometryId> geoms;
      for (size_t k = i; k < j; ++k) {
        geoms.insert(sorted[k]->second);
      }
      if (geoms.size() > 1) {
        out->AddError("lint-alpha-functional", entity,
                      "member " + sorted[i]->first.ToString() + " maps to " +
                          std::to_string(geoms.size()) +
                          " geometries; alpha must be function-valued");
      }
    }
    // α resolves a member to an element of its layer. The bound kind's
    // universe is the tightest proof; without one, any element the layer
    // declares will do, which is how a live instance resolves the id
    // whatever kind Att names.
    const Universe* level = universes.Find(binding->layer, binding->kind);
    const std::vector<GeometryId>* members =
        level != nullptr ? &level->sorted : universes.OfLayer(binding->layer);
    if (members != nullptr) {
      for (const auto& [member, geom] : alpha.pairs) {
        if (!Contains(*members, geom)) {
          out->AddError("lint-alpha-dangling", entity,
                        "member " + member.ToString() +
                            " binds to geometry " + std::to_string(geom) +
                            " absent from level '" + KindName(binding->kind) +
                            "' of layer '" + binding->layer + "'");
        }
      }
    }
  }
}

void LintFactTables(const SchemaModel& model,
                    const std::set<std::string>& acyclic,
                    const Universes& universes, DiagnosticList* out) {
  for (const SchemaModel::FactTable& fact : model.fact_tables) {
    const std::string entity = "fact table '" + fact.name + "'";
    const SchemaModel::Graph* graph = FindGraph(model, fact.layer);
    if (graph == nullptr) {
      out->AddError("lint-summability", entity,
                    "geometry dimension references unknown layer '" +
                        fact.layer + "'");
      continue;
    }
    if (!GraphNodes(graph->edges).count(fact.level)) {
      out->AddError("lint-summability", entity,
                    "level '" + KindName(fact.level) +
                        "' is absent from layer '" + fact.layer + "'");
      continue;
    }
    if (acyclic.count(fact.layer) &&
        fact.level != gis::GeometryKind::kPoint &&
        !ReachableFrom(graph->edges, gis::GeometryKind::kPoint)
             .count(fact.level)) {
      out->AddError("lint-summability", entity,
                    "level '" + KindName(fact.level) +
                        "' is unreachable from point; the Def. 4 summable "
                        "rewriting cannot aggregate up to it");
    }
    // Def. 4 needs the fact table total over the level's members: a missing
    // member silently drops from every coarser aggregate.
    const Universe* level = universes.Find(fact.layer, fact.level);
    if (level != nullptr) {
      const std::vector<GeometryId> covered = Sorted(fact.ids);
      for (const GeometryId id : *level->ids) {
        if (!Contains(covered, id)) {
          out->AddError("lint-summability", entity,
                        "member " + std::to_string(id) + " of level '" +
                            KindName(fact.level) +
                            "' has no fact row; aggregates above this level "
                            "undercount");
        }
      }
    }
  }
}

}  // namespace

SchemaModel SchemaModel::FromInstance(
    const gis::GisDimensionInstance& instance) {
  SchemaModel model;
  for (const std::string& name : instance.schema().LayerNames()) {
    const auto graph = instance.schema().GraphOf(name);
    if (graph.ok()) {
      model.graphs.push_back(Graph{name, graph.ValueOrDie()->edges()});
    }
  }
  model.attributes = instance.schema().attributes();
  for (const gis::StoredRollup& stored : instance.StoredRollups()) {
    model.rollups.push_back(
        Rollup{stored.layer, stored.fine, stored.coarse, *stored.pairs});
  }
  for (const gis::AttributeBinding& att : instance.schema().attributes()) {
    const std::map<Value, GeometryId>* alpha =
        instance.AlphaFunction(att.attribute);
    if (alpha != nullptr && !alpha->empty()) {
      model.alphas.push_back(
          AlphaBinding{att.attribute, {alpha->begin(), alpha->end()}});
    }
  }
  for (const std::string& name : instance.LayerNames()) {
    const auto layer = instance.GetLayer(name);
    if (layer.ok()) {
      model.levels.push_back(LevelUniverse{name, layer.ValueOrDie()->kind(),
                                           layer.ValueOrDie()->ids()});
    }
  }
  return model;
}

DiagnosticList LintSchema(const SchemaModel& model) {
  DiagnosticList out;
  std::set<std::string> acyclic;
  LintGraphs(model, &acyclic, &out);
  LintAttributes(model, &out);
  const Universes universes(model);
  LintRollups(model, universes, &out);
  LintCompositions(model, &out);
  LintAlphas(model, universes, &out);
  LintFactTables(model, acyclic, universes, &out);
  return out;
}

}  // namespace piet::analysis::lint
