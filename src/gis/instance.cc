#include "gis/instance.h"

#include <algorithm>

namespace piet::gis {

GisDimensionInstance::GisDimensionInstance(GisDimensionSchema schema)
    : schema_(std::move(schema)) {}

Status GisDimensionInstance::AddLayer(std::shared_ptr<Layer> layer) {
  if (!layer) {
    return Status::InvalidArgument("null layer");
  }
  PIET_ASSIGN_OR_RETURN(const GeometryGraph* graph,
                        schema_.GraphOf(layer->name()));
  if (!graph->HasNode(layer->kind())) {
    return Status::InvalidArgument(
        "layer '" + layer->name() + "' holds kind '" +
        std::string(GeometryKindToString(layer->kind())) +
        "' absent from its schema graph");
  }
  if (layers_.count(layer->name())) {
    return Status::AlreadyExists("layer '" + layer->name() +
                                 "' already registered");
  }
  layers_.emplace(layer->name(), std::move(layer));
  return Status::OK();
}

Result<const Layer*> GisDimensionInstance::GetLayer(
    const std::string& name) const {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    return Status::NotFound("no layer '" + name + "'");
  }
  return static_cast<const Layer*>(it->second.get());
}

Result<Layer*> GisDimensionInstance::GetMutableLayer(const std::string& name) {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    return Status::NotFound("no layer '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> GisDimensionInstance::LayerNames() const {
  std::vector<std::string> out;
  out.reserve(layers_.size());
  for (const auto& [name, layer] : layers_) {
    out.push_back(name);
  }
  return out;
}

std::string GisDimensionInstance::RollupKey(const std::string& layer,
                                            GeometryKind fine,
                                            GeometryKind coarse) {
  return layer + "\x1f" + std::string(GeometryKindToString(fine)) + "\x1f" +
         std::string(GeometryKindToString(coarse));
}

Status GisDimensionInstance::AddGeometryRollup(const std::string& layer,
                                               GeometryKind fine,
                                               GeometryId fine_id,
                                               GeometryKind coarse,
                                               GeometryId coarse_id) {
  PIET_ASSIGN_OR_RETURN(const GeometryGraph* graph, schema_.GraphOf(layer));
  auto parents = graph->ParentsOf(fine);
  if (std::find(parents.begin(), parents.end(), coarse) == parents.end()) {
    return Status::InvalidArgument(
        "no edge " + std::string(GeometryKindToString(fine)) + "->" +
        std::string(GeometryKindToString(coarse)) + " in layer '" + layer +
        "'");
  }
  rollups_[RollupKey(layer, fine, coarse)].emplace_back(fine_id, coarse_id);
  return Status::OK();
}

Result<std::vector<GeometryId>> GisDimensionInstance::GeometryRollup(
    const std::string& layer, GeometryKind fine, GeometryId fine_id,
    GeometryKind coarse) const {
  auto it = rollups_.find(RollupKey(layer, fine, coarse));
  if (it == rollups_.end()) {
    return Status::NotFound("no rollup relation " +
                            std::string(GeometryKindToString(fine)) + "->" +
                            std::string(GeometryKindToString(coarse)) +
                            " in layer '" + layer + "'");
  }
  std::vector<GeometryId> out;
  for (const auto& [f, c] : it->second) {
    if (f == fine_id) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<StoredRollup> GisDimensionInstance::StoredRollups() const {
  std::vector<StoredRollup> out;
  out.reserve(rollups_.size());
  for (const auto& [key, pairs] : rollups_) {
    // Keys are built by RollupKey as layer \x1f fine \x1f coarse.
    size_t first = key.find('\x1f');
    size_t second = key.find('\x1f', first + 1);
    if (first == std::string::npos || second == std::string::npos) {
      continue;
    }
    auto fine = GeometryKindFromString(key.substr(first + 1,
                                                  second - first - 1));
    auto coarse = GeometryKindFromString(key.substr(second + 1));
    if (!fine.ok() || !coarse.ok()) {
      continue;
    }
    out.push_back(StoredRollup{key.substr(0, first), fine.ValueOrDie(),
                               coarse.ValueOrDie(), &pairs});
  }
  return out;
}

Result<std::vector<GeometryId>> GisDimensionInstance::GeometryMembers(
    const std::string& layer, GeometryKind fine, GeometryKind coarse,
    GeometryId coarse_id) const {
  auto it = rollups_.find(RollupKey(layer, fine, coarse));
  if (it == rollups_.end()) {
    return Status::NotFound("no rollup relation in layer '" + layer + "'");
  }
  std::vector<GeometryId> out;
  for (const auto& [f, c] : it->second) {
    if (c == coarse_id) {
      out.push_back(f);
    }
  }
  return out;
}

Status GisDimensionInstance::BindAlpha(const std::string& attribute,
                                       const Value& member, GeometryId geom) {
  PIET_ASSIGN_OR_RETURN(AttributeBinding binding, schema_.AttOf(attribute));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, GetLayer(binding.layer));
  PIET_RETURN_NOT_OK(layer->BoundsOf(geom).status().WithContext(
      "alpha binding for '" + attribute + "'"));
  AlphaMap& map = alphas_[attribute];
  auto it = map.forward.find(member);
  if (it != map.forward.end() && it->second != geom) {
    return Status::AlreadyExists("member " + member.ToString() +
                                 " already bound under '" + attribute + "'");
  }
  map.forward[member] = geom;
  map.inverse[geom] = member;
  return Status::OK();
}

Result<GeometryId> GisDimensionInstance::Alpha(const std::string& attribute,
                                               const Value& member) const {
  auto it = alphas_.find(attribute);
  if (it == alphas_.end()) {
    return Status::NotFound("no alpha bindings for '" + attribute + "'");
  }
  auto vit = it->second.forward.find(member);
  if (vit == it->second.forward.end()) {
    return Status::NotFound("member " + member.ToString() +
                            " not bound under '" + attribute + "'");
  }
  return vit->second;
}

Result<Value> GisDimensionInstance::AlphaInverse(const std::string& attribute,
                                                 GeometryId geom) const {
  auto it = alphas_.find(attribute);
  if (it == alphas_.end()) {
    return Status::NotFound("no alpha bindings for '" + attribute + "'");
  }
  auto git = it->second.inverse.find(geom);
  if (git == it->second.inverse.end()) {
    return Status::NotFound("geometry " + std::to_string(geom) +
                            " not bound under '" + attribute + "'");
  }
  return git->second;
}

Result<std::vector<Value>> GisDimensionInstance::AlphaMembers(
    const std::string& attribute) const {
  auto it = alphas_.find(attribute);
  if (it == alphas_.end()) {
    return Status::NotFound("no alpha bindings for '" + attribute + "'");
  }
  std::vector<Value> out;
  out.reserve(it->second.forward.size());
  for (const auto& [member, geom] : it->second.forward) {
    out.push_back(member);
  }
  return out;
}

const std::map<Value, GeometryId>* GisDimensionInstance::AlphaFunction(
    const std::string& attribute) const {
  auto it = alphas_.find(attribute);
  return it == alphas_.end() ? nullptr : &it->second.forward;
}

Status GisDimensionInstance::AddApplicationInstance(
    olap::DimensionInstance instance) {
  Result<const olap::DimensionSchema*> declared =
      schema_.ApplicationDimension(instance.schema().name());
  if (!declared.ok()) {
    return Status::InvalidArgument("application dimension '" +
                                   instance.schema().name() +
                                   "' not declared in the GIS schema");
  }
  for (const auto& existing : app_instances_) {
    if (existing.schema().name() == instance.schema().name()) {
      return Status::AlreadyExists("application instance '" +
                                   instance.schema().name() +
                                   "' already added");
    }
  }
  app_instances_.push_back(std::move(instance));
  return Status::OK();
}

Result<const olap::DimensionInstance*> GisDimensionInstance::ApplicationInstance(
    const std::string& name) const {
  for (const auto& inst : app_instances_) {
    if (inst.schema().name() == name) {
      return &inst;
    }
  }
  return Status::NotFound("no application instance '" + name + "'");
}

Status GisDimensionInstance::CheckConsistency() const {
  PIET_RETURN_NOT_OK(schema_.Validate());
  // Every declared layer graph should have a registered layer.
  for (const std::string& name : schema_.LayerNames()) {
    if (!layers_.count(name)) {
      return Status::InvalidArgument("schema layer '" + name +
                                     "' has no registered layer instance");
    }
  }
  // Alpha bindings point at live geometries (checked at bind time, but the
  // layer may have been swapped; re-verify).
  for (const auto& [attribute, map] : alphas_) {
    PIET_ASSIGN_OR_RETURN(AttributeBinding binding, schema_.AttOf(attribute));
    PIET_ASSIGN_OR_RETURN(const Layer* layer, GetLayer(binding.layer));
    for (const auto& [member, geom] : map.forward) {
      PIET_RETURN_NOT_OK(layer->BoundsOf(geom).status().WithContext(
          "alpha binding '" + attribute + "' -> " + member.ToString()));
    }
  }
  for (const auto& inst : app_instances_) {
    PIET_RETURN_NOT_OK(inst.CheckConsistency());
  }
  return Status::OK();
}

}  // namespace piet::gis
