#ifndef PIET_GIS_INSTANCE_H_
#define PIET_GIS_INSTANCE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "gis/layer.h"
#include "gis/schema.h"
#include "olap/dimension.h"

namespace piet::gis {

/// One stored rollup relation r^{Gj,Gk}_L, exposed for the model checker
/// (src/analysis): the edge it follows and the raw (fine, coarse) id pairs.
struct StoredRollup {
  std::string layer;
  GeometryKind fine = GeometryKind::kPoint;
  GeometryKind coarse = GeometryKind::kAll;
  const std::vector<std::pair<GeometryId, GeometryId>>* pairs = nullptr;
};

/// The GIS dimension instance of Def. 2: concrete layers (the geometric
/// part), stored rollup relations r^{Gj,Gk}_L between finite geometry
/// levels, the α functions binding application members to geometries, and
/// application dimension instances.
///
/// The point-level rollup r^{Pt,G}_L is *computed* (Layer point location);
/// rollups among finite levels (e.g. line -> polyline) are stored.
class GisDimensionInstance {
 public:
  explicit GisDimensionInstance(GisDimensionSchema schema);

  const GisDimensionSchema& schema() const { return schema_; }

  /// Registers a layer; its name must have a graph in the schema.
  Status AddLayer(std::shared_ptr<Layer> layer);

  Result<const Layer*> GetLayer(const std::string& name) const;
  Result<Layer*> GetMutableLayer(const std::string& name);
  std::vector<std::string> LayerNames() const;

  /// Stored rollup relation: element `fine_id` (of kind `fine`) composes
  /// into `coarse_id` (of kind `coarse`) in `layer`. The edge must exist in
  /// the layer's graph.
  Status AddGeometryRollup(const std::string& layer, GeometryKind fine,
                           GeometryId fine_id, GeometryKind coarse,
                           GeometryId coarse_id);

  /// All coarse ids that `fine_id` composes into along edge fine->coarse.
  Result<std::vector<GeometryId>> GeometryRollup(const std::string& layer,
                                                 GeometryKind fine,
                                                 GeometryId fine_id,
                                                 GeometryKind coarse) const;

  /// Every stored rollup relation, for well-formedness checking. The
  /// returned pair pointers borrow from this instance.
  std::vector<StoredRollup> StoredRollups() const;

  /// All fine ids composing `coarse_id` (inverse relation).
  Result<std::vector<GeometryId>> GeometryMembers(const std::string& layer,
                                                  GeometryKind fine,
                                                  GeometryKind coarse,
                                                  GeometryId coarse_id) const;

  /// The α function of Def. 2: binds application member `member` (at
  /// dimension level `attribute`, per the schema's Att) to geometry
  /// `geom` in the attribute's layer. One geometry per member.
  Status BindAlpha(const std::string& attribute, const Value& member,
                   GeometryId geom);

  /// α(attribute)(member) -> geometry id.
  Result<GeometryId> Alpha(const std::string& attribute,
                           const Value& member) const;

  /// Inverse α: the member bound to `geom` under `attribute`, if any.
  Result<Value> AlphaInverse(const std::string& attribute,
                             GeometryId geom) const;

  /// All members bound under `attribute`.
  Result<std::vector<Value>> AlphaMembers(const std::string& attribute) const;

  /// The whole α function of `attribute`, member -> geometry in member
  /// order; null when nothing is bound under it.
  const std::map<Value, GeometryId>* AlphaFunction(
      const std::string& attribute) const;

  /// Application dimension instances (RUP of Def. 2).
  Status AddApplicationInstance(olap::DimensionInstance instance);
  Result<const olap::DimensionInstance*> ApplicationInstance(
      const std::string& name) const;

  /// Full Def. 2 consistency: schema validity, layer kinds matching their
  /// graphs, α bindings referencing existing geometries, stored rollups
  /// referencing existing elements, application instances consistent.
  Status CheckConsistency() const;

 private:
  struct AlphaMap {
    std::map<Value, GeometryId> forward;
    std::map<GeometryId, Value> inverse;
  };

  static std::string RollupKey(const std::string& layer, GeometryKind fine,
                               GeometryKind coarse);

  GisDimensionSchema schema_;
  std::map<std::string, std::shared_ptr<Layer>> layers_;
  std::map<std::string, std::vector<std::pair<GeometryId, GeometryId>>>
      rollups_;
  std::map<std::string, AlphaMap> alphas_;
  std::vector<olap::DimensionInstance> app_instances_;
};

}  // namespace piet::gis

#endif  // PIET_GIS_INSTANCE_H_
