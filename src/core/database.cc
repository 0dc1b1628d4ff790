#include "core/database.h"

#include <algorithm>

#include "common/parallel.h"
#include "core/aggcache/agg_cache.h"

namespace piet::core {

GeoOlapDatabase::GeoOlapDatabase(gis::GisDimensionInstance gis_instance)
    : gis_(std::move(gis_instance)) {}

GeoOlapDatabase::GeoOlapDatabase(GeoOlapDatabase&& other) noexcept
    : gis_(std::move(other.gis_)) {
  // Take the source's cache lock so the cache and its epoch transfer as
  // one consistent unit even if a stale reader is still draining (the
  // single-writer contract says there shouldn't be one, but a torn
  // epoch/cache pair would silently serve wrong classifications).
  std::lock_guard<std::mutex> lock(other.classify_mu_);
  time_dim_ = std::move(other.time_dim_);
  mofts_ = std::move(other.mofts_);
  fact_tables_ = std::move(other.fact_tables_);
  overlay_ = std::move(other.overlay_);
  overlay_layers_ = std::move(other.overlay_layers_);
  check_mode_ = other.check_mode_;
  check_options_ = other.check_options_;
  last_load_diagnostics_ = std::move(other.last_load_diagnostics_);
  num_threads_ = other.num_threads_;
  epoch_ = other.epoch_;
  classify_cache_ = std::move(other.classify_cache_);
  agg_cache_ = std::move(other.agg_cache_);
  // The moved-from database keeps valid-but-empty caches: its MOFTs are
  // gone, so any surviving entry would describe tables it no longer has.
  other.classify_cache_.clear();
  other.agg_cache_.clear();
}

GeoOlapDatabase& GeoOlapDatabase::operator=(GeoOlapDatabase&& other) noexcept {
  if (this != &other) {
    // Both caches move under their locks: the target's old entries die
    // with its old MOFTs, the source's entries must stay paired with the
    // source epoch while they transfer.
    std::scoped_lock lock(classify_mu_, other.classify_mu_);
    gis_ = std::move(other.gis_);
    time_dim_ = std::move(other.time_dim_);
    mofts_ = std::move(other.mofts_);
    fact_tables_ = std::move(other.fact_tables_);
    overlay_ = std::move(other.overlay_);
    overlay_layers_ = std::move(other.overlay_layers_);
    check_mode_ = other.check_mode_;
    check_options_ = other.check_options_;
    last_load_diagnostics_ = std::move(other.last_load_diagnostics_);
    num_threads_ = other.num_threads_;
    epoch_ = other.epoch_;
    classify_cache_ = std::move(other.classify_cache_);
    agg_cache_ = std::move(other.agg_cache_);
    other.classify_cache_.clear();
    other.agg_cache_.clear();
  }
  return *this;
}

analysis::DatabaseView GeoOlapDatabase::AnalysisView() const {
  analysis::DatabaseView view;
  view.gis = &gis_;
  view.mofts.reserve(mofts_.size());
  for (const auto& [name, moft] : mofts_) {
    view.mofts.emplace_back(name, &moft);
  }
  view.overlay = overlay_.get();
  return view;
}

analysis::DiagnosticList GeoOlapDatabase::CheckAll(
    analysis::ModelCheckOptions options) const {
  return analysis::ModelChecker(options).CheckAll(AnalysisView());
}

Status GeoOlapDatabase::AddMoft(const std::string& name, moving::Moft moft) {
  if (mofts_.count(name)) {
    return Status::AlreadyExists("MOFT '" + name + "' already registered");
  }
  if (check_mode_ != analysis::CheckMode::kOff) {
    analysis::DiagnosticList diagnostics;
    analysis::ModelChecker(check_options_)
        .CheckMoft(name, moft, &diagnostics);
    if (check_mode_ == analysis::CheckMode::kStrict &&
        diagnostics.HasErrors()) {
      return diagnostics.ToStatus();
    }
    diagnostics.DowngradeErrorsToWarnings();
    last_load_diagnostics_ = std::move(diagnostics);
  }
  // Registered MOFTs are immutable: every cached entry stays exact.
  mofts_.emplace(name, std::move(moft));
  PublishStorageGauges();
  return Status::OK();
}

Result<const moving::Moft*> GeoOlapDatabase::GetMoft(
    const std::string& name) const {
  auto it = mofts_.find(name);
  if (it == mofts_.end()) {
    return Status::NotFound("no MOFT '" + name + "'");
  }
  return &it->second;
}

std::vector<std::string> GeoOlapDatabase::MoftNames() const {
  std::vector<std::string> out;
  out.reserve(mofts_.size());
  for (const auto& [name, moft] : mofts_) {
    out.push_back(name);
  }
  return out;
}

Status GeoOlapDatabase::AddFactTable(const std::string& name,
                                     olap::FactTable table) {
  if (fact_tables_.count(name)) {
    return Status::AlreadyExists("fact table '" + name +
                                 "' already registered");
  }
  fact_tables_.emplace(name, std::move(table));
  return Status::OK();
}

Result<const olap::FactTable*> GeoOlapDatabase::GetFactTable(
    const std::string& name) const {
  auto it = fact_tables_.find(name);
  if (it == fact_tables_.end()) {
    return Status::NotFound("no fact table '" + name + "'");
  }
  return &it->second;
}

Status GeoOlapDatabase::BuildOverlay(
    const std::vector<std::string>& layer_names, bool convex,
    int quadtree_depth) {
  std::vector<const gis::Layer*> layers;
  layers.reserve(layer_names.size());
  for (const std::string& name : layer_names) {
    PIET_ASSIGN_OR_RETURN(const gis::Layer* layer, gis_.GetLayer(name));
    layers.push_back(layer);
  }
  if (convex) {
    PIET_ASSIGN_OR_RETURN(
        gis::OverlayDb db,
        gis::OverlayDb::BuildConvex(std::move(layers), num_threads_));
    overlay_ = std::make_unique<gis::OverlayDb>(std::move(db));
  } else {
    PIET_ASSIGN_OR_RETURN(
        gis::OverlayDb db,
        gis::OverlayDb::BuildQuadtree(std::move(layers), quadtree_depth,
                                      num_threads_));
    overlay_ = std::make_unique<gis::OverlayDb>(std::move(db));
  }
  overlay_layers_ = layer_names;
  {
    std::lock_guard<std::mutex> lock(classify_mu_);
    ++epoch_;
    if (obs::Enabled()) {
      auto& registry = obs::MetricsRegistry::Global();
      registry.GetCounter("db.classify.invalidations").Add(1);
      registry.GetCounter("db.classify.entries_dropped")
          .Add(static_cast<int64_t>(classify_cache_.size()));
      if (!agg_cache_.empty()) {
        registry.GetCounter("pietql.aggcache.invalidations").Add(1);
        registry.GetCounter("pietql.aggcache.entries_dropped")
            .Add(static_cast<int64_t>(agg_cache_.size()));
      }
    }
    classify_cache_.clear();
    agg_cache_.clear();
  }
  if (check_mode_ != analysis::CheckMode::kOff) {
    analysis::DiagnosticList diagnostics;
    analysis::ModelChecker(check_options_)
        .CheckOverlay(*overlay_, &diagnostics);
    if (check_mode_ == analysis::CheckMode::kStrict &&
        diagnostics.HasErrors()) {
      overlay_.reset();
      overlay_layers_.clear();
      return diagnostics.ToStatus();
    }
    diagnostics.DowngradeErrorsToWarnings();
    last_load_diagnostics_ = std::move(diagnostics);
  }
  PublishStorageGauges();
  return Status::OK();
}

Result<const gis::OverlayDb*> GeoOlapDatabase::overlay() const {
  if (!overlay_) {
    return Status::NotFound("no overlay built; call BuildOverlay first");
  }
  return overlay_.get();
}

Result<size_t> GeoOlapDatabase::OverlayLayerIndex(
    const std::string& layer_name) const {
  auto it = std::find(overlay_layers_.begin(), overlay_layers_.end(),
                      layer_name);
  if (it == overlay_layers_.end()) {
    return Status::NotFound("layer '" + layer_name + "' not in the overlay");
  }
  return static_cast<size_t>(it - overlay_layers_.begin());
}

size_t GeoOlapDatabase::classification_cache_size() const {
  std::lock_guard<std::mutex> lock(classify_mu_);
  return classify_cache_.size();
}

size_t GeoOlapDatabase::agg_cache_size() const {
  std::lock_guard<std::mutex> lock(classify_mu_);
  return agg_cache_.size();
}

Result<std::shared_ptr<const aggcache::AggCacheEntry>>
GeoOlapDatabase::AggCache(const std::string& moft_name,
                          const std::string& layer_name) const {
  auto key = std::make_pair(moft_name, layer_name);
  {
    std::lock_guard<std::mutex> lock(classify_mu_);
    auto it = agg_cache_.find(key);
    if (it != agg_cache_.end()) {
      if (obs::Enabled()) {
        obs::MetricsRegistry::Global()
            .GetCounter("pietql.aggcache.hits")
            .Add(1);
      }
      return it->second;
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("pietql.aggcache.misses")
        .Add(1);
  }

  PIET_ASSIGN_OR_RETURN(const moving::Moft* moft, GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(std::shared_ptr<const SampleClassification> cls,
                        ClassifySamples(moft_name, layer_name));
  std::shared_ptr<const aggcache::AggCacheEntry> entry;
  {
    obs::ScopedTimer timer(
        &obs::MetricsRegistry::Global().GetHistogram(
            "pietql.aggcache.build.latency"));
    PIET_ASSIGN_OR_RETURN(aggcache::AggCacheEntry built,
                          aggcache::AggCacheEntry::Build(*moft, std::move(cls)));
    entry = std::make_shared<const aggcache::AggCacheEntry>(std::move(built));
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("pietql.aggcache.bytes")
        .Set(static_cast<int64_t>(entry->memory_bytes()));
  }

  std::lock_guard<std::mutex> lock(classify_mu_);
  // A concurrent query may have built the same pair meanwhile; keep the
  // first stored entry so every caller shares one block.
  auto [it, inserted] = agg_cache_.emplace(key, std::move(entry));
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetGauge("pietql.aggcache.entries")
        .Set(static_cast<int64_t>(agg_cache_.size()));
  }
  return it->second;
}

obs::MetricsSnapshot GeoOlapDatabase::Stats() const {
  return obs::MetricsRegistry::Global().Snapshot();
}

void GeoOlapDatabase::PublishStorageGauges() const {
  if (!obs::Enabled()) {
    return;
  }
  moving::Moft::StorageFootprint total;
  int64_t hot_tiers = 0;
  for (const auto& [name, moft] : mofts_) {
    const moving::Moft::StorageFootprint fp = moft.Footprint();
    total += fp;
    hot_tiers += fp.hot ? 1 : 0;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("db.moft.resident_bytes")
      .Set(static_cast<int64_t>(total.resident_bytes));
  registry.GetGauge("db.moft.compressed_bytes")
      .Set(static_cast<int64_t>(total.compressed_bytes));
  registry.GetGauge("db.moft.spilled_bytes")
      .Set(static_cast<int64_t>(total.spilled_bytes));
  registry.GetGauge("db.moft.live_pins").Set(total.live_pins);
  registry.GetGauge("db.moft.hot_tiers").Set(hot_tiers);
  {
    std::lock_guard<std::mutex> lock(classify_mu_);
    size_t classify_bytes = 0;
    for (const auto& [key, cls] : classify_cache_) {
      classify_bytes += cls->hits.offsets.capacity() * sizeof(uint32_t) +
                        cls->hits.ids.capacity() * sizeof(gis::GeometryId);
    }
    registry.GetGauge("db.classify.entries")
        .Set(static_cast<int64_t>(classify_cache_.size()));
    registry.GetGauge("db.classify.bytes")
        .Set(static_cast<int64_t>(classify_bytes));
    registry.GetGauge("pietql.aggcache.entries")
        .Set(static_cast<int64_t>(agg_cache_.size()));
    registry.GetGauge("db.overlay.epoch")
        .Set(static_cast<int64_t>(epoch_));
  }
}

Result<std::shared_ptr<const SampleClassification>>
GeoOlapDatabase::ClassifySamples(const std::string& moft_name,
                                 const std::string& layer_name) const {
  auto key = std::make_pair(moft_name, layer_name);
  {
    std::lock_guard<std::mutex> lock(classify_mu_);
    auto it = classify_cache_.find(key);
    if (it != classify_cache_.end()) {
      if (obs::Enabled()) {
        obs::MetricsRegistry::Global()
            .GetCounter("db.classify.cache_hits")
            .Add(1);
      }
      return it->second;
    }
  }
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("db.classify.cache_misses")
        .Add(1);
  }

  PIET_ASSIGN_OR_RETURN(const moving::Moft* moft, GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const gis::OverlayDb* ov, overlay());
  PIET_ASSIGN_OR_RETURN(size_t layer_idx, OverlayLayerIndex(layer_name));

  // Gather the positions block by block: a cold tier decodes each block
  // once and never materializes the whole table.
  const moving::TableBlocks blocks = moft->Blocks();
  std::vector<geometry::Point> points;
  points.reserve(blocks.total_rows());
  moving::BlockIoStats io;
  PIET_RETURN_NOT_OK(blocks.ForEachRowRange(
      0, blocks.total_rows(), moving::ZoneFilter{}, &io,
      [&](const moving::MoftColumns& data, size_t lb, size_t le) -> Status {
        for (size_t i = lb; i < le; ++i) {
          points.emplace_back(data.x[i], data.y[i]);
        }
        return Status::OK();
      }));
  auto classification = std::make_shared<SampleClassification>();
  classification->hits = ov->LocateBatch(points, layer_idx, num_threads_);

  std::lock_guard<std::mutex> lock(classify_mu_);
  classification->epoch = epoch_;
  // A concurrent query may have classified the same pair meanwhile; keep
  // the first stored entry so every caller shares one block.
  auto [it, inserted] =
      classify_cache_.emplace(key, std::move(classification));
  return it->second;
}

}  // namespace piet::core
