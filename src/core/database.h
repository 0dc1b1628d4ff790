#ifndef PIET_CORE_DATABASE_H_
#define PIET_CORE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/model_check.h"
#include "common/result.h"
#include "gis/instance.h"
#include "gis/overlay.h"
#include "moving/moft.h"
#include "obs/metrics.h"
#include "olap/fact_table.h"
#include "temporal/time_dimension.h"

namespace piet::core {

namespace aggcache {
class AggCacheEntry;
}  // namespace aggcache

/// The cached result of classifying every sample of one MOFT against one
/// overlay layer: `hits` holds, per global row of the MOFT's (Oid, t) scan
/// order, the containing geometry ids of the layer (hits.offsets[r] aligns
/// with row r of every block walk). Predicate- and time-independent, so
/// one classification serves every query over the same (MOFT, overlay)
/// pair. A registered MOFT is immutable and never removed, so its global
/// rows stay fixed whatever tier serves them (ReleaseHot, SpillToDisk) and
/// only BuildOverlay drops the cache; an AddMoft of another table keeps it.
struct SampleClassification {
  gis::BatchHits hits;
  /// The overlay epoch this classification was computed at (diagnostics;
  /// cached entries are dropped eagerly on invalidation).
  uint64_t epoch = 0;
};

/// The integrated GIS + OLAP + moving-objects database of the paper's
/// framework: one GIS dimension instance (layers, α bindings, application
/// dimensions), the Time dimension, classical fact tables, MOFTs, and an
/// optional precomputed overlay (Sec. 5).
class GeoOlapDatabase {
 public:
  explicit GeoOlapDatabase(gis::GisDimensionInstance gis_instance);

  // Movable but not copyable; the cache mutex stays with each instance
  // (moves must not race with queries on the source).
  GeoOlapDatabase(GeoOlapDatabase&& other) noexcept;
  GeoOlapDatabase& operator=(GeoOlapDatabase&& other) noexcept;
  GeoOlapDatabase(const GeoOlapDatabase&) = delete;
  GeoOlapDatabase& operator=(const GeoOlapDatabase&) = delete;

  const gis::GisDimensionInstance& gis() const { return gis_; }
  gis::GisDimensionInstance& mutable_gis() { return gis_; }

  const temporal::TimeDimension& time_dimension() const { return time_dim_; }

  /// How load paths (AddMoft, BuildOverlay) run the model checker: kOff
  /// (default) skips checks entirely, kWarn records findings in
  /// last_load_diagnostics(), kStrict rejects the load on any error.
  void set_check_mode(analysis::CheckMode mode,
                      analysis::ModelCheckOptions options = {}) {
    check_mode_ = mode;
    check_options_ = options;
  }
  analysis::CheckMode check_mode() const { return check_mode_; }

  /// Findings of the most recent checked load operation (kWarn mode).
  const analysis::DiagnosticList& last_load_diagnostics() const {
    return last_load_diagnostics_;
  }

  /// A borrowed view of this database for the model checker.
  analysis::DatabaseView AnalysisView() const;

  /// Runs every model check (Defs. 1-3, Sec. 4 MOFTs, Sec. 5 overlay) over
  /// the current contents.
  analysis::DiagnosticList CheckAll(
      analysis::ModelCheckOptions options = {}) const;

  /// Registers a MOFT under a name (e.g. "FMbus").
  Status AddMoft(const std::string& name, moving::Moft moft);
  Result<const moving::Moft*> GetMoft(const std::string& name) const;
  std::vector<std::string> MoftNames() const;

  /// Classical fact tables of the application part.
  Status AddFactTable(const std::string& name, olap::FactTable table);
  Result<const olap::FactTable*> GetFactTable(const std::string& name) const;

  /// Precomputes the Sec. 5 overlay over the named polygon layers. With
  /// `convex` the exact convex sub-polygonization is used (fails on
  /// non-convex/non-partition layers); otherwise the quadtree overlay.
  Status BuildOverlay(const std::vector<std::string>& layer_names,
                      bool convex = true, int quadtree_depth = 10);

  bool HasOverlay() const { return overlay_ != nullptr; }
  Result<const gis::OverlayDb*> overlay() const;

  /// The overlay-layer index of a layer name (as passed to BuildOverlay).
  Result<size_t> OverlayLayerIndex(const std::string& layer_name) const;

  /// Worker threads for overlay construction and batched classification:
  /// > 0 is explicit, 0 (default) resolves through the PIET_THREADS
  /// environment variable (parallel::ResolveThreads). Every parallel path
  /// is bit-identical to `threads = 1`.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Monotone counter of the overlay the classification and aggregate
  /// caches were computed against; bumped by BuildOverlay, not AddMoft.
  uint64_t overlay_epoch() const { return epoch_; }

  /// The classification of `moft` against overlay layer `layer_name`,
  /// served from the per-(MOFT, overlay-epoch) cache when available.
  /// Repeated queries over the same MOFT skip re-classification entirely,
  /// across AddMoft of other tables too; BuildOverlay invalidates. Thread-safe.
  Result<std::shared_ptr<const SampleClassification>> ClassifySamples(
      const std::string& moft, const std::string& layer_name) const;

  /// Number of live cache entries (tests/diagnostics).
  size_t classification_cache_size() const;

  /// The materialized (hit set × hour bucket) aggregate partials of
  /// `moft` against overlay layer `layer_name`, built once per (MOFT,
  /// overlay epoch) pair over ClassifySamples' classification and cached
  /// with it: BuildOverlay drops every entry, AddMoft, ReleaseHot and
  /// SpillToDisk none (the entry borrows no MOFT storage). A block that
  /// fails to decode fails the build, which is not cached. Thread-safe.
  Result<std::shared_ptr<const aggcache::AggCacheEntry>> AggCache(
      const std::string& moft, const std::string& layer_name) const;

  /// Number of live aggregate-cache entries (tests/diagnostics).
  size_t agg_cache_size() const;

  /// Merged snapshot of the process-wide metrics registry (counters,
  /// gauges, latency histograms of every instrumented layer). Values only
  /// accumulate while observability is enabled (PIET_OBS=1 or
  /// obs::SetEnabled(true)); the registry is process-global, so databases
  /// sharing a process share one set of counters.
  obs::MetricsSnapshot Stats() const;

  /// Publishes the storage-tier gauges of this database to the global
  /// registry: per-tier MOFT byte totals and outstanding block pins
  /// (summed Moft::Footprint over every registered MOFT), hot-tier count,
  /// live classification/aggregate-cache entry counts, classification
  /// bytes, and the overlay epoch. Called by the load paths after every
  /// state change and registered as a TelemetrySampler collector so each
  /// telemetry tick sees fresh levels. No-op (zero mutation) while
  /// observability is disabled. Thread-safe under the usual single-writer
  /// contract (no concurrent AddMoft).
  void PublishStorageGauges() const;

 private:
  gis::GisDimensionInstance gis_;
  temporal::TimeDimension time_dim_;
  std::map<std::string, moving::Moft> mofts_;
  std::map<std::string, olap::FactTable> fact_tables_;
  std::unique_ptr<gis::OverlayDb> overlay_;
  std::vector<std::string> overlay_layers_;
  analysis::CheckMode check_mode_ = analysis::CheckMode::kOff;
  analysis::ModelCheckOptions check_options_;
  analysis::DiagnosticList last_load_diagnostics_;
  int num_threads_ = 0;
  uint64_t epoch_ = 0;
  mutable std::mutex classify_mu_;
  mutable std::map<std::pair<std::string, std::string>,
                   std::shared_ptr<const SampleClassification>>
      classify_cache_;
  mutable std::map<std::pair<std::string, std::string>,
                   std::shared_ptr<const aggcache::AggCacheEntry>>
      agg_cache_;
};

}  // namespace piet::core

#endif  // PIET_CORE_DATABASE_H_
