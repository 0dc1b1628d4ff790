#ifndef PIET_CORE_ENGINE_H_
#define PIET_CORE_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/aggcache/agg_cache.h"
#include "core/database.h"
#include "core/gamma.h"
#include "core/region.h"
#include "core/scan.h"
#include "moving/block_store.h"
#include "moving/trajectory.h"
#include "olap/fact_table.h"

namespace piet::core {

/// How sample/region matching is evaluated (Sec. 5):
///  * kNaive    — scan every qualifying polygon per sample; no index.
///  * kIndexed  — per-layer R-tree point queries.
///  * kOverlay  — point location against the precomputed Piet overlay
///                (requires GeoOlapDatabase::BuildOverlay). Amortizes
///                geometric work across queries — the paper's strategy.
enum class Strategy {
  kNaive = 0,
  kIndexed,
  kOverlay,
};

std::string_view StrategyToString(Strategy s);

/// Work counters for one engine call (benchmark instrumentation): the
/// counters of the call's block scan.
using EngineStats = ScanStats;

/// Evaluates the paper's spatio-temporal aggregate queries against a
/// GeoOlapDatabase. Each method produces the *region C* as a finite
/// relation (a FactTable); classical aggregation (olap::Aggregate, Def. 7)
/// is then applied by the caller or by the helpers in queries.h.
class QueryEngine {
 public:
  /// `db` must outlive the engine.
  explicit QueryEngine(const GeoOlapDatabase* db) : db_(db) {}

  const GeoOlapDatabase& db() const { return *db_; }

  /// Worker threads for the sample/object fan-outs: > 0 is explicit, 0
  /// (default) resolves through the PIET_THREADS environment variable.
  /// Every result (rows, order, aggregates, stats) is bit-identical to
  /// `threads = 1`, which runs the serial code path.
  void set_num_threads(int n) { num_threads_ = n; }
  int num_threads() const { return num_threads_; }

  /// Whether the count/aggregate helpers (queries.h) may be served from
  /// the database's materialized (overlay cell × hour bucket) aggregate
  /// cache. Cached answers are bit-identical to the scan paths; defaults
  /// to the PIET_AGG_CACHE environment variable.
  void set_agg_cache_mode(aggcache::AggCacheMode m) { agg_cache_mode_ = m; }
  aggcache::AggCacheMode agg_cache_mode() const { return agg_cache_mode_; }

  // -- Type 3: trajectory samples only ----------------------------------

  /// C = {(Oid, t, x, y) | FM(Oid,t,x,y) ∧ time constraints}.
  Result<olap::FactTable> SamplesMatchingTime(const std::string& moft,
                                              const TimePredicate& when) const;

  // -- Type 4: samples + geometric condition ----------------------------

  /// C = {(Oid, t, g) | FM(Oid,t,x,y) ∧ r^{Pt,Pg}(x,y,g) ∧ pred(g) ∧ time}.
  /// Sample semantics: only observed positions count. A sample on a shared
  /// boundary yields one tuple per containing polygon.
  Result<olap::FactTable> SampleRegion(const std::string& moft,
                                       const std::string& layer,
                                       const GeometryPredicate& pred,
                                       const TimePredicate& when,
                                       Strategy strategy) const;

  /// SampleRegion folded in the scan into γ's state over hour buckets
  /// (core/gamma.h); rows_matched counts rows.
  Result<gamma::State> RegionObjects(
      const std::string& moft, const std::string& layer,
      const GeometryPredicate& pred, const TimePredicate& when,
      Strategy strategy) const;

  /// Variant matching samples to *polyline* geometries within `tolerance`
  /// (the paper's r^{Pt,Pl} for streets). C = {(Oid, t, pl)}.
  Result<olap::FactTable> SamplesOnPolylines(const std::string& moft,
                                             const std::string& layer,
                                             double tolerance,
                                             const TimePredicate& when) const;

  /// Proximity variant for node layers (paper queries 6/7):
  /// C = {(Oid, t, node) | dist(sample, node) <= radius ∧ time}.
  Result<olap::FactTable> SamplesNearNodes(const std::string& moft,
                                           const std::string& layer,
                                           double radius,
                                           const TimePredicate& when) const;

  // -- Type 6: trajectory as spatial object / snapshots ------------------

  /// Interpolated positions at instant `t`:
  /// C = {(Oid, x, y, g) | LIT position at t inside qualifying g}.
  Result<olap::FactTable> SnapshotInRegion(const std::string& moft,
                                           const std::string& layer,
                                           const GeometryPredicate& pred,
                                           temporal::TimePoint t) const;

  // -- Type 7: interpolated trajectory conditions ------------------------

  /// Time intervals each object's LIT spends inside qualifying polygons,
  /// clipped to the time predicate. C = {(Oid, g, enter, leave)}.
  /// Zero-length grazing contacts are kept (duration 0).
  Result<olap::FactTable> TrajectoryRegion(const std::string& moft,
                                           const std::string& layer,
                                           const GeometryPredicate& pred,
                                           const TimePredicate& when) const;

  /// Interpolated proximity: intervals within `radius` of qualifying nodes.
  /// C = {(Oid, node, enter, leave)}.
  Result<olap::FactTable> TrajectoryNearNodes(const std::string& moft,
                                              const std::string& layer,
                                              double radius,
                                              const TimePredicate& when) const;

  /// Object ids whose observed samples (sample semantics) or whole LIT
  /// (trajectory semantics) never leave the union of qualifying polygons —
  /// the paper's "passing completely through" (query 3).
  Result<std::vector<moving::ObjectId>> ObjectsAlwaysWithin(
      const std::string& moft, const std::string& layer,
      const GeometryPredicate& pred, const TimePredicate& when,
      bool trajectory_semantics) const;

  // -- Type 8: aggregation over a trajectory ------------------------------

  /// Per-object trajectory aggregates against qualifying polygons:
  /// C = {(Oid, g, distance, seconds, visits)} with travelled distance,
  /// time inside, and entry count per (object, region). Rows with zero
  /// contact are omitted.
  Result<olap::FactTable> TrajectoryAggregates(const std::string& moft,
                                               const std::string& layer,
                                               const GeometryPredicate& pred)
      const;

  /// Uncertainty variant (lifeline beads): object ids that *could* have
  /// visited a qualifying polygon under speed bound `vmax` — a superset of
  /// the LIT passes-through objects. Fails if any object's samples are
  /// inconsistent with `vmax`.
  Result<std::vector<moving::ObjectId>> ObjectsPossiblyWithin(
      const std::string& moft, const std::string& layer,
      const GeometryPredicate& pred, double vmax) const;

  // -- Geometry-side helper ----------------------------------------------

  /// Ids of `layer` geometries satisfying `pred` (the geometric half of C,
  /// what the Piet-QL geometric part returns).
  Result<std::vector<gis::GeometryId>> QualifyingGeometries(
      const std::string& layer, const GeometryPredicate& pred) const;

  // -- Aggregate-cache serve paths ---------------------------------------

  /// Serves the exact per-hour-bucket (member samples, distinct Oids)
  /// aggregate of the samples inside the `pred`-qualifying geometries of
  /// `layer` that match `when`, from the materialized aggregate cache.
  /// nullopt — the caller falls back to the scan — when the cache mode is
  /// off, the overlay is absent or does not cover `layer`, `when` needs
  /// sub-hour granularity, or the cache cannot be built. Served answers
  /// are bit-identical to the SampleRegion-based aggregation.
  std::optional<aggcache::RegionAggregate> CachedRegionAggregate(
      const std::string& moft, const std::string& layer,
      const GeometryPredicate& pred, const TimePredicate& when) const;

  /// Serves ObjectsAlwaysWithin (sample semantics) from the aggregate
  /// cache: ascending Oids with a `when`-matching sample and none outside
  /// the qualifying polygons. Same fallback contract as above.
  std::optional<std::vector<moving::ObjectId>> CachedObjectsAlwaysWithin(
      const std::string& moft, const std::string& layer,
      const GeometryPredicate& pred, const TimePredicate& when) const;

  /// Counters from the most recent call.
  const EngineStats& stats() const { return stats_; }

 private:
  /// The polygons of `layer` (named `layer_name`) satisfying `pred`.
  Result<ResolvedPolygons> QualifyingPolygons(
      const gis::Layer& layer, const std::string& layer_name,
      const GeometryPredicate& pred) const;

  /// Wanted bitmap + cache entry shared by the two serve paths; nullopt
  /// when serving is not possible and the caller must fall back.
  std::optional<std::pair<std::shared_ptr<const aggcache::AggCacheEntry>,
                          std::vector<uint8_t>>>
  AggCacheContext(const std::string& moft, const std::string& layer,
                  const GeometryPredicate& pred,
                  const TimePredicate& when) const;

  const GeoOlapDatabase* db_;
  int num_threads_ = 0;
  aggcache::AggCacheMode agg_cache_mode_ = aggcache::AggCacheModeFromEnv();
  mutable EngineStats stats_;
};

}  // namespace piet::core

#endif  // PIET_CORE_ENGINE_H_
