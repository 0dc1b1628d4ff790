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
/// GeoOlapDatabase. Each method produces the *region C*, as a finite
/// relation (a FactTable) or folded into γ's state; classical aggregation
/// (Def. 7) is then applied by the caller or by the helpers in queries.h.
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
  /// the database's materialized (hit set × hour bucket) aggregate
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

  // -- γ-state operators (DESIGN.md §8.1) -------------------------------
  //
  // Region C folded into γ's state under `granule`: the operators both
  // front ends share. The Piet-QL evaluator calls one per clause, and
  // each shares its visitor with the row entry point named below. Def. 7's
  // C is a set of (Oid, t) tuples, so a sample folds one tuple however
  // many wanted geometries it hits. They bump no engine.* counter (the
  // calling front end counts); stats() holds the call's counters.

  /// What a γ-state operator returns.
  struct GammaAnswer {
    gamma::State state;
    /// The serve's decomposition when the aggregate cache answered.
    std::optional<aggcache::AggServeStats> served{};
    /// The cache could have served but for a sub-hour rollup or granule.
    bool cache_fallback = false;
  };

  /// SamplesMatchingTime's tuples.
  Result<GammaAnswer> WindowState(const std::string& moft,
                                  const TimePredicate& when,
                                  const gamma::Granule& granule) const;

  /// SampleRegion's tuples over the polygons `ids` of `layer`. Under
  /// kOverlay, an hourly granule is served from the aggregate cache when
  /// the mode is on and the overlay covers `layer`; else the scan runs.
  Result<GammaAnswer> RegionState(const std::string& moft,
                                  const std::string& layer,
                                  const std::vector<gis::GeometryId>& ids,
                                  const TimePredicate& when,
                                  const gamma::Granule& granule,
                                  Strategy strategy) const;
  /// The same over the `pred`-qualifying polygons.
  Result<GammaAnswer> RegionState(const std::string& moft,
                                  const std::string& layer,
                                  const GeometryPredicate& pred,
                                  const TimePredicate& when,
                                  const gamma::Granule& granule,
                                  Strategy strategy) const;

  /// TrajectoryRegion's tuples over the polygons `ids` of `layer`: one per
  /// maximal inside interval of each polygon, stamped at its entry.
  Result<GammaAnswer> TrajectoryState(const std::string& moft,
                                      const std::string& layer,
                                      const std::vector<gis::GeometryId>& ids,
                                      const TimePredicate& when,
                                      const gamma::Granule& granule) const;

  /// SamplesNearNodes' tuples within `radius` of the nodes `ids` of
  /// `layer`.
  Result<GammaAnswer> NearState(const std::string& moft,
                                const std::string& layer,
                                const std::vector<gis::GeometryId>& ids,
                                double radius, const TimePredicate& when,
                                const gamma::Granule& granule) const;

  // -- Geometry-side helper ----------------------------------------------

  /// Ids of `layer` geometries satisfying `pred` (the geometric half of C,
  /// what the Piet-QL geometric part returns).
  Result<std::vector<gis::GeometryId>> QualifyingGeometries(
      const std::string& layer, const GeometryPredicate& pred) const;

  // -- Aggregate-cache serve path ----------------------------------------

  /// Serves ObjectsAlwaysWithin (sample semantics) from the aggregate
  /// cache: ascending Oids with a `when`-matching sample and none outside
  /// the qualifying polygons. nullopt — the caller falls back to the scan —
  /// when the cache cannot serve (see AggCacheProbe).
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

  /// The aggregate-cache entry of (moft, layer), or null when the mode is
  /// off, the overlay does not cover the layer, `when` or the
  /// granule (`instants`) is finer than the cache's hour buckets, or the
  /// entry cannot be built. The sub-hour case sets *fallback and bumps
  /// pietql.aggcache.fallback_subhour, the counter's one bump site.
  std::shared_ptr<const aggcache::AggCacheEntry> AggCacheProbe(
      const std::string& moft, const std::string& layer,
      const TimePredicate& when, bool instants, bool* fallback) const;

  const GeoOlapDatabase* db_;
  int num_threads_ = 0;
  aggcache::AggCacheMode agg_cache_mode_ = aggcache::AggCacheModeFromEnv();
  mutable EngineStats stats_;
};

}  // namespace piet::core

#endif  // PIET_CORE_ENGINE_H_
