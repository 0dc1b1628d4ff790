#ifndef PIET_CORE_AGGCACHE_AGG_CACHE_H_
#define PIET_CORE_AGGCACHE_AGG_CACHE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/gamma.h"
#include "core/region.h"
#include "geometry/polygon.h"
#include "gis/layer.h"
#include "gis/overlay.h"
#include "moving/moft.h"
#include "temporal/time_dimension.h"

namespace piet::core::aggcache {

/// Whether the materialized aggregate cache may serve count/aggregate
/// queries. kOn answers region aggregates from per-(overlay cell × hour
/// bucket) partials, touching samples only in boundary cells and fringe
/// buckets; answers are bit-identical to the uncached scans (the PR 6
/// exactness contract). kOff leaves every query on the scan paths.
enum class AggCacheMode {
  kOff = 0,
  kOn = 1,
};

/// Reads PIET_AGG_CACHE: unset / "" / "0" / "off" / "false" mean kOff,
/// anything else (e.g. "1", "on") means kOn.
AggCacheMode AggCacheModeFromEnv();

/// Sentinels in cell_of_row(): a sample contained by no overlay cell, and
/// a sample on a shared cell border (resolved through the per-row
/// exception table, which stores its exact layer hits).
inline constexpr uint32_t kCellOutside = 0xFFFFFFFFu;
inline constexpr uint32_t kCellShared = 0xFFFFFFFEu;

/// How a serve decomposed the overlay and how much exact work it did.
struct AggServeStats {
  size_t interior_cells = 0;  ///< Covered by the wanted set, no candidates.
  size_t boundary_cells = 0;  ///< Holding wanted candidate polygons.
  size_t skipped_cells = 0;   ///< Disjoint from the wanted set.
  size_t groups_from_partials = 0;  ///< Answered with zero sample touches.
  size_t groups_refined = 0;        ///< Boundary groups run through kernels.
  size_t rows_refined = 0;          ///< Rows given exact point tests.
  size_t fringe_rows = 0;    ///< Rows admitted by the window binary search.
  size_t point_tests = 0;    ///< Exact point-in-polygon probes issued.
  size_t full_buckets = 0;   ///< Buckets served wholesale.
  size_t fringe_buckets = 0; ///< Buckets clipped by the window edge.
};

/// Result of serving a (region × time predicate) aggregate from the
/// cache: γ's state over hour buckets with a member sample, the state a
/// scan builds.
struct RegionAggregate {
  gamma::State per_bucket;
  AggServeStats stats;
};

/// Result of serving the "always within" object set from the cache.
struct AlwaysWithinResult {
  std::vector<moving::ObjectId> oids;  ///< Ascending, distinct.
  AggServeStats stats;
};

/// Materialized partial aggregates of one sealed MOFT against one overlay
/// layer, keyed by (overlay cell × hour bucket) — the paper's Sec. 5
/// precomputation idea in the GeoBlocks shape. Build() pins every sample
/// to its overlay cell once (shared-border samples become exceptions
/// carrying their exact layer hits) and groups rows by (cell, bucket),
/// storing per-group sample counts, distinct-Oid presence (sorted Oid
/// sets or a dense bitmap, whichever the builder measures smaller to
/// scan), and per-Oid dwell / leg counts. Serving decomposes a query
/// region into interior cells (answered from partials), disjoint cells
/// (skipped), and boundary cells (refined through the batch geometry
/// kernels), and snaps TimePredicate windows to bucket boundaries with
/// fringe buckets refined via the SamplesBetween binary search. Immutable
/// once built; GeoOlapDatabase caches entries per (moft, layer) and
/// invalidates them with the classification cache (BuildOverlay).
class AggCacheEntry {
 public:
  /// One (cell, bucket) group. `rows` index the sealed columns ascending;
  /// `oids`/`oid_counts` hold the group's distinct Oids ascending with
  /// their dwell (sample) counts; `legs` counts trajectory legs fully
  /// inside the group (consecutive same-object rows).
  struct Group {
    uint32_t cell = 0;
    int64_t bucket = 0;
    uint32_t samples = 0;
    uint32_t rows_begin = 0;
    uint32_t rows_end = 0;
    uint32_t oids_begin = 0;
    uint32_t oids_end = 0;
    uint32_t legs = 0;
  };

  /// Builds the partials for `overlay_layer` (an index into
  /// overlay.layers()) over the moft's sealed columns. The per-row work
  /// (cell location + bucketization) fans out over the thread pool with
  /// ordered merges, so the result is bit-identical for any thread count.
  static AggCacheEntry Build(const moving::Moft& moft,
                             const gis::OverlayDb& overlay,
                             size_t overlay_layer, int threads);

  /// Serves the exact per-bucket aggregate of the samples inside the
  /// wanted geometries (`wanted` is a dense by-GeometryId bitmap over the
  /// layer) that match `when`. nullopt when `when` constrains sub-hour
  /// rollups ("timeId"/"minute") — the one granularity hour buckets
  /// cannot decide — in which case the caller falls back to the scan.
  std::optional<RegionAggregate> RegionAggregates(
      const std::vector<uint8_t>& wanted, const TimePredicate& when,
      const temporal::TimeDimension& dim) const;

  /// Serves the objects that have at least one `when`-matching sample and
  /// no `when`-matching sample outside the wanted geometries — the sample
  /// semantics of QueryEngine::ObjectsAlwaysWithin, ascending by Oid.
  std::optional<AlwaysWithinResult> ObjectsAlwaysWithin(
      const std::vector<uint8_t>& wanted, const TimePredicate& when,
      const temporal::TimeDimension& dim) const;

  size_t num_rows() const { return cell_of_row_.size(); }
  size_t num_groups() const { return groups_.size(); }
  size_t num_buckets() const { return buckets_.size(); }
  size_t num_exceptions() const { return exception_rows_.size(); }
  const std::vector<Group>& groups() const { return groups_; }
  const std::vector<int64_t>& buckets() const { return buckets_; }
  const std::vector<uint32_t>& cell_of_row() const { return cell_of_row_; }

  /// Distinct-Oid representation the builder chose, and the footprint of
  /// both options it measured (bytes the serve loop would scan).
  bool uses_bitmap() const { return uses_bitmap_; }
  size_t bytes_sorted_sets() const { return bytes_sorted_sets_; }
  size_t bytes_bitmap() const { return bytes_bitmap_; }

  /// Approximate resident footprint of the partials, in bytes.
  size_t memory_bytes() const;

  /// The group's distinct Oids, ascending, decoded from whichever
  /// representation the builder chose.
  void AppendGroupOids(const Group& g, std::vector<moving::ObjectId>* out) const;

  /// The group's per-Oid dwell (sample) counts, aligned with
  /// AppendGroupOids order.
  std::vector<uint32_t> GroupDwellCounts(const Group& g) const;

  /// Seal epoch of the MOFT columns the partials were built from.
  uint64_t seal_epoch() const { return view_.seal_epoch(); }

  /// False once the MOFT's columns were rebuilt or released under the
  /// entry (the serve loops still scan boundary rows through view_):
  /// GeoOlapDatabase::AggCache rebuilds stale entries.
  bool valid() const { return view_.valid(); }

  /// Database overlay epoch stamped by GeoOlapDatabase at insert, for
  /// diagnostics (mirrors SampleClassification::epoch).
  uint64_t database_epoch() const { return database_epoch_; }
  void set_database_epoch(uint64_t e) { database_epoch_ = e; }

  /// The MOFT's storage epoch the partials were built at, stamped by
  /// GeoOlapDatabase: ReleaseHot / SpillToDisk bump it in place,
  /// and the cache must not serve partials whose block set has been
  /// swapped.
  uint64_t moft_storage_epoch() const { return moft_storage_epoch_; }
  void set_moft_storage_epoch(uint64_t e) { moft_storage_epoch_ = e; }

 private:
  enum class BucketState : uint8_t { kSkip = 0, kFull = 1, kFringe = 2 };

  /// Per-bucket Skip/Full/Fringe verdicts, aligned with buckets_. The
  /// rollup/hour-range part of `when` is probed once per bucket at an
  /// interior instant (constant across the bucket when no sub-hour
  /// rollup is present); the window clips Full down to Fringe or Skip.
  std::vector<BucketState> ClassifyBuckets(const TimePredicate& when,
                                           const temporal::TimeDimension& dim,
                                           AggServeStats* st) const;

  /// Calls visit(row, is_member) for every row the partials cannot
  /// answer: shared-border rows of full buckets (through their stored
  /// hits) and fringe-bucket rows inside the window (found by the
  /// SamplesBetween binary search, refined exactly).
  void ForEachExactRow(const std::vector<uint8_t>& wanted,
                       const TimePredicate& when,
                       const std::vector<BucketState>& states,
                       const std::vector<uint8_t>& member,
                       const std::vector<uint8_t>& boundary, AggServeStats* st,
                       const std::function<void(size_t, bool)>& visit) const;

  /// Per-cell membership against the wanted bitmap: `member` = some
  /// covered label is wanted (every sample of the cell is a member);
  /// `boundary` = some wanted candidate polygon needs exact tests.
  void ClassifyCells(const std::vector<uint8_t>& wanted,
                     std::vector<uint8_t>* member,
                     std::vector<uint8_t>* boundary,
                     AggServeStats* stats) const;

  BucketState StateOf(const std::vector<BucketState>& states,
                      int64_t bucket) const;

  /// True when row `row` (in a boundary, non-member cell) lies inside
  /// some wanted candidate polygon of its cell — the scalar twin of the
  /// batched refinement, used for fringe rows.
  bool RefineRow(uint32_t row, uint32_t cell,
                 const std::vector<uint8_t>& wanted,
                 AggServeStats* stats) const;

  /// Exact wanted-hit test for an exception (shared-border) row.
  bool ExceptionIsMember(size_t exception_idx,
                         const std::vector<uint8_t>& wanted) const;

  const moving::Moft* moft_ = nullptr;
  const gis::OverlayDb* overlay_ = nullptr;
  size_t layer_ = 0;
  moving::SampleView view_;

  /// Per sealed row: containing cell, kCellOutside, or kCellShared.
  std::vector<uint32_t> cell_of_row_;

  /// Groups sorted by (cell, bucket); kCellOutside groups sort last.
  std::vector<Group> groups_;
  std::vector<uint32_t> rows_;        ///< Concatenated group rows, ascending.
  std::vector<uint32_t> oid_counts_;  ///< Per-group dwell counts, ascending-Oid.
  std::vector<moving::ObjectId> oids_;  ///< Sorted-set representation.
  std::vector<uint64_t> bitmap_words_;  ///< Bitmap representation.
  size_t words_per_group_ = 0;
  std::vector<moving::ObjectId> object_ids_;  ///< Dense object idx -> Oid.
  std::vector<int64_t> buckets_;              ///< Sorted distinct buckets.

  /// Shared-border rows (ascending) with their exact layer hits.
  std::vector<uint32_t> exception_rows_;
  std::vector<uint32_t> exception_offsets_;
  std::vector<gis::GeometryId> exception_hits_;

  /// Per-cell labels of layer_, flattened (covered ids; candidate ids
  /// with their resolved polygons, null entries skipped at serve time —
  /// mirroring LocateInLayerInto).
  std::vector<uint32_t> covered_offsets_;
  std::vector<gis::GeometryId> covered_ids_;
  std::vector<uint32_t> candidate_offsets_;
  std::vector<gis::GeometryId> candidate_ids_;
  std::vector<const geometry::Polygon*> candidate_polys_;

  bool uses_bitmap_ = false;
  size_t bytes_sorted_sets_ = 0;
  size_t bytes_bitmap_ = 0;
  uint64_t database_epoch_ = 0;
  uint64_t moft_storage_epoch_ = 0;
};

}  // namespace piet::core::aggcache

#endif  // PIET_CORE_AGGCACHE_AGG_CACHE_H_
