#ifndef PIET_CORE_AGGCACHE_AGG_CACHE_H_
#define PIET_CORE_AGGCACHE_AGG_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/gamma.h"
#include "core/region.h"
#include "gis/layer.h"
#include "moving/moft.h"
#include "temporal/time_dimension.h"

namespace piet::core {
struct SampleClassification;
}  // namespace piet::core

namespace piet::core::aggcache {

/// Whether the materialized aggregate cache may serve count/aggregate
/// queries. kOn answers region aggregates from per-(hit set × hour
/// bucket) partials, touching samples only in fringe buckets; answers are
/// bit-identical to the uncached scans (the exactness contract). kOff
/// leaves every query on the scan paths.
enum class AggCacheMode {
  kOff = 0,
  kOn = 1,
};

/// Reads PIET_AGG_CACHE: unset / "" / "0" / "off" / "false" mean kOff,
/// anything else (e.g. "1", "on") means kOn.
AggCacheMode AggCacheModeFromEnv();

/// How a serve decomposed the table and how many samples it touched.
struct AggServeStats {
  size_t groups_from_partials = 0;  ///< Answered with zero sample touches.
  size_t fringe_rows = 0;    ///< Fringe-bucket rows read by the block walk.
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

/// Materialized partial aggregates of one MOFT against one overlay layer,
/// keyed by (hit set × hour bucket) — the paper's Sec. 5 precomputation
/// idea in the GeoBlocks shape. A row's hit set is its containing layer
/// ids as the database's SampleClassification holds them (ascending,
/// deduplicated), interned to a small id in the order rows first show it.
/// Build() walks the MOFT's blocks once for each row's Oid and t and
/// stores per-group sample counts and distinct-Oid presence (sorted Oid
/// sets or a dense bitmap, whichever the builder measures smaller to
/// scan). A row is a member of a wanted region exactly when its hit set
/// meets the wanted ids — the per-row answer of the kOverlay scan — so a
/// serve decides each hit set once and answers every full-bucket group
/// from partials with zero point tests. TimePredicate windows snap to
/// bucket boundaries; the rows of the fringe buckets are found by a
/// windowed block walk and read their membership from the classification.
/// Immutable once built and borrows no MOFT storage; GeoOlapDatabase
/// caches entries per (MOFT, overlay epoch), like the classification, and
/// BuildOverlay drops them.
class AggCacheEntry {
 public:
  /// One (hit set, bucket) group: its sample count and its distinct Oids
  /// (indices into the chosen representation).
  struct Group {
    uint32_t hit_set = 0;
    int64_t bucket = 0;
    uint32_t samples = 0;
    uint32_t oids_begin = 0;
    uint32_t oids_end = 0;
  };

  /// Builds the partials of `moft` over its classification against one
  /// overlay layer (hits indexed by global row). A block that fails to
  /// decode fails the build with the codec's Status.
  static Result<AggCacheEntry> Build(
      const moving::Moft& moft,
      std::shared_ptr<const SampleClassification> classification);

  /// Serves the exact per-bucket aggregate of the samples inside the
  /// wanted geometries (`wanted` is a dense by-GeometryId bitmap over the
  /// layer) that match `when`. InvalidArgument when `when` constrains
  /// sub-hour rollups ("timeId"/"minute") — the one granularity hour
  /// buckets cannot decide, which QueryEngine's probe refuses first — and
  /// the codec's Status when a fringe block fails to decode.
  Result<RegionAggregate> RegionAggregates(
      const std::vector<uint8_t>& wanted, const TimePredicate& when,
      const temporal::TimeDimension& dim) const;

  /// Serves the objects that have at least one `when`-matching sample and
  /// no `when`-matching sample outside the wanted geometries — the sample
  /// semantics of QueryEngine::ObjectsAlwaysWithin, ascending by Oid.
  /// Fails like RegionAggregates.
  Result<AlwaysWithinResult> ObjectsAlwaysWithin(
      const std::vector<uint8_t>& wanted, const TimePredicate& when,
      const temporal::TimeDimension& dim) const;

  size_t num_rows() const { return num_rows_; }
  size_t num_groups() const { return groups_.size(); }
  size_t num_hit_sets() const { return set_offsets_.size() - 1; }
  const std::vector<Group>& groups() const { return groups_; }
  const std::vector<int64_t>& buckets() const { return buckets_; }

  /// Distinct-Oid representation the builder chose, and the footprint of
  /// both options it measured (bytes the serve loop would scan).
  bool uses_bitmap() const { return uses_bitmap_; }
  size_t bytes_sorted_sets() const { return bytes_sorted_sets_; }
  size_t bytes_bitmap() const { return bytes_bitmap_; }

  /// Approximate resident footprint of the partials, in bytes (the
  /// shared classification is accounted by db.classify.bytes).
  size_t memory_bytes() const;

  /// The group's distinct Oids, ascending, decoded from whichever
  /// representation the builder chose.
  void AppendGroupOids(const Group& g, std::vector<moving::ObjectId>* out) const;

  /// The overlay epoch of the classification the partials were built from.
  uint64_t database_epoch() const;

 private:
  enum class BucketState : uint8_t { kSkip = 0, kFull = 1, kFringe = 2 };

  /// Per-bucket Skip/Full/Fringe verdicts, aligned with buckets_. The
  /// rollup/hour-range part of `when` is probed once per bucket at an
  /// interior instant (constant across the bucket when no sub-hour
  /// rollup is present); the window clips Full down to Fringe or Skip.
  std::vector<BucketState> ClassifyBuckets(const TimePredicate& when,
                                           const temporal::TimeDimension& dim,
                                           AggServeStats* st) const;

  BucketState StateOf(const std::vector<BucketState>& states,
                      int64_t bucket) const;

  /// Per hit set: 1 when it meets the wanted ids.
  std::vector<uint8_t> MemberSets(const std::vector<uint8_t>& wanted) const;

  /// Calls visit(oid, t, is_member) for every fringe-bucket row inside the
  /// window, found by a windowed walk of the MOFT's blocks.
  Status ForEachFringeRow(
      const std::vector<uint8_t>& wanted, const TimePredicate& when,
      const std::vector<BucketState>& states, AggServeStats* st,
      const std::function<void(moving::ObjectId, double, bool)>& visit) const;

  const moving::Moft* moft_ = nullptr;
  std::shared_ptr<const SampleClassification> classification_;
  size_t num_rows_ = 0;

  /// Interned hit sets: set k's ids are set_ids_[set_offsets_[k] ..
  /// set_offsets_[k + 1]).
  std::vector<uint32_t> set_offsets_{0};
  std::vector<gis::GeometryId> set_ids_;

  /// Groups sorted by (hit set, bucket).
  std::vector<Group> groups_;
  std::vector<moving::ObjectId> oids_;  ///< Sorted-set representation.
  std::vector<uint64_t> bitmap_words_;  ///< Bitmap representation.
  size_t words_per_group_ = 0;
  std::vector<moving::ObjectId> object_ids_;  ///< Dense object idx -> Oid.
  std::vector<int64_t> buckets_;              ///< Sorted distinct buckets.

  bool uses_bitmap_ = false;
  size_t bytes_sorted_sets_ = 0;
  size_t bytes_bitmap_ = 0;
};

}  // namespace piet::core::aggcache

#endif  // PIET_CORE_AGGCACHE_AGG_CACHE_H_
