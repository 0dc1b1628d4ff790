#ifndef PIET_MOVING_MOFT_H_
#define PIET_MOVING_MOFT_H_

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "geometry/point.h"
#include "moving/block_store.h"
#include "moving/moft_columns.h"
#include "olap/fact_table.h"
#include "temporal/interval.h"
#include "temporal/time_point.h"

namespace piet::moving {

/// The Moving Object Fact Table (Sec. 3): a finite set of samples
/// (Oid, t, x, y). Storage is columnar: `Add` appends to a staging buffer
/// in O(1); the first read after a mutation *seals* — sorts the combined
/// rows by (oid, t) once into contiguous per-attribute arrays
/// (MoftColumns) and rebuilds the per-object span index. Reads hand out
/// zero-copy views (SampleView / ObjectSpan / LegView / SampleWindow) over
/// the sealed columns; nothing on a query path copies the fact table.
///
/// Duplicate (Oid, t) pairs are rejected at Add time (an object is at one
/// place at a time); re-adding an identical observation is idempotent.
///
/// Thread safety: concurrent const reads are safe (sealing is internally
/// synchronized and happens at most once per mutation); `Add` must not run
/// concurrently with reads, like any single-writer container. Views borrow
/// the sealed columns — they stay valid until the next seal after a
/// mutation (SampleView::valid() checks the seal epoch) and must not
/// outlive the Moft.
///
/// Block storage: every seal also builds a MoftBlockStore directory of
/// span-aligned blocks with per-block zonemaps (BlockOptions: PIET_BLOCK_ROWS
/// / PIET_COMPRESS, or SetBlockOptions). By default a
/// block is a row range of the sealed columns; with `compress` each block
/// also carries a codec payload, and the whole-table view API above is
/// served by a hot tier materialized from the blocks on demand (and
/// releasable with ReleaseHot). Block-iterating consumers — every query
/// path — go through Blocks() and never need the whole table in RAM.
/// Save/Open round-trip the blocks through an mmap-backed on-disk format
/// so a MOFT larger than RAM spills and pages per block.

/// Catalog-level storage statistics exported to the static query
/// estimator (src/analysis/estimate/): row/span totals, block count and
/// storage-tier flags, per-block zonemaps (copied), and stored vs raw byte
/// footprints.
struct MoftCatalogStats {
  size_t rows = 0;
  size_t spans = 0;
  size_t num_blocks = 0;
  bool compressed = false;  ///< Blocks carry codec payloads.
  bool mapped = false;      ///< Blocks page from an mmap-backed file.
  size_t stored_bytes = 0;  ///< Payload bytes, or the hot column bytes.
  size_t raw_bytes = 0;     ///< Equivalent raw SoA footprint (32 B/row).
  std::vector<BlockMeta> blocks;
};

class Moft {
 public:
  Moft() = default;
  Moft(const Moft& other);
  Moft& operator=(const Moft& other);
  Moft(Moft&& other) noexcept;
  Moft& operator=(Moft&& other) noexcept;
  ~Moft() = default;

  /// Appends an observation. Out-of-order inserts are fine (sorted at the
  /// next seal); a second observation of the same object at the same
  /// instant must agree on the position. Non-finite t, x or y is
  /// InvalidArgument.
  Status Add(ObjectId oid, temporal::TimePoint t, geometry::Point pos);

  size_t num_samples() const { return size_; }
  size_t num_objects() const;

  /// All object ids, ascending.
  std::vector<ObjectId> ObjectIds() const;

  /// The sealed columns (seals first when dirty). Borrowed; stable until
  /// the next mutation + seal.
  const MoftColumns& Columns() const;

  /// Zero-copy view of every sample, ordered by (oid, t).
  SampleView Scan() const;

  /// Time-ordered samples of one object (empty span when unknown).
  ObjectSpan SamplesOf(ObjectId oid) const;

  /// The span of the index-th object in ascending-oid order
  /// (index < num_objects()).
  ObjectSpan SpanAt(size_t index) const;

  /// Samples with t in the closed window [t0, t1], ordered by (oid, t) —
  /// one binary search per object span on the time column, no copies.
  /// Blocks whose time zonemap misses the window are skipped wholesale;
  /// pass `io` to observe the skip counts (only blocks_skipped moves — the
  /// probe reads hot columns, never pins).
  SampleWindow SamplesBetween(temporal::TimePoint t0, temporal::TimePoint t1,
                              BlockIoStats* io = nullptr) const;

  /// Epoch of the current seal (0 = never sealed). Bumps every time the
  /// columns are rebuilt *or the hot tier is dropped* (ReleaseHot); views
  /// taken before a bump are invalid.
  uint64_t seal_epoch() const;

  /// Per-block access to the sealed storage for one block-iterating scan
  /// (seals first when dirty, but does NOT materialize the hot tier).
  /// Borrows the Moft; invalidated by the next mutation + seal.
  TableBlocks Blocks() const;

  /// Block storage knobs applied at the next seal. Defaults to
  /// BlockOptions::FromEnv(), read once at construction.
  void SetBlockOptions(const BlockOptions& opts) { block_options_ = opts; }
  const BlockOptions& block_options() const { return block_options_; }

  /// The sealed block store; nullptr until the first seal.
  const MoftBlockStore* block_store() const;

  /// Drops the materialized hot columns, keeping only the block store
  /// (compressed or mmap-backed bytes). Whole-table reads re-materialize
  /// on demand; outstanding views turn invalid (the seal epoch bumps).
  /// No-op when the blocks have no payloads (the hot columns are the only
  /// copy of the rows) or with staged unsealed rows.
  void ReleaseHot() const;

  /// Writes the sealed blocks as an on-disk block file (always
  /// codec-encoded, whatever the in-memory tier), or maps one back. An
  /// opened Moft is read-only (`Add` fails: the duplicate-detection index
  /// is not rebuilt, so spilled tables never pay RAM for the write path)
  /// and pages blocks from the file on demand.
  Status Save(const std::string& path) const;
  static Result<Moft> Open(const std::string& path);

  /// Save into `block_options().spill_dir` (PIET_SPILL_DIR, defaulting to
  /// the system temp dir), swap storage to the mmap-backed file and
  /// release the hot columns: the table's resident cost drops to the
  /// pages of the blocks queries actually touch. The file is unlinked once
  /// mapped (the mapping keeps its bytes), so spills leave nothing behind
  /// in the directory.
  Status SpillToDisk() const;

  /// Point-in-time storage-tier accounting of one MOFT, for the telemetry
  /// gauges: where the bytes live right now (hot SoA columns, in-memory
  /// codec payloads, mmap-backed file) and how many block pins
  /// are outstanding. Cheap — reads sizes under the seal lock, never
  /// seals or decodes.
  struct StorageFootprint {
    size_t resident_bytes = 0;    ///< Hot columns and staged rows.
    size_t compressed_bytes = 0;  ///< In-memory codec payload bytes.
    size_t spilled_bytes = 0;     ///< mmap-backed on-disk payload bytes.
    int64_t live_pins = 0;        ///< Outstanding block pins.
    bool hot = false;             ///< Hot whole-table tier materialized.

    StorageFootprint& operator+=(const StorageFootprint& o) {
      resident_bytes += o.resident_bytes;
      compressed_bytes += o.compressed_bytes;
      spilled_bytes += o.spilled_bytes;
      live_pins += o.live_pins;
      hot = hot || o.hot;
      return *this;
    }
  };
  StorageFootprint Footprint() const;

  /// Storage statistics for the static query estimator. Seals first when
  /// dirty (like Blocks()); on a clean table it reads sizes and zonemaps
  /// under the seal lock without materializing the hot tier or decoding a
  /// block. The zonemaps are copied out so the caller may hold them across
  /// later mutations.
  MoftCatalogStats CatalogStats() const;

  /// The observation window [min t, max t] across all samples.
  Result<temporal::Interval> TimeSpan() const;

  /// Renders as the paper's Table 1 relation (Oid, t, x, y).
  olap::FactTable ToFactTable() const;

  /// CSV round-trip: "oid,t,x,y" per line, '#' comments allowed.
  Status WriteCsv(std::ostream& out) const;
  static Result<Moft> ReadCsv(std::istream& in);

 private:
  /// Key of the duplicate-observation index. Equality uses double == on t
  /// (so 0.0 and -0.0 collide, matching TimePoint equality); the hash
  /// normalizes -0.0 accordingly.
  struct SampleKey {
    ObjectId oid = 0;
    double t = 0.0;
    friend bool operator==(const SampleKey& a, const SampleKey& b) {
      return a.oid == b.oid && a.t == b.t;
    }
  };
  /// noexcept, so the unordered_map does not cache the hash in each node
  /// (libstdc++ caches it for a hasher that may throw); without the cache
  /// a bucket walk rehashes nodes, so the hash is a few multiplies.
  struct SampleKeyHash {
    size_t operator()(const SampleKey& k) const noexcept {
      uint64_t h = std::bit_cast<uint64_t>(k.t == 0.0 ? 0.0 : k.t) ^
                   static_cast<uint64_t>(k.oid) * 0x9e3779b97f4a7c15ULL;
      h = (h ^ (h >> 32)) * 0xd6e8feb86659fd93ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  static_assert(noexcept(std::declval<const SampleKeyHash&>()(
      std::declval<const SampleKey&>())));

  /// Seals when dirty (merges staging, sorts, rebuilds spans, bumps the
  /// epoch), materializes the hot tier, and returns the columns.
  /// Thread-safe; serialized internally.
  const MoftColumns& EnsureSealed() const;
  /// Seal-if-dirty under seal_mu_ (does not touch the hot tier unless the
  /// merge needs it).
  void EnsureSealedLocked() const;
  /// Rebuilds the hot columns from the block store when released.
  void EnsureHotLocked() const;
  void SealLocked() const;

  /// (oid, t) -> position of every stored sample, for O(1) duplicate
  /// detection on the write path.
  std::unordered_map<SampleKey, geometry::Point, SampleKeyHash> index_;
  mutable size_t size_ = 0;
  mutable std::vector<Sample> staging_;
  mutable MoftColumns cols_;
  mutable std::mutex seal_mu_;

  BlockOptions block_options_ = BlockOptions::FromEnv();
  mutable std::optional<MoftBlockStore> store_;
  /// False when the hot columns were released (store_ is authoritative).
  mutable bool hot_valid_ = true;
  /// Set by Open: no duplicate index, Add is refused.
  bool read_only_ = false;
};

}  // namespace piet::moving

#endif  // PIET_MOVING_MOFT_H_
