#ifndef PIET_MOVING_BLOCK_STORE_H_
#define PIET_MOVING_BLOCK_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "geometry/box.h"
#include "moving/moft_columns.h"
#include "temporal/interval.h"

namespace piet::moving {

/// Knobs of the chunked block-store MOFT core. Every seal builds a
/// MoftBlockStore directory with these knobs; the defaults keep the rows in
/// the table's hot columns and add only the per-block metas.
struct BlockOptions {
  /// Target rows per block (blocks close at the next object-span
  /// boundary; one object never splits across blocks).
  size_t block_rows = 65536;
  /// Encode sealed blocks with the lossless block codec (delta-of-delta
  /// style timestamps, predictive-XOR coordinates, dictionary oids).
  bool compress = false;
  /// Directory for Moft::SpillToDisk (defaults to PIET_SPILL_DIR, then
  /// the system temp directory).
  std::string spill_dir;

  /// PIET_BLOCK_ROWS / PIET_COMPRESS / PIET_SPILL_DIR, read once per
  /// process.
  static BlockOptions FromEnv();
};

/// Per-block zonemap + row/span directory entry. Row and span coordinates
/// are global (over the whole logical table); blocks partition both ranges
/// in ascending order.
struct BlockMeta {
  size_t row_begin = 0;
  size_t row_end = 0;
  size_t span_begin = 0;
  size_t span_end = 0;
  ObjectId oid_min = 0;
  ObjectId oid_max = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  double x_min = 0.0;
  double x_max = 0.0;
  double y_min = 0.0;
  double y_max = 0.0;

  size_t rows() const { return row_end - row_begin; }
};

/// Conjunctive zonemap predicate: a block whose meta cannot intersect the
/// given closed time window and/or bounding box is skipped wholesale.
struct ZoneFilter {
  std::optional<temporal::Interval> window;
  std::optional<geometry::BoundingBox> bbox;

  /// An inverted window (end < begin) matches no instant and admits no
  /// block.
  bool Admits(const BlockMeta& m) const {
    if (window && (window->end < window->begin ||
                   m.t_max < window->begin.seconds ||
                   window->end.seconds < m.t_min)) {
      return false;
    }
    if (bbox && (m.x_max < bbox->min_x || bbox->max_x < m.x_min ||
                 m.y_max < bbox->min_y || bbox->max_y < m.y_min)) {
      return false;
    }
    return true;
  }
};

/// Chunk-local I/O accounting of one block-iterating scan; merged into
/// EngineStats / obs counters by the consumer.
struct BlockIoStats {
  /// Payload blocks pinned, each decoded by its pin (once per block per
  /// scan); the decode count the traces and engine.blocks_decoded report.
  size_t blocks_pinned = 0;
  size_t blocks_skipped = 0;  ///< Blocks a ZoneFilter ruled out (once each).

  BlockIoStats& operator+=(const BlockIoStats& o) {
    blocks_pinned += o.blocks_pinned;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }
};

/// Immutable directory of span-aligned MOFT blocks with per-block
/// zonemaps. Either every block carries a codec payload — compressed bytes
/// in memory, or a slice of an mmap-backed file (pins decode into a pooled
/// scratch buffer) — or none does: then block b is the global rows
/// [meta(b).row_begin, meta(b).row_end) of the table's hot columns, which
/// the store does not own. Rows keep the global (oid, t) sort; a pinned
/// block presents its rows re-based at 0 with block-local spans.
///
/// Thread safety: all const methods (including Pin) are safe to call
/// concurrently; the scratch pool is internally synchronized.
class MoftBlockStore {
 public:
  /// RAII handle to one block's decoded columns: `data()` borrows a
  /// pooled scratch buffer returned to the pool on destruction. Must not
  /// outlive the store.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept
        : store_(o.store_), scratch_(std::move(o.scratch_)) {
      o.store_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin();

    const MoftColumns& data() const { return *scratch_; }

   private:
    friend class MoftBlockStore;
    /// Releases the scratch (if any) and the live-pin count exactly once.
    void Unpin();
    const MoftBlockStore* store_ = nullptr;
    std::unique_ptr<MoftColumns> scratch_;
  };

  MoftBlockStore() = default;
  MoftBlockStore(MoftBlockStore&&) noexcept = default;
  MoftBlockStore& operator=(MoftBlockStore&&) noexcept = default;
  MoftBlockStore(const MoftBlockStore&) = delete;
  MoftBlockStore& operator=(const MoftBlockStore&) = delete;

  /// Chunks sealed columns into span-aligned blocks of ~opts.block_rows
  /// rows and computes their zonemaps. With opts.compress each block gets
  /// a codec payload and the store owns all its bytes (the source columns
  /// may be released afterwards); without it the blocks are ranges of
  /// `cols`. `cols` must be sealed (sorted, spans built); pruning is the
  /// caller's job (Moft applies it before building).
  static MoftBlockStore Build(const MoftColumns& cols,
                              const BlockOptions& opts);

  size_t num_blocks() const { return blocks_.size(); }
  size_t total_rows() const { return total_rows_; }
  size_t total_spans() const { return total_spans_; }
  const BlockMeta& meta(size_t b) const { return blocks_[b]->meta; }
  /// True when every block carries a codec payload (in memory or mapped);
  /// false when the blocks are ranges of the hot columns.
  bool compressed() const { return compressed_; }
  bool mapped() const { return mapped_file_ != nullptr; }

  /// Bytes at rest (the codec payloads, or the hot column bytes the
  /// blocks cover; metas excluded) and the equivalent raw SoA footprint
  /// (32 bytes per row).
  size_t stored_bytes() const { return stored_bytes_; }
  size_t raw_bytes() const { return total_rows_ * 4 * sizeof(double); }

  /// Outstanding Pin handles (telemetry gauge; 0 once readers finish).
  int64_t live_pins() const;

  /// Index of the block containing global row / global span (binary
  /// search; row < total_rows(), span < total_spans()).
  size_t BlockOfRow(size_t row) const;
  size_t BlockOfSpan(size_t span) const;

  /// Pins block b of a compressed() store: a decode into pooled scratch.
  /// A payload that fails to decode (a corrupted file) returns the codec's
  /// error instead of a pin.
  Result<Pin> PinBlock(size_t b) const;

  /// Decodes every block into one contiguous whole-table columns object
  /// (global rows and spans). Preserves out->seal_epoch. The whole-table
  /// views have no error channel, so a block that fails to decode leaves
  /// `out` empty: no view sees a table with a block missing. Block walks
  /// (TableBlocks) report the failure.
  void MaterializeInto(MoftColumns* out) const;

  /// On-disk round trip: a directory of zonemaps plus one codec payload
  /// per block. Save encodes blocks without a payload from `hot`, the
  /// columns the store was built over. Open maps the file and serves pins
  /// straight from the mapping, so only the pages of the blocks a query
  /// touches fault in.
  Status Save(const std::string& path,
              const MoftColumns* hot = nullptr) const;
  static Result<MoftBlockStore> Open(const std::string& path);

 private:
  struct Block {
    BlockMeta meta;
    /// Owned payload bytes or a payload slice of the mapped file; neither
    /// when the block is a range of the hot columns.
    std::string payload;
    std::string_view mapped_payload;

    std::string_view PayloadView() const {
      return mapped_payload.data() != nullptr ? mapped_payload
                                              : std::string_view(payload);
    }
  };

  class MappedFile;

  static BlockMeta ComputeMeta(const MoftColumns& cols, size_t span_begin,
                               size_t span_end);

  std::unique_ptr<MoftColumns> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<MoftColumns> scratch) const;

  std::vector<std::unique_ptr<Block>> blocks_;
  size_t total_rows_ = 0;
  size_t total_spans_ = 0;
  size_t stored_bytes_ = 0;
  bool compressed_ = false;
  std::shared_ptr<MappedFile> mapped_file_;

  /// Reusable decode buffers, shared by all pins of this store (behind a
  /// pointer so the store stays movable despite the mutex).
  struct ScratchPool {
    std::mutex mu;
    std::vector<std::unique_ptr<MoftColumns>> buffers;
    /// Outstanding pins of this store.
    std::atomic<int64_t> live_pins{0};
  };
  std::unique_ptr<ScratchPool> pool_ = std::make_unique<ScratchPool>();
};

/// Uniform per-block access to a Moft's sealed storage. Query fan-outs
/// iterate ranges of global rows/spans through this facade; blocks a
/// ZoneFilter rules out are skipped wholesale (and their rows never
/// scanned). A block without a payload hands the callback the hot columns
/// in global coordinates (row_base 0) and takes no pin.
///
/// One TableBlocks serves one scan. Its chunks share one pin per admitted
/// payload block: the first chunk that reaches a block pins (decodes) it,
/// later chunks borrow the same columns, and the pin goes back to the store —
/// its scratch buffer to the pool — once the chunks have consumed every
/// row (row walks) or span (span walks) of the block. A fan-out over the
/// whole table therefore decodes each admitted block at most once, and
/// its decoded scratch stays bounded by the blocks in flight. Pins a scan
/// left unfinished (an early error, a partial range) are released with
/// the TableBlocks. A block that fails to decode fails every walk that
/// reaches it with the codec's Status. Borrows the Moft's storage — must
/// not outlive it or span a reseal.
class TableBlocks {
 public:
  TableBlocks(const MoftColumns& hot, const MoftBlockStore& store);

  size_t total_rows() const { return store_->total_rows(); }
  size_t total_spans() const { return store_->total_spans(); }
  size_t num_blocks() const { return store_->num_blocks(); }

  /// Calls fn(data, local_begin, local_end) for each admitted block
  /// intersecting global rows [begin, end), ascending. `data` is the
  /// block's columns with rows re-based at 0 (the hot columns, based at 0
  /// already, for a block without a payload); chunk boundaries are in
  /// global row coordinates, so the concatenation over all chunks visits
  /// exactly the serial row sequence. fn may take a fourth argument, the
  /// global row of the data's local row 0. fn returns Status; the first
  /// failure stops the walk.
  template <typename Fn>
  Status ForEachRowRange(size_t begin, size_t end, const ZoneFilter& filter,
                         BlockIoStats* io, Fn&& fn) const {
    for (size_t b = begin < end ? store_->BlockOfRow(begin) : num_blocks();
         b < num_blocks() && store_->meta(b).row_begin < end; ++b) {
      const BlockMeta& m = store_->meta(b);
      const size_t gb = begin > m.row_begin ? begin : m.row_begin;
      const size_t ge = end < m.row_end ? end : m.row_end;
      if (gb >= ge) {
        continue;
      }
      if (!filter.Admits(m)) {
        // Counted by the walk holding the block's first row, so a block
        // split across chunks counts once.
        io->blocks_skipped += gb == m.row_begin ? 1 : 0;
        continue;
      }
      PIET_ASSIGN_OR_RETURN(const MoftColumns* data, Acquire(b, io));
      const size_t base = data == hot_ ? 0 : m.row_begin;
      Status st = Call(fn, *data, gb - base, ge - base, base);
      Release(b, Unit::kRows, ge - gb);
      PIET_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  /// Calls fn(data, span) for each object span with global index in
  /// [span_begin, span_end) whose block a ZoneFilter admits, ascending.
  /// `span` is block-local (valid against `data`); one object is never
  /// split across blocks, so fn always sees the object's full history.
  template <typename Fn>
  Status ForEachSpan(size_t span_begin, size_t span_end,
                     const ZoneFilter& filter, BlockIoStats* io,
                     Fn&& fn) const {
    return ForEachSpanRange(span_begin, span_end, filter, io,
                            [&](const MoftColumns& data, size_t sb,
                                size_t se, size_t /*row_base*/) -> Status {
                              for (size_t s = sb; s < se; ++s) {
                                PIET_RETURN_NOT_OK(fn(data, data.spans[s]));
                              }
                              return Status::OK();
                            });
  }

  /// Calls fn(data, local_span_begin, local_span_end, row_base) once per
  /// admitted block intersecting global spans [span_begin, span_end),
  /// ascending: the block-local spans [local_span_begin, local_span_end)
  /// of `data`, whose global rows start at row_base. fn returns Status;
  /// the first failure stops the walk.
  template <typename Fn>
  Status ForEachSpanRange(size_t span_begin, size_t span_end,
                          const ZoneFilter& filter, BlockIoStats* io,
                          Fn&& fn) const {
    for (size_t b = span_begin < span_end ? store_->BlockOfSpan(span_begin)
                                          : num_blocks();
         b < num_blocks() && store_->meta(b).span_begin < span_end; ++b) {
      const BlockMeta& m = store_->meta(b);
      const size_t sb = span_begin > m.span_begin ? span_begin : m.span_begin;
      const size_t se = span_end < m.span_end ? span_end : m.span_end;
      if (sb >= se) {
        continue;
      }
      if (!filter.Admits(m)) {
        io->blocks_skipped += sb == m.span_begin ? 1 : 0;
        continue;
      }
      PIET_ASSIGN_OR_RETURN(const MoftColumns* data, Acquire(b, io));
      const bool hot = data == hot_;
      const size_t base = hot ? 0 : m.span_begin;
      Status st = fn(*data, sb - base, se - base, hot ? 0 : m.row_begin);
      Release(b, Unit::kSpans, se - sb);
      PIET_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

 private:
  enum class Unit { kRows, kSpans };

  /// One block's shared pin (see the class comment).
  struct Slot {
    std::mutex mu;
    MoftBlockStore::Pin pin;
    bool pinned = false;
    size_t left[2] = {0, 0};  ///< Rows / spans not yet consumed.
  };

  template <typename Fn>
  static Status Call(Fn& fn, const MoftColumns& data, size_t lo, size_t hi,
                     size_t row_base) {
    if constexpr (std::is_invocable_v<Fn&, const MoftColumns&, size_t,
                                      size_t, size_t>) {
      return fn(data, lo, hi, row_base);
    } else {
      return fn(data, lo, hi);
    }
  }

  /// The hot columns for a block without a payload; otherwise pins block
  /// b unless a chunk already holds it, and the pinning call accounts the
  /// pin in `io`.
  Result<const MoftColumns*> Acquire(size_t b, BlockIoStats* io) const;
  /// Marks `n` rows or spans of block b consumed; the last ones unpin it.
  /// No-op for a block without a payload.
  void Release(size_t b, Unit unit, size_t n) const;

  const MoftColumns* hot_;
  const MoftBlockStore* store_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace piet::moving

#endif  // PIET_MOVING_BLOCK_STORE_H_
