#ifndef PIET_CORE_SCAN_H_
#define PIET_CORE_SCAN_H_

#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "core/region.h"
#include "moving/block_store.h"
#include "moving/moft.h"
#include "moving/moft_columns.h"
#include "olap/fact_table.h"
#include "temporal/time_dimension.h"

namespace piet::core {

/// Work counters of one block scan, and of one QueryEngine call. Each
/// worker chunk counts into its own instance and the scan sums them in
/// chunk order, so the totals are thread-count independent: block skip
/// decisions are per-block zonemap tests and the chunk plan depends only
/// on the scan's length, never on the thread count.
struct ScanStats {
  size_t samples_scanned = 0;  ///< MOFT rows visited.
  size_t point_tests = 0;      ///< Exact point-in-polygon tests.
  size_t legs_tested = 0;      ///< Legs refined, after ClipToTime.
  /// Exact (leg, polygon) refines of the leg-major kernel — the pairs whose
  /// boxes meet, out of legs_tested × qualifying polygons.
  size_t leg_refines = 0;
  size_t rows_matched = 0;  ///< Output rows, or the hits a fold consumed.
  /// Block I/O of the scan: pins, codec decodes, zonemap skips. Blocks
  /// without a payload are read from the hot columns and never pinned.
  moving::BlockIoStats blocks;

  ScanStats& operator+=(const ScanStats& other) {
    samples_scanned += other.samples_scanned;
    point_tests += other.point_tests;
    legs_tested += other.legs_tested;
    leg_refines += other.leg_refines;
    rows_matched += other.rows_matched;
    blocks += other.blocks;
    return *this;
  }
};

/// One worker chunk of a scan, as its visitor sees it: the chunk's output
/// (concatenated with the other chunks' in chunk order once the scan
/// ends), caller-defined scratch reused across the chunk's blocks, and
/// the chunk's counters for the visitor's own work (point tests, legs).
template <typename T, typename Scratch>
struct ScanChunk {
  std::vector<T> out;
  Scratch scratch;
  ScanStats stats;
};

/// Scratch type of visitors that need none.
struct NoScratch {};

/// Appends one chunk's output to a scan's result, in chunk order: a vector
/// takes the elements, a FactTable the rows.
template <typename T>
Status AppendChunk(std::vector<T>* out, std::vector<T>&& chunk) {
  out->insert(out->end(), std::make_move_iterator(chunk.begin()),
              std::make_move_iterator(chunk.end()));
  return Status::OK();
}

inline Status AppendChunk(olap::FactTable* out,
                          std::vector<olap::Row>&& chunk) {
  for (olap::Row& row : chunk) {
    PIET_RETURN_NOT_OK(out->Append(std::move(row)));
  }
  return Status::OK();
}

/// The rows of one admitted block that match the scan's time predicate,
/// as ascending runs [begin, end) of block-local rows (one run per object
/// under the window probe), so no per-row selection is materialized.
struct SampleRows {
  const moving::MoftColumns& data;  ///< The block, rows re-based at 0.
  std::span<const moving::RowRun> runs;
  size_t row_base;                  ///< Global row of local row 0.

  /// Calls fn(i) for every matching local row i, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [lo, hi] : runs) {
      for (size_t i = lo; i < hi; ++i) {
        fn(i);
      }
    }
  }
};

/// One object clipped to a time predicate by ClipToTime.
struct TimeClip {
  moving::ObjectSpan span;        ///< Samples whose legs meet hull(time_ok).
  temporal::IntervalSet time_ok;  ///< Where `when` holds; empty: skip it.
};

/// Clips one object to `when` before any geometry runs (DESIGN.md §12):
/// the legs left out lie wholly outside hull(time_ok), so the clipped
/// LIT ∩ time_ok is bit-identical. An unconstrained `when` keeps all legs.
inline Result<TimeClip> ClipToTime(const TimePredicate& when,
                                   const temporal::TimeDimension& dim,
                                   const moving::ObjectSpan& span) {
  PIET_ASSIGN_OR_RETURN(
      temporal::IntervalSet time_ok,
      when.MatchingIntervals(dim, {span.front().t, span.back().t}));
  const auto& ivs = time_ok.intervals();
  if (ivs.empty() || when.unconstrained()) {
    return TimeClip{span, std::move(time_ok)};
  }
  return TimeClip{span.LegsMeeting(ivs.front().begin, ivs.back().end),
                  std::move(time_ok)};
}

/// The block-scan operator both front ends lower onto: QueryEngine's
/// methods and every moft_intersect branch of the Piet-QL evaluator.
/// One BlockScan serves one scan of one MOFT and owns what every scan
/// repeats: the zonemap filter of `when` (plus, given `polys`, the union
/// of their boxes; see ScanZoneFilter), a fan-out over deterministic
/// chunks whose outputs concatenate in chunk order (the serial sequence
/// for any thread count), first-error-wins Status (in chunk order), and
/// the rows_scanned / block I/O accounting. Call sites supply only the
/// per-rows or per-object work.
class BlockScan {
 public:
  /// `moft` must outlive the scan.
  BlockScan(const moving::Moft& moft, const TimePredicate& when,
            const std::vector<const geometry::Polygon*>* polys, int threads)
      : blocks_(moft.Blocks()),
        when_(when),
        filter_(ScanZoneFilter(when, polys)),
        threads_(parallel::ResolveThreads(threads)) {}

  /// The sample scan: calls visit(const SampleRows&, ScanChunk<T,
  /// Scratch>&) once per admitted block of a chunk with the rows matching
  /// `when`, in (oid, t) order, and appends the chunks' outputs to `out`
  /// (a std::vector<T>, or a FactTable when T is olap::Row). A pure window
  /// (`when.window_only()`) is answered by the time-window probe — one
  /// binary search per object span, visiting only the window's rows; any
  /// other predicate walks the admitted blocks' rows and applies
  /// `when.Matches`. samples_scanned counts the rows the probe or the walk
  /// visited.
  template <typename T, typename Scratch = NoScratch, typename Out,
            typename Visit>
  Status Samples(const temporal::TimeDimension& dim, Out* out,
                 Visit&& visit) {
    using Chunk = ScanChunk<T, Scratch>;
    if (when_.window_only()) {
      const double t0 = when_.window()->begin.seconds;
      const double t1 = when_.window()->end.seconds;
      return Run<T, Scratch>(
          blocks_.total_spans(), out,
          [&](size_t begin, size_t end, Chunk& chunk) -> Status {
            std::vector<moving::RowRun> runs;
            return blocks_.ForEachSpanRange(
                begin, end, filter_, &chunk.stats.blocks,
                [&](const moving::MoftColumns& data, size_t sb, size_t se,
                    size_t row_base) -> Status {
                  runs.clear();
                  for (size_t s = sb; s < se; ++s) {
                    const moving::RowRun run =
                        moving::WindowRowsOf(data, data.spans[s], t0, t1);
                    if (run.first < run.second) {
                      chunk.stats.samples_scanned += run.second - run.first;
                      runs.push_back(run);
                    }
                  }
                  if (!runs.empty()) {
                    visit(SampleRows{data, runs, row_base}, chunk);
                  }
                  return Status::OK();
                });
          });
    }
    return Run<T, Scratch>(
        blocks_.total_rows(), out,
        [&](size_t begin, size_t end, Chunk& chunk) -> Status {
          std::vector<moving::RowRun> runs;
          return blocks_.ForEachRowRange(
              begin, end, filter_, &chunk.stats.blocks,
              [&](const moving::MoftColumns& data, size_t lo, size_t hi,
                  size_t row_base) -> Status {
                chunk.stats.samples_scanned += hi - lo;
                runs.clear();
                for (size_t i = lo; i < hi; ++i) {
                  if (!when_.Matches(dim, temporal::TimePoint(data.t[i]))) {
                    continue;
                  }
                  if (!runs.empty() && runs.back().second == i) {
                    ++runs.back().second;
                  } else {
                    runs.emplace_back(i, i + 1);
                  }
                }
                if (!runs.empty()) {
                  visit(SampleRows{data, runs, row_base}, chunk);
                }
                return Status::OK();
              });
        });
  }

  /// The object-span scan: calls visit(const moving::ObjectSpan&,
  /// ScanChunk<T, Scratch>&) -> Status for every object of an admitted
  /// block, in oid order, with the object's full history (an object never
  /// splits across blocks). `when` only filters blocks here; the visitor
  /// applies it to the object. samples_scanned counts the visited rows.
  /// `out` is as for Samples.
  template <typename T, typename Scratch = NoScratch, typename Out,
            typename Visit>
  Status Spans(Out* out, Visit&& visit) {
    using Chunk = ScanChunk<T, Scratch>;
    return Run<T, Scratch>(
        blocks_.total_spans(), out,
        [&](size_t begin, size_t end, Chunk& chunk) -> Status {
          return blocks_.ForEachSpan(
              begin, end, filter_, &chunk.stats.blocks,
              [&](const moving::MoftColumns& data,
                  const moving::MoftColumns::Span& sp) -> Status {
                chunk.stats.samples_scanned += sp.end - sp.begin;
                return visit(moving::ObjectSpan(&data, sp), chunk);
              });
        });
  }

  /// The counters of every scan run so far, all chunks included (also
  /// those after a failing one).
  const ScanStats& stats() const { return stats_; }

 private:
  /// Fans body(begin, end, chunk) out over the chunks of [0, n) and
  /// appends their outputs to `out` in chunk order, up to the first
  /// failing chunk.
  template <typename T, typename Scratch, typename Out, typename Body>
  Status Run(size_t n, Out* out, Body&& body) {
    struct Slot {
      ScanChunk<T, Scratch> chunk;
      Status status;
    };
    Status failed;
    parallel::OrderedReduce<Slot>(
        threads_, n,
        [&](size_t /*chunk*/, size_t begin, size_t end, Slot* slot) {
          slot->status = body(begin, end, slot->chunk);
        },
        [&](Slot&& slot) {
          stats_ += slot.chunk.stats;
          if (failed.ok()) {
            failed = slot.status;
          }
          if (failed.ok()) {
            failed = AppendChunk(out, std::move(slot.chunk.out));
          }
        });
    return failed;
  }

  const moving::TableBlocks blocks_;
  const TimePredicate when_;
  const moving::ZoneFilter filter_;
  const int threads_;
  ScanStats stats_;
};

}  // namespace piet::core

#endif  // PIET_CORE_SCAN_H_
