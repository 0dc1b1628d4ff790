#include "core/aggcache/agg_cache.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <string>

#include "common/parallel.h"
#include "core/geometry/batch.h"
#include "obs/metrics.h"
#include "temporal/calendar.h"

namespace piet::core::aggcache {

namespace {

using moving::MoftColumns;
using temporal::TimePoint;

constexpr double kBucketSeconds = 3600.0;

bool IsWanted(const std::vector<uint8_t>& wanted, gis::GeometryId id) {
  return id >= 0 && static_cast<size_t>(id) < wanted.size() &&
         wanted[static_cast<size_t>(id)] != 0;
}

/// Shared batched refinement of one boundary-cell group: mask[i] = 1 iff
/// the group's i-th row lies inside some wanted candidate polygon of its
/// cell. Batchers are built lazily per candidate geometry and reused
/// across groups and cells within one serve.
struct GroupRefiner {
  const MoftColumns* cols = nullptr;
  const std::vector<uint32_t>* rows = nullptr;
  const std::vector<uint32_t>* cand_offsets = nullptr;
  const std::vector<gis::GeometryId>* cand_ids = nullptr;
  const std::vector<const geometry::Polygon*>* cand_polys = nullptr;

  std::map<gis::GeometryId, batch::PolygonBatcher> batchers{};
  batch::BatchScratch scratch{};
  std::vector<double> xs{}, ys{};
  std::vector<uint8_t> verdict{};

  void Mask(const AggCacheEntry::Group& g, const std::vector<uint8_t>& wanted,
            std::vector<uint8_t>* mask, AggServeStats* st) {
    xs.clear();
    ys.clear();
    for (uint32_t k = g.rows_begin; k < g.rows_end; ++k) {
      const uint32_t row = (*rows)[k];
      xs.push_back(cols->x[row]);
      ys.push_back(cols->y[row]);
    }
    mask->assign(xs.size(), 0);
    for (uint32_t c = (*cand_offsets)[g.cell]; c < (*cand_offsets)[g.cell + 1];
         ++c) {
      const geometry::Polygon* pg = (*cand_polys)[c];
      if (pg == nullptr || !IsWanted(wanted, (*cand_ids)[c])) {
        continue;
      }
      auto it = batchers.find((*cand_ids)[c]);
      if (it == batchers.end()) {
        it = batchers.emplace((*cand_ids)[c], batch::PolygonBatcher(pg)).first;
      }
      it->second.ContainsBatch(xs, ys, &scratch, &verdict);
      st->point_tests += xs.size();
      for (size_t i = 0; i < mask->size(); ++i) {
        (*mask)[i] = static_cast<uint8_t>((*mask)[i] | verdict[i]);
      }
    }
    st->rows_refined += xs.size();
    ++st->groups_refined;
  }
};

/// The at-most-two padded time slices holding every window row of a
/// fringe bucket. Rows outside fringe buckets that land in a slice are
/// filtered by the per-row bucket-state check.
std::vector<temporal::Interval> FringeSlices(const temporal::Interval& w) {
  const int64_t b_first = temporal::HourBucketKey(w.begin);
  const int64_t b_last = temporal::HourBucketKey(w.end);
  const double lo1 = w.begin.seconds;
  const double hi1 = std::min(
      w.end.seconds, static_cast<double>(b_first) + kBucketSeconds + 1.0);
  const double lo2 =
      std::max(w.begin.seconds, static_cast<double>(b_last) - 1.0);
  const double hi2 = w.end.seconds;
  if (hi1 >= lo2) {
    return {temporal::Interval(w.begin, w.end)};
  }
  return {temporal::Interval(TimePoint(lo1), TimePoint(hi1)),
          temporal::Interval(TimePoint(lo2), TimePoint(hi2))};
}

/// Flushes one serve's decomposition into the pietql.aggcache.* counters.
void CountServe(const AggServeStats& st) {
  if (!obs::Enabled()) {
    return;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("pietql.aggcache.served").Add(1);
  registry.GetCounter("pietql.aggcache.cells_interior")
      .Add(static_cast<int64_t>(st.interior_cells));
  registry.GetCounter("pietql.aggcache.cells_boundary")
      .Add(static_cast<int64_t>(st.boundary_cells));
  registry.GetCounter("pietql.aggcache.cells_skipped")
      .Add(static_cast<int64_t>(st.skipped_cells));
  registry.GetCounter("pietql.aggcache.groups_from_partials")
      .Add(static_cast<int64_t>(st.groups_from_partials));
  registry.GetCounter("pietql.aggcache.rows_refined")
      .Add(static_cast<int64_t>(st.rows_refined));
  registry.GetCounter("pietql.aggcache.fringe_rows")
      .Add(static_cast<int64_t>(st.fringe_rows));
}

}  // namespace

AggCacheMode AggCacheModeFromEnv() {
  const char* env = std::getenv("PIET_AGG_CACHE");
  if (env == nullptr) {
    return AggCacheMode::kOff;
  }
  const std::string v(env);
  if (v.empty() || v == "0" || v == "off" || v == "false") {
    return AggCacheMode::kOff;
  }
  return AggCacheMode::kOn;
}

AggCacheEntry AggCacheEntry::Build(const moving::Moft& moft,
                                   const gis::OverlayDb& overlay,
                                   size_t overlay_layer, int threads) {
  AggCacheEntry e;
  e.moft_ = &moft;
  e.overlay_ = &overlay;
  e.layer_ = overlay_layer;
  e.view_ = moft.Scan();
  const MoftColumns& cols = *e.view_.columns();
  const size_t n = cols.size();

  // Pin every row to its overlay cell and hour bucket. Per-row work is
  // pure, chunks write disjoint ranges, and shared-border rows merge in
  // chunk order — bit-identical for any thread count.
  e.cell_of_row_.assign(n, kCellOutside);
  std::vector<int64_t> bucket_of(n);
  struct LocateChunk {
    std::vector<uint32_t> shared_rows;
  };
  parallel::OrderedReduce<LocateChunk>(
      threads, n,
      [&](size_t /*chunk*/, size_t begin, size_t end, LocateChunk* out) {
        std::vector<uint32_t> cells;
        for (size_t i = begin; i < end; ++i) {
          bucket_of[i] = temporal::HourBucketKey(TimePoint(cols.t[i]));
          overlay.CellsContaining(geometry::Point(cols.x[i], cols.y[i]),
                                  &cells);
          if (cells.empty()) {
            continue;  // stays kCellOutside
          }
          if (cells.size() == 1) {
            e.cell_of_row_[i] = cells[0];
          } else {
            e.cell_of_row_[i] = kCellShared;
            out->shared_rows.push_back(static_cast<uint32_t>(i));
          }
        }
      },
      [&](LocateChunk&& c) {
        e.exception_rows_.insert(e.exception_rows_.end(),
                                 c.shared_rows.begin(), c.shared_rows.end());
      });

  // Shared-border rows keep their exact layer hits, so serving never has
  // to re-run point location.
  e.exception_offsets_.push_back(0);
  {
    std::vector<gis::GeometryId> hits;
    for (uint32_t row : e.exception_rows_) {
      overlay.LocateInLayerInto(geometry::Point(cols.x[row], cols.y[row]),
                                overlay_layer, &hits);
      e.exception_hits_.insert(e.exception_hits_.end(), hits.begin(),
                               hits.end());
      e.exception_offsets_.push_back(
          static_cast<uint32_t>(e.exception_hits_.size()));
    }
  }

  // Dense object index (span order == ascending Oid).
  e.object_ids_.reserve(cols.spans.size());
  for (const MoftColumns::Span& s : cols.spans) {
    e.object_ids_.push_back(s.oid);
  }

  // Group the conforming rows by (cell, bucket). Ties keep row order, so
  // each group's rows are ascending — and therefore nondecreasing in Oid
  // (the columns are (oid, t)-sorted), which yields the distinct-Oid sets
  // and dwell counts in one pass.
  std::vector<uint32_t> idx;
  idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (e.cell_of_row_[i] != kCellShared) {
      idx.push_back(static_cast<uint32_t>(i));
    }
  }
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    if (e.cell_of_row_[a] != e.cell_of_row_[b]) {
      return e.cell_of_row_[a] < e.cell_of_row_[b];
    }
    if (bucket_of[a] != bucket_of[b]) {
      return bucket_of[a] < bucket_of[b];
    }
    return a < b;
  });

  for (size_t i = 0; i < idx.size();) {
    const uint32_t cell = e.cell_of_row_[idx[i]];
    const int64_t bucket = bucket_of[idx[i]];
    Group g;
    g.cell = cell;
    g.bucket = bucket;
    g.rows_begin = static_cast<uint32_t>(e.rows_.size());
    g.oids_begin = static_cast<uint32_t>(e.oids_.size());
    size_t j = i;
    while (j < idx.size() && e.cell_of_row_[idx[j]] == cell &&
           bucket_of[idx[j]] == bucket) {
      const uint32_t row = idx[j];
      e.rows_.push_back(row);
      if (e.oids_.size() == g.oids_begin || e.oids_.back() != cols.oid[row]) {
        e.oids_.push_back(cols.oid[row]);
        e.oid_counts_.push_back(1);
      } else {
        ++e.oid_counts_.back();
      }
      if (j > i && row == idx[j - 1] + 1 &&
          cols.oid[row] == cols.oid[idx[j - 1]]) {
        ++g.legs;
      }
      ++j;
    }
    g.rows_end = static_cast<uint32_t>(e.rows_.size());
    g.oids_end = static_cast<uint32_t>(e.oids_.size());
    g.samples = g.rows_end - g.rows_begin;
    e.groups_.push_back(g);
    i = j;
  }

  // Distinct buckets across every row (exception rows included — bucket
  // classification must cover them too).
  e.buckets_.assign(bucket_of.begin(), bucket_of.end());
  std::sort(e.buckets_.begin(), e.buckets_.end());
  e.buckets_.erase(std::unique(e.buckets_.begin(), e.buckets_.end()),
                   e.buckets_.end());

  // Distinct-Oid representation: sorted sets vs dense bitmap, measured by
  // the bytes the serve loop would scan (the merge loop is memory-bound,
  // so smaller is faster).
  e.bytes_sorted_sets_ = e.oids_.size() * sizeof(moving::ObjectId);
  e.words_per_group_ = (e.object_ids_.size() + 63) / 64;
  e.bytes_bitmap_ = e.groups_.size() * e.words_per_group_ * sizeof(uint64_t);
  e.uses_bitmap_ = e.bytes_bitmap_ < e.bytes_sorted_sets_;
  if (e.uses_bitmap_) {
    e.bitmap_words_.assign(e.groups_.size() * e.words_per_group_, 0);
    for (size_t gi = 0; gi < e.groups_.size(); ++gi) {
      const Group& g = e.groups_[gi];
      uint64_t* words = &e.bitmap_words_[gi * e.words_per_group_];
      for (uint32_t k = g.oids_begin; k < g.oids_end; ++k) {
        const auto it = std::lower_bound(e.object_ids_.begin(),
                                         e.object_ids_.end(), e.oids_[k]);
        const size_t obj = static_cast<size_t>(it - e.object_ids_.begin());
        words[obj / 64] |= uint64_t{1} << (obj % 64);
      }
    }
    e.oids_.clear();
    e.oids_.shrink_to_fit();
  }

  // Flattened per-cell labels of the cached layer; candidate polygons are
  // resolved once (unresolvable ids keep a null slot and never match,
  // mirroring LocateInLayerInto).
  const size_t ncells = overlay.num_cells();
  const gis::Layer* layer = overlay.layers()[overlay_layer];
  e.covered_offsets_.reserve(ncells + 1);
  e.candidate_offsets_.reserve(ncells + 1);
  e.covered_offsets_.push_back(0);
  e.candidate_offsets_.push_back(0);
  for (size_t c = 0; c < ncells; ++c) {
    for (const gis::OverlayLabel& l : overlay.CellCovered(c)) {
      if (l.layer == overlay_layer) {
        e.covered_ids_.push_back(l.geom);
      }
    }
    e.covered_offsets_.push_back(static_cast<uint32_t>(e.covered_ids_.size()));
    for (const gis::OverlayLabel& l : overlay.CellCandidates(c)) {
      if (l.layer != overlay_layer) {
        continue;
      }
      e.candidate_ids_.push_back(l.geom);
      auto poly = layer->GetPolygon(l.geom);
      e.candidate_polys_.push_back(poly.ok() ? poly.ValueOrDie() : nullptr);
    }
    e.candidate_offsets_.push_back(
        static_cast<uint32_t>(e.candidate_ids_.size()));
  }
  return e;
}

void AggCacheEntry::AppendGroupOids(const Group& g,
                                    std::vector<moving::ObjectId>* out) const {
  if (!uses_bitmap_) {
    out->insert(out->end(), oids_.begin() + g.oids_begin,
                oids_.begin() + g.oids_end);
    return;
  }
  const size_t gi = static_cast<size_t>(&g - groups_.data());
  const uint64_t* words = &bitmap_words_[gi * words_per_group_];
  for (size_t w = 0; w < words_per_group_; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      out->push_back(object_ids_[w * 64 + static_cast<size_t>(bit)]);
      bits &= bits - 1;
    }
  }
}

std::vector<uint32_t> AggCacheEntry::GroupDwellCounts(const Group& g) const {
  return std::vector<uint32_t>(oid_counts_.begin() + g.oids_begin,
                               oid_counts_.begin() + g.oids_end);
}

size_t AggCacheEntry::memory_bytes() const {
  return cell_of_row_.size() * sizeof(uint32_t) +
         groups_.size() * sizeof(Group) + rows_.size() * sizeof(uint32_t) +
         oid_counts_.size() * sizeof(uint32_t) +
         oids_.size() * sizeof(moving::ObjectId) +
         bitmap_words_.size() * sizeof(uint64_t) +
         object_ids_.size() * sizeof(moving::ObjectId) +
         buckets_.size() * sizeof(int64_t) +
         exception_rows_.size() * sizeof(uint32_t) +
         exception_offsets_.size() * sizeof(uint32_t) +
         exception_hits_.size() * sizeof(gis::GeometryId) +
         covered_offsets_.size() * sizeof(uint32_t) +
         covered_ids_.size() * sizeof(gis::GeometryId) +
         candidate_offsets_.size() * sizeof(uint32_t) +
         candidate_ids_.size() * sizeof(gis::GeometryId) +
         candidate_polys_.size() * sizeof(void*);
}

std::vector<AggCacheEntry::BucketState> AggCacheEntry::ClassifyBuckets(
    const TimePredicate& when, const temporal::TimeDimension& dim,
    AggServeStats* st) const {
  std::vector<BucketState> out(buckets_.size(), BucketState::kSkip);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const int64_t b = buckets_[i];
    // The rollup / hour-range constraints are constant across a bucket
    // (no sub-hour rollups here), so one interior probe decides them.
    const TimePoint probe(static_cast<double>(b) + kBucketSeconds / 2);
    if (!when.MatchesIgnoringWindow(dim, probe)) {
      continue;
    }
    if (!when.window()) {
      out[i] = BucketState::kFull;
      continue;
    }
    const temporal::Interval& w = *when.window();
    const double lo = static_cast<double>(b);
    const double hi = lo + kBucketSeconds;
    if (w.end.seconds < lo || w.begin.seconds >= hi) {
      continue;  // kSkip: the closed window misses [b, b+3600) entirely.
    }
    out[i] = (w.begin.seconds <= lo && w.end.seconds >= hi)
                 ? BucketState::kFull
                 : BucketState::kFringe;
  }
  st->full_buckets = std::count(out.begin(), out.end(), BucketState::kFull);
  st->fringe_buckets =
      std::count(out.begin(), out.end(), BucketState::kFringe);
  return out;
}

AggCacheEntry::BucketState AggCacheEntry::StateOf(
    const std::vector<BucketState>& states, int64_t bucket) const {
  const auto it = std::lower_bound(buckets_.begin(), buckets_.end(), bucket);
  if (it == buckets_.end() || *it != bucket) {
    return BucketState::kSkip;
  }
  return states[static_cast<size_t>(it - buckets_.begin())];
}

void AggCacheEntry::ClassifyCells(const std::vector<uint8_t>& wanted,
                                  std::vector<uint8_t>* member,
                                  std::vector<uint8_t>* boundary,
                                  AggServeStats* stats) const {
  const size_t ncells = covered_offsets_.size() - 1;
  member->assign(ncells, 0);
  boundary->assign(ncells, 0);
  for (size_t c = 0; c < ncells; ++c) {
    for (uint32_t k = covered_offsets_[c]; k < covered_offsets_[c + 1]; ++k) {
      if (IsWanted(wanted, covered_ids_[k])) {
        (*member)[c] = 1;
        break;
      }
    }
    for (uint32_t k = candidate_offsets_[c]; k < candidate_offsets_[c + 1];
         ++k) {
      if (candidate_polys_[k] != nullptr && IsWanted(wanted, candidate_ids_[k])) {
        (*boundary)[c] = 1;
        break;
      }
    }
    if ((*boundary)[c] != 0) {
      ++stats->boundary_cells;
    } else if ((*member)[c] != 0) {
      ++stats->interior_cells;
    } else {
      ++stats->skipped_cells;
    }
  }
}

bool AggCacheEntry::RefineRow(uint32_t row, uint32_t cell,
                              const std::vector<uint8_t>& wanted,
                              AggServeStats* stats) const {
  const MoftColumns& cols = *view_.columns();
  const geometry::Point p(cols.x[row], cols.y[row]);
  for (uint32_t c = candidate_offsets_[cell]; c < candidate_offsets_[cell + 1];
       ++c) {
    const geometry::Polygon* pg = candidate_polys_[c];
    if (pg == nullptr || !IsWanted(wanted, candidate_ids_[c])) {
      continue;
    }
    ++stats->point_tests;
    if (pg->Contains(p)) {
      return true;
    }
  }
  return false;
}

bool AggCacheEntry::ExceptionIsMember(size_t exception_idx,
                                      const std::vector<uint8_t>& wanted) const {
  for (uint32_t k = exception_offsets_[exception_idx];
       k < exception_offsets_[exception_idx + 1]; ++k) {
    if (IsWanted(wanted, exception_hits_[k])) {
      return true;
    }
  }
  return false;
}

void AggCacheEntry::ForEachExactRow(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const std::vector<BucketState>& states, const std::vector<uint8_t>& member,
    const std::vector<uint8_t>& boundary, AggServeStats* st,
    const std::function<void(size_t, bool)>& visit) const {
  const MoftColumns& cols = *view_.columns();
  for (size_t ei = 0; ei < exception_rows_.size(); ++ei) {
    const uint32_t row = exception_rows_[ei];
    if (StateOf(states, temporal::HourBucketKey(TimePoint(cols.t[row]))) !=
        BucketState::kFull) {
      continue;
    }
    ++st->rows_refined;
    visit(row, ExceptionIsMember(ei, wanted));
  }
  if (!when.window() || std::find(states.begin(), states.end(),
                                  BucketState::kFringe) == states.end()) {
    return;
  }
  for (const temporal::Interval& slice : FringeSlices(*when.window())) {
    const moving::SampleWindow win =
        moft_->SamplesBetween(slice.begin, slice.end);
    for (const moving::SampleWindow::Range& r : win.ranges()) {
      for (size_t row = r.begin; row < r.end; ++row) {
        if (StateOf(states, temporal::HourBucketKey(TimePoint(cols.t[row]))) !=
            BucketState::kFringe) {
          continue;
        }
        ++st->fringe_rows;
        const uint32_t cell = cell_of_row_[row];
        bool is_member = false;
        if (cell == kCellShared) {
          const auto it = std::lower_bound(exception_rows_.begin(),
                                           exception_rows_.end(), row);
          is_member = ExceptionIsMember(
              static_cast<size_t>(it - exception_rows_.begin()), wanted);
        } else if (cell != kCellOutside) {
          is_member = member[cell] != 0 ||
                      (boundary[cell] != 0 &&
                       RefineRow(static_cast<uint32_t>(row), cell, wanted, st));
        }
        visit(row, is_member);
      }
    }
  }
}

std::optional<RegionAggregate> AggCacheEntry::RegionAggregates(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const temporal::TimeDimension& dim) const {
  // Hour buckets cannot decide a sub-hour rollup; QueryEngine's cache
  // probe refuses it first and counts the fallback.
  if (when.has_sub_hour_rollup()) {
    return std::nullopt;
  }
  RegionAggregate out;
  AggServeStats& st = out.stats;
  std::vector<uint8_t> member;
  std::vector<uint8_t> boundary;
  ClassifyCells(wanted, &member, &boundary, &st);
  const std::vector<BucketState> states = ClassifyBuckets(when, dim, &st);
  const MoftColumns& cols = *view_.columns();
  GroupRefiner refiner{&cols, &rows_, &candidate_offsets_, &candidate_ids_,
                       &candidate_polys_};
  std::vector<uint8_t> mask;

  // Full buckets: interior member cells from partials, boundary cells
  // through the batch kernels, everything else skipped.
  for (const Group& g : groups_) {
    if (StateOf(states, g.bucket) != BucketState::kFull ||
        g.cell == kCellOutside) {
      continue;
    }
    if (member[g.cell] != 0) {
      gamma::Partial& b = out.per_bucket[static_cast<double>(g.bucket)];
      b.samples += g.samples;
      AppendGroupOids(g, &b.oids);
      ++st.groups_from_partials;
      continue;
    }
    if (boundary[g.cell] == 0) {
      continue;
    }
    refiner.Mask(g, wanted, &mask, &st);
    int64_t members = 0;
    for (const uint8_t m : mask) {
      members += m;
    }
    if (members == 0) {
      continue;
    }
    gamma::Partial& b = out.per_bucket[static_cast<double>(g.bucket)];
    b.samples += members;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] != 0) {
        b.oids.push_back(cols.oid[rows_[g.rows_begin + i]]);
      }
    }
  }

  ForEachExactRow(wanted, when, states, member, boundary, &st,
                  [&](size_t row, bool is_member) {
                    if (is_member) {
                      gamma::Partial& b = out.per_bucket[static_cast<double>(
                          temporal::HourBucketKey(TimePoint(cols.t[row])))];
                      ++b.samples;
                      b.oids.push_back(cols.oid[row]);
                    }
                  });

  for (auto& entry : out.per_bucket) {
    std::vector<moving::ObjectId>& oids = entry.second.oids;
    std::sort(oids.begin(), oids.end());
    oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  }
  CountServe(st);
  return out;
}

std::optional<AlwaysWithinResult> AggCacheEntry::ObjectsAlwaysWithin(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const temporal::TimeDimension& dim) const {
  // Hour buckets cannot decide a sub-hour rollup; QueryEngine's cache
  // probe refuses it first and counts the fallback.
  if (when.has_sub_hour_rollup()) {
    return std::nullopt;
  }
  AlwaysWithinResult out;
  AggServeStats& st = out.stats;
  std::vector<uint8_t> member;
  std::vector<uint8_t> boundary;
  ClassifyCells(wanted, &member, &boundary, &st);
  const std::vector<BucketState> states = ClassifyBuckets(when, dim, &st);
  const MoftColumns& cols = *view_.columns();
  GroupRefiner refiner{&cols, &rows_, &candidate_offsets_, &candidate_ids_,
                       &candidate_polys_};
  std::vector<uint8_t> mask;

  // present: objects with a matching sample. disq: objects with a
  // matching non-member sample. The answer is present \ disq — the
  // sample semantics of QueryEngine::ObjectsAlwaysWithin.
  std::vector<moving::ObjectId> present;
  std::vector<moving::ObjectId> disq;

  for (const Group& g : groups_) {
    if (StateOf(states, g.bucket) != BucketState::kFull) {
      continue;
    }
    AppendGroupOids(g, &present);
    if (g.cell == kCellOutside) {
      AppendGroupOids(g, &disq);
      ++st.groups_from_partials;
      continue;
    }
    if (member[g.cell] != 0) {
      ++st.groups_from_partials;
      continue;
    }
    if (boundary[g.cell] == 0) {
      AppendGroupOids(g, &disq);
      ++st.groups_from_partials;
      continue;
    }
    refiner.Mask(g, wanted, &mask, &st);
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] == 0) {
        disq.push_back(cols.oid[rows_[g.rows_begin + i]]);
      }
    }
  }

  ForEachExactRow(wanted, when, states, member, boundary, &st,
                  [&](size_t row, bool is_member) {
                    present.push_back(cols.oid[row]);
                    if (!is_member) {
                      disq.push_back(cols.oid[row]);
                    }
                  });

  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  std::sort(disq.begin(), disq.end());
  disq.erase(std::unique(disq.begin(), disq.end()), disq.end());
  out.oids.reserve(present.size());
  std::set_difference(present.begin(), present.end(), disq.begin(), disq.end(),
                      std::back_inserter(out.oids));
  CountServe(st);
  return out;
}

}  // namespace piet::core::aggcache
