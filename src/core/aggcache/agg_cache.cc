#include "core/aggcache/agg_cache.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "core/database.h"
#include "obs/metrics.h"
#include "temporal/calendar.h"

namespace piet::core::aggcache {

namespace {

using moving::MoftColumns;
using temporal::TimePoint;

constexpr double kBucketSeconds = 3600.0;

/// True when one of the ids [first, last) is set in the `wanted` bitmap.
template <typename It>
bool MeetsWanted(It first, It last, const std::vector<uint8_t>& wanted) {
  return std::any_of(first, last, [&](gis::GeometryId id) {
    return id >= 0 && static_cast<size_t>(id) < wanted.size() &&
           wanted[static_cast<size_t>(id)] != 0;
  });
}

/// Appends `oid` unless it is the last one: the fringe walk visits rows
/// in (Oid, t) order, so this keeps one entry per object and bucket run.
void PushDistinct(std::vector<moving::ObjectId>* oids, moving::ObjectId oid) {
  if (oids->empty() || oids->back() != oid) {
    oids->push_back(oid);
  }
}

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
  registry.GetCounter("pietql.aggcache.groups_from_partials")
      .Add(static_cast<int64_t>(st.groups_from_partials));
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

Result<AggCacheEntry> AggCacheEntry::Build(
    const moving::Moft& moft,
    std::shared_ptr<const SampleClassification> classification) {
  AggCacheEntry e;
  e.moft_ = &moft;
  e.classification_ = std::move(classification);
  const gis::BatchHits& hits = e.classification_->hits;

  // One row walk: intern each row's hit set and fold the row into its
  // (hit set, bucket) group. Rows ascend by (oid, t), so each group's
  // Oids arrive nondecreasing and dedup against the last one; a row with
  // the previous row's hits and bucket joins the previous row's group.
  struct Partial {
    uint32_t samples = 0;
    std::vector<moving::ObjectId> oids;
  };
  std::map<std::vector<gis::GeometryId>, uint32_t> set_of;
  std::map<std::pair<uint32_t, int64_t>, Partial> partials;
  Partial* last = nullptr;
  size_t last_row = 0;
  int64_t last_bucket = 0;
  std::vector<gis::GeometryId> key;
  const moving::TableBlocks blocks = moft.Blocks();
  e.num_rows_ = blocks.total_rows();
  moving::BlockIoStats io;
  PIET_RETURN_NOT_OK(blocks.ForEachRowRange(
      0, e.num_rows_, moving::ZoneFilter{}, &io,
      [&](const MoftColumns& data, size_t lb, size_t le,
          size_t row_base) -> Status {
        for (size_t i = lb; i < le; ++i) {
          const size_t row = row_base + i;
          const moving::ObjectId oid = data.oid[i];
          const int64_t bucket = temporal::HourBucketKey(TimePoint(data.t[i]));
          const auto first = hits.ids.begin() + hits.offsets[row];
          const auto end = hits.ids.begin() + hits.offsets[row + 1];
          if (last == nullptr || bucket != last_bucket ||
              !std::equal(first, end,
                          hits.ids.begin() + hits.offsets[last_row],
                          hits.ids.begin() + hits.offsets[last_row + 1])) {
            key.assign(first, end);
            const auto [set, fresh] = set_of.try_emplace(
                key, static_cast<uint32_t>(set_of.size()));
            if (fresh) {
              e.set_ids_.insert(e.set_ids_.end(), first, end);
              e.set_offsets_.push_back(
                  static_cast<uint32_t>(e.set_ids_.size()));
            }
            last = &partials[{set->second, bucket}];
            last_bucket = bucket;
          }
          last_row = row;
          ++last->samples;
          PushDistinct(&last->oids, oid);
          PushDistinct(&e.object_ids_, oid);
        }
        return Status::OK();
      }));

  for (const auto& [k, p] : partials) {
    Group g;
    g.hit_set = k.first;
    g.bucket = k.second;
    g.samples = p.samples;
    g.oids_begin = static_cast<uint32_t>(e.oids_.size());
    e.oids_.insert(e.oids_.end(), p.oids.begin(), p.oids.end());
    g.oids_end = static_cast<uint32_t>(e.oids_.size());
    e.groups_.push_back(g);
    e.buckets_.push_back(k.second);
  }
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

uint64_t AggCacheEntry::database_epoch() const {
  return classification_->epoch;
}

size_t AggCacheEntry::memory_bytes() const {
  return set_offsets_.size() * sizeof(uint32_t) +
         set_ids_.size() * sizeof(gis::GeometryId) +
         groups_.size() * sizeof(Group) +
         oids_.size() * sizeof(moving::ObjectId) +
         bitmap_words_.size() * sizeof(uint64_t) +
         object_ids_.size() * sizeof(moving::ObjectId) +
         buckets_.size() * sizeof(int64_t);
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

std::vector<uint8_t> AggCacheEntry::MemberSets(
    const std::vector<uint8_t>& wanted) const {
  std::vector<uint8_t> member(num_hit_sets());
  for (size_t s = 0; s < member.size(); ++s) {
    member[s] = MeetsWanted(set_ids_.begin() + set_offsets_[s],
                            set_ids_.begin() + set_offsets_[s + 1], wanted);
  }
  return member;
}

Status AggCacheEntry::ForEachFringeRow(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const std::vector<BucketState>& states, AggServeStats* st,
    const std::function<void(moving::ObjectId, double, bool)>& visit) const {
  if (st->fringe_buckets == 0) {
    return Status::OK();
  }
  const gis::BatchHits& hits = classification_->hits;
  const moving::TableBlocks blocks = moft_->Blocks();
  moving::BlockIoStats io;
  for (const temporal::Interval& slice : FringeSlices(*when.window())) {
    moving::ZoneFilter filter;
    filter.window = slice;
    PIET_RETURN_NOT_OK(blocks.ForEachSpanRange(
        0, blocks.total_spans(), filter, &io,
        [&](const MoftColumns& data, size_t sb, size_t se,
            size_t row_base) -> Status {
          for (size_t s = sb; s < se; ++s) {
            const auto [lo, hi] = moving::WindowRowsOf(
                data, data.spans[s], slice.begin.seconds, slice.end.seconds);
            for (size_t i = lo; i < hi; ++i) {
              if (StateOf(states, temporal::HourBucketKey(
                                      TimePoint(data.t[i]))) !=
                  BucketState::kFringe) {
                continue;
              }
              ++st->fringe_rows;
              const size_t row = row_base + i;
              visit(data.oid[i], data.t[i],
                    MeetsWanted(hits.ids.begin() + hits.offsets[row],
                                hits.ids.begin() + hits.offsets[row + 1],
                                wanted));
            }
          }
          return Status::OK();
        }));
  }
  return Status::OK();
}

Result<RegionAggregate> AggCacheEntry::RegionAggregates(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const temporal::TimeDimension& dim) const {
  if (when.has_sub_hour_rollup()) {
    return Status::InvalidArgument(
        "hour buckets cannot decide a sub-hour rollup");
  }
  RegionAggregate out;
  AggServeStats& st = out.stats;
  const std::vector<uint8_t> member = MemberSets(wanted);
  const std::vector<BucketState> states = ClassifyBuckets(when, dim, &st);

  for (const Group& g : groups_) {
    if (member[g.hit_set] == 0 ||
        StateOf(states, g.bucket) != BucketState::kFull) {
      continue;
    }
    gamma::Partial& b = out.per_bucket[static_cast<double>(g.bucket)];
    b.samples += g.samples;
    AppendGroupOids(g, &b.oids);
    ++st.groups_from_partials;
  }

  PIET_RETURN_NOT_OK(ForEachFringeRow(
      wanted, when, states, &st,
      [&](moving::ObjectId oid, double t, bool is_member) {
        if (is_member) {
          gamma::Partial& b = out.per_bucket[static_cast<double>(
              temporal::HourBucketKey(TimePoint(t)))];
          ++b.samples;
          PushDistinct(&b.oids, oid);
        }
      }));

  for (auto& entry : out.per_bucket) {
    std::vector<moving::ObjectId>& oids = entry.second.oids;
    std::sort(oids.begin(), oids.end());
    oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  }
  CountServe(st);
  return out;
}

Result<AlwaysWithinResult> AggCacheEntry::ObjectsAlwaysWithin(
    const std::vector<uint8_t>& wanted, const TimePredicate& when,
    const temporal::TimeDimension& dim) const {
  if (when.has_sub_hour_rollup()) {
    return Status::InvalidArgument(
        "hour buckets cannot decide a sub-hour rollup");
  }
  AlwaysWithinResult out;
  AggServeStats& st = out.stats;
  const std::vector<uint8_t> member = MemberSets(wanted);
  const std::vector<BucketState> states = ClassifyBuckets(when, dim, &st);

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
    if (member[g.hit_set] == 0) {
      AppendGroupOids(g, &disq);
    }
    ++st.groups_from_partials;
  }

  PIET_RETURN_NOT_OK(ForEachFringeRow(
      wanted, when, states, &st,
      [&](moving::ObjectId oid, double /*t*/, bool is_member) {
        PushDistinct(&present, oid);
        if (!is_member) {
          PushDistinct(&disq, oid);
        }
      }));

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
