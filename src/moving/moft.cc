#include "moving/moft.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace piet::moving {

using temporal::TimePoint;

Moft::Moft(const Moft& other) { *this = other; }

Moft& Moft::operator=(const Moft& other) {
  if (this != &other) {
    // Consistent snapshot of `other`; `this` must not be under concurrent
    // read during assignment (single-writer contract).
    std::lock_guard<std::mutex> lock(other.seal_mu_);
    other.EnsureHotLocked();  // A released hot tier must be rebuilt to copy.
    index_ = other.index_;
    size_ = other.size_;
    staging_ = other.staging_;
    cols_ = other.cols_;
    block_options_ = other.block_options_;
    read_only_ = other.read_only_;
    hot_valid_ = true;
    store_.reset();
    if (other.store_) {
      store_.emplace(MoftBlockStore::Build(cols_, block_options_));
    }
  }
  return *this;
}

Moft::Moft(Moft&& other) noexcept { *this = std::move(other); }

Moft& Moft::operator=(Moft&& other) noexcept {
  if (this != &other) {
    std::lock_guard<std::mutex> lock(other.seal_mu_);
    index_ = std::move(other.index_);
    size_ = other.size_;
    other.size_ = 0;
    staging_ = std::move(other.staging_);
    cols_ = std::move(other.cols_);
    other.cols_.seal_epoch = 0;  // The next read reseals an empty table.
    block_options_ = other.block_options_;
    store_ = std::move(other.store_);
    other.store_.reset();
    hot_valid_ = other.hot_valid_;
    other.hot_valid_ = true;
    read_only_ = other.read_only_;
  }
  return *this;
}

Status Moft::Add(ObjectId oid, TimePoint t, geometry::Point pos) {
  if (read_only_) {
    return Status::InvalidArgument(
        "Moft opened from a block file is read-only");
  }
  // NaN defeats the duplicate index (NaN != NaN) and the seal's strict
  // (oid, t) order; the calendar's rollups handle only its range, which
  // excludes NaN and ±inf; non-finite coordinates break every geometric
  // kernel.
  if (!temporal::kCalendarRange.Contains(t) || !std::isfinite(pos.x) ||
      !std::isfinite(pos.y)) {
    return Status::InvalidArgument(
        "object " + std::to_string(oid) +
        ": sample time must lie in civil years 0001-9999 and position must "
        "be finite");
  }
  auto [it, inserted] = index_.try_emplace(SampleKey{oid, t.seconds}, pos);
  if (!inserted) {
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("moft.duplicates_rejected")
          .Add(1);
    }
    if (it->second == pos) {
      return Status::OK();  // Idempotent duplicate.
    }
    return Status::AlreadyExists(
        "object " + std::to_string(oid) + " already sampled at t=" +
        std::to_string(t.seconds) + " with a different position");
  }
  staging_.push_back(Sample{oid, t, pos});
  ++size_;
  return Status::OK();
}

const MoftColumns& Moft::EnsureSealed() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  EnsureSealedLocked();
  EnsureHotLocked();
  return cols_;
}

void Moft::EnsureSealedLocked() const {
  if (!staging_.empty() || cols_.seal_epoch == 0) {
    // Merging staged rows rewrites the columns, so a released hot tier
    // must come back first.
    EnsureHotLocked();
    SealLocked();
  }
}

void Moft::EnsureHotLocked() const {
  if (hot_valid_) {
    return;
  }
  store_->MaterializeInto(&cols_);
  hot_valid_ = true;
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global()
        .GetCounter("moft.hot_materializations")
        .Add(1);
  }
}

void Moft::SealLocked() const {
  if (obs::Enabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("moft.seals").Add(1);
    registry.GetCounter("moft.rows_staged")
        .Add(static_cast<int64_t>(staging_.size()));
  }
  // Append the staged rows to the columns.
  const size_t n = cols_.size() + staging_.size();
  cols_.oid.reserve(n);
  cols_.t.reserve(n);
  cols_.x.reserve(n);
  cols_.y.reserve(n);
  for (const Sample& s : staging_) {
    cols_.oid.push_back(s.oid);
    cols_.t.push_back(s.t.seconds);
    cols_.x.push_back(s.pos.x);
    cols_.y.push_back(s.pos.y);
  }
  // Release the buffer, not just its rows: a sealed table may never
  // stage again, and clear() would keep its capacity resident.
  std::vector<Sample>().swap(staging_);

  // Sort by (oid, t) unless already ordered (the common bulk-load pattern:
  // per-object appends in time order). Keys are unique — duplicates were
  // rejected at Add — so the order is strict.
  auto key_less = [this](size_t a, size_t b) {
    if (cols_.oid[a] != cols_.oid[b]) {
      return cols_.oid[a] < cols_.oid[b];
    }
    return cols_.t[a] < cols_.t[b];
  };
  bool sorted = true;
  for (size_t i = 1; i < n; ++i) {
    if (!key_less(i - 1, i)) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("moft.resorts").Add(1);
    }
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(), key_less);
    auto gather_i64 = [&](std::vector<ObjectId>* col) {
      std::vector<ObjectId> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = (*col)[perm[i]];
      }
      *col = std::move(out);
    };
    auto gather_f64 = [&](std::vector<double>* col) {
      std::vector<double> out(n);
      for (size_t i = 0; i < n; ++i) {
        out[i] = (*col)[perm[i]];
      }
      *col = std::move(out);
    };
    gather_i64(&cols_.oid);
    gather_f64(&cols_.t);
    gather_f64(&cols_.x);
    gather_f64(&cols_.y);
  }

  // Rebuild the per-object span index.
  cols_.spans.clear();
  for (size_t i = 0; i < n;) {
    size_t begin = i;
    ObjectId oid = cols_.oid[i];
    while (i < n && cols_.oid[i] == oid) {
      ++i;
    }
    cols_.spans.push_back(MoftColumns::Span{oid, begin, i});
  }

  ++cols_.seal_epoch;
  store_.emplace(MoftBlockStore::Build(cols_, block_options_));
  hot_valid_ = true;
}

size_t Moft::num_objects() const { return EnsureSealed().spans.size(); }

std::vector<ObjectId> Moft::ObjectIds() const {
  const MoftColumns& cols = EnsureSealed();
  std::vector<ObjectId> out;
  out.reserve(cols.spans.size());
  for (const MoftColumns::Span& span : cols.spans) {
    out.push_back(span.oid);
  }
  return out;
}

const MoftColumns& Moft::Columns() const { return EnsureSealed(); }

SampleView Moft::Scan() const {
  const MoftColumns& cols = EnsureSealed();
  return SampleView(&cols, 0, cols.size());
}

ObjectSpan Moft::SamplesOf(ObjectId oid) const {
  const MoftColumns& cols = EnsureSealed();
  auto it = std::lower_bound(
      cols.spans.begin(), cols.spans.end(), oid,
      [](const MoftColumns::Span& s, ObjectId v) { return s.oid < v; });
  if (it == cols.spans.end() || it->oid != oid) {
    return ObjectSpan(&cols, oid, 0, 0);
  }
  return ObjectSpan(&cols, *it);
}

ObjectSpan Moft::SpanAt(size_t index) const {
  const MoftColumns& cols = EnsureSealed();
  return ObjectSpan(&cols, cols.spans[index]);
}

SampleWindow Moft::SamplesBetween(TimePoint t0, TimePoint t1,
                                  BlockIoStats* io) const {
  const MoftColumns& cols = EnsureSealed();
  std::vector<SampleWindow::Range> ranges;
  size_t total = 0;
  if (!(t1 < t0)) {
    // Whole blocks whose time zonemap misses [t0, t1] are skipped without
    // probing any of their spans: a skipped block has no matching rows.
    const MoftBlockStore& store = *block_store();
    for (size_t block = 0; block < store.num_blocks(); ++block) {
      const BlockMeta& m = store.meta(block);
      if (m.t_max < t0.seconds || t1.seconds < m.t_min) {
        if (io != nullptr) {
          ++io->blocks_skipped;
        }
        continue;
      }
      // Hot columns left empty by a failed materialization hold none of
      // the directory's spans.
      const size_t held = std::min(m.span_end, cols.spans.size());
      for (size_t s = m.span_begin; s < held; ++s) {
        const auto [begin, end] =
            WindowRowsOf(cols, cols.spans[s], t0.seconds, t1.seconds);
        if (begin < end) {
          ranges.push_back(SampleWindow::Range{begin, end, total});
          total += end - begin;
        }
      }
    }
  }
  return SampleWindow(&cols, std::move(ranges), total);
}

uint64_t Moft::seal_epoch() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  return cols_.seal_epoch;
}

TableBlocks Moft::Blocks() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  EnsureSealedLocked();
  return TableBlocks(cols_, *store_);
}

const MoftBlockStore* Moft::block_store() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  return store_ ? &*store_ : nullptr;
}

void Moft::ReleaseHot() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  if (!store_ || !store_->compressed() || !hot_valid_ || !staging_.empty()) {
    return;  // Nothing to fall back on, or staged rows still need the hot
             // tier for the next merge.
  }
  // swap-with-empty actually returns the memory, unlike clear().
  std::vector<ObjectId>().swap(cols_.oid);
  std::vector<double>().swap(cols_.t);
  std::vector<double>().swap(cols_.x);
  std::vector<double>().swap(cols_.y);
  std::vector<MoftColumns::Span>().swap(cols_.spans);
  ++cols_.seal_epoch;  // Outstanding views must notice the data is gone.
  hot_valid_ = false;
}

Status Moft::Save(const std::string& path) const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  EnsureSealedLocked();
  return store_->Save(path, &cols_);
}

Result<Moft> Moft::Open(const std::string& path) {
  PIET_ASSIGN_OR_RETURN(MoftBlockStore store, MoftBlockStore::Open(path));
  Moft moft;
  moft.size_ = store.total_rows();
  moft.store_.emplace(std::move(store));
  moft.cols_.seal_epoch = 1;
  moft.hot_valid_ = false;
  moft.read_only_ = true;
  return moft;
}

Status Moft::SpillToDisk() const {
  std::string dir = block_options_.spill_dir;
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::string path;
  {
    std::lock_guard<std::mutex> lock(seal_mu_);
    EnsureSealedLocked();
    // The file lives only while the lock is held, so the table's address
    // names it uniquely.
    path = dir + "/moft-" +
           std::to_string(reinterpret_cast<uintptr_t>(this)) + ".pietblk";
    PIET_RETURN_NOT_OK(store_->Save(path, &cols_));
    Result<MoftBlockStore> mapped = MoftBlockStore::Open(path);
    // The mapping keeps the spilled bytes alive, and nothing reopens the
    // file by name, so it goes now instead of outliving the process.
    std::remove(path.c_str());
    PIET_RETURN_NOT_OK(mapped.status());
    store_.emplace(std::move(mapped).ValueOrDie());
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global().GetCounter("moft.spills").Add(1);
    }
  }
  ReleaseHot();
  return Status::OK();
}

Moft::StorageFootprint Moft::Footprint() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  StorageFootprint fp;
  fp.hot = hot_valid_;
  if (hot_valid_) {
    fp.resident_bytes = cols_.size() * 4 * sizeof(double) +
                        cols_.spans.size() * sizeof(MoftColumns::Span);
  }
  // Unsealed staging rows are resident too (samples waiting for a seal).
  fp.resident_bytes += staging_.size() * sizeof(Sample);
  if (store_) {
    fp.live_pins = store_->live_pins();
    if (store_->mapped()) {
      fp.spilled_bytes = store_->stored_bytes();
    } else if (store_->compressed()) {
      fp.compressed_bytes = store_->stored_bytes();
    }
  }
  return fp;
}

MoftCatalogStats Moft::CatalogStats() const {
  std::lock_guard<std::mutex> lock(seal_mu_);
  EnsureSealedLocked();
  MoftCatalogStats st;
  st.rows = store_->total_rows();
  st.spans = store_->total_spans();
  st.num_blocks = store_->num_blocks();
  st.compressed = store_->compressed();
  st.mapped = store_->mapped();
  st.stored_bytes = store_->stored_bytes();
  st.raw_bytes = store_->raw_bytes();
  st.blocks.reserve(st.num_blocks);
  for (size_t b = 0; b < st.num_blocks; ++b) {
    st.blocks.push_back(store_->meta(b));
  }
  return st;
}

Result<temporal::Interval> Moft::TimeSpan() const {
  const MoftColumns& cols = EnsureSealed();
  if (cols.size() == 0) {
    return Status::NotFound("empty MOFT has no time span");
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const MoftColumns::Span& span : cols.spans) {
    lo = std::min(lo, cols.t[span.begin]);
    hi = std::max(hi, cols.t[span.end - 1]);
  }
  return temporal::Interval(TimePoint(lo), TimePoint(hi));
}

olap::FactTable Moft::ToFactTable() const {
  olap::FactTable table = olap::FactTable::Make({"Oid", "t", "x", "y"}, {});
  for (const Sample& s : Scan()) {
    (void)table.Append({Value(s.oid), Value(s.t.seconds), Value(s.pos.x),
                        Value(s.pos.y)});
  }
  return table;
}

Status Moft::WriteCsv(std::ostream& out) const {
  out << "# oid,t,x,y\n";
  for (const Sample& s : Scan()) {
    out << s.oid << "," << s.t.seconds << "," << s.pos.x << "," << s.pos.y
        << "\n";
  }
  if (!out) {
    return Status::IoError("failed writing MOFT CSV");
  }
  return Status::OK();
}

Result<Moft> Moft::ReadCsv(std::istream& in) {
  Moft moft;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv.front() == '#') {
      continue;
    }
    std::vector<std::string> fields = Split(sv, ',');
    if (fields.size() != 4) {
      return Status::ParseError("line " + std::to_string(lineno) +
                                ": expected 4 fields, got " +
                                std::to_string(fields.size()));
    }
    auto parse_double = [&](const std::string& s) -> Result<double> {
      std::string t(Trim(s));
      double v = 0.0;
      auto res = std::from_chars(t.data(), t.data() + t.size(), v);
      if (res.ec != std::errc() || res.ptr != t.data() + t.size()) {
        return Status::ParseError("line " + std::to_string(lineno) +
                                  ": bad number '" + t + "'");
      }
      return v;
    };
    PIET_ASSIGN_OR_RETURN(double oid_d, parse_double(fields[0]));
    PIET_ASSIGN_OR_RETURN(double t, parse_double(fields[1]));
    PIET_ASSIGN_OR_RETURN(double x, parse_double(fields[2]));
    PIET_ASSIGN_OR_RETURN(double y, parse_double(fields[3]));
    // from_chars accepts "nan"/"inf"; the id must fit the int64 ObjectId
    // before the cast ([-2^63, 2^63), which also rejects NaN).
    if (!(oid_d >= -0x1p63 && oid_d < 0x1p63)) {
      return Status::ParseError("line " + std::to_string(lineno) +
                                ": bad object id '" + fields[0] + "'");
    }
    Status added = moft.Add(static_cast<ObjectId>(oid_d), TimePoint(t),
                            geometry::Point(x, y));
    if (!added.ok()) {
      return Status(added.code(),
                    "line " + std::to_string(lineno) + ": " + added.message());
    }
  }
  return moft;
}

}  // namespace piet::moving
