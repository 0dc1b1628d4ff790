#ifndef PIET_MOVING_MOFT_COLUMNS_H_
#define PIET_MOVING_MOFT_COLUMNS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "temporal/time_point.h"

namespace piet::moving {

/// Identifier of a moving object (the paper's Oid).
using ObjectId = int64_t;

/// One observation row of the MOFT: (Oid, t, x, y).
struct Sample {
  ObjectId oid = 0;
  temporal::TimePoint t;
  geometry::Point pos;

  friend bool operator==(const Sample& a, const Sample& b) {
    return a.oid == b.oid && a.t == b.t && a.pos == b.pos;
  }
};

/// Sealed columnar (structure-of-arrays) storage of a MOFT: one contiguous
/// array per attribute, globally sorted by (oid, t), plus a per-object span
/// index. Built by Moft on the first read after a mutation ("seal");
/// consumers only ever see it const. `seal_epoch` identifies the rebuild a
/// view was taken against — it bumps on every seal, like the database
/// overlay epoch, so stale views are detectable (SampleView::valid()).
struct MoftColumns {
  std::vector<ObjectId> oid;
  std::vector<double> t;
  std::vector<double> x;
  std::vector<double> y;

  /// Half-open row range [begin, end) of one object; spans are ascending
  /// by oid and partition [0, size()).
  struct Span {
    ObjectId oid = 0;
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<Span> spans;

  /// 0 = never sealed; bumped on every rebuild.
  uint64_t seal_epoch = 0;

  size_t size() const { return oid.size(); }

  /// Materializes row i (three column loads; no allocation).
  Sample at(size_t i) const {
    return Sample{oid[i], temporal::TimePoint(t[i]),
                  geometry::Point(x[i], y[i])};
  }
};

/// A run [first, second) of consecutive rows.
using RowRun = std::pair<size_t, size_t>;

/// Rows [lo, hi) of `span` with t in the closed window [t0, t1]: one
/// lower_bound/upper_bound on the span's (strictly increasing) time
/// column. Empty when t1 < t0 or nothing falls inside.
inline RowRun WindowRowsOf(const MoftColumns& cols,
                                              const MoftColumns::Span& span,
                                              double t0, double t1) {
  const double* tb = cols.t.data() + span.begin;
  const double* te = cols.t.data() + span.end;
  const double* lo = std::lower_bound(tb, te, t0);
  const double* hi = std::upper_bound(lo, te, t1);
  return {span.begin + static_cast<size_t>(lo - tb),
          span.begin + static_cast<size_t>(hi - tb)};
}

/// Zero-copy view of a contiguous row range of sealed columns. Rows
/// materialize as Sample values on access; nothing is copied up front.
/// The view borrows the columns: it stays valid until the owning Moft is
/// mutated and resealed (valid() compares the captured epoch) and must not
/// outlive the Moft.
class SampleView {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Sample;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Sample;

    iterator() = default;
    iterator(const MoftColumns* cols, size_t i) : cols_(cols), i_(i) {}

    Sample operator*() const { return cols_->at(i_); }
    Sample operator[](difference_type d) const {
      return cols_->at(i_ + static_cast<size_t>(d));
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator out = *this;
      ++i_;
      return out;
    }
    iterator& operator--() {
      --i_;
      return *this;
    }
    iterator operator--(int) {
      iterator out = *this;
      --i_;
      return out;
    }
    iterator& operator+=(difference_type d) {
      i_ = static_cast<size_t>(static_cast<difference_type>(i_) + d);
      return *this;
    }
    iterator& operator-=(difference_type d) { return *this += -d; }
    friend iterator operator+(iterator it, difference_type d) {
      it += d;
      return it;
    }
    friend iterator operator+(difference_type d, iterator it) {
      it += d;
      return it;
    }
    friend iterator operator-(iterator it, difference_type d) {
      it -= d;
      return it;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return static_cast<difference_type>(a.i_) -
             static_cast<difference_type>(b.i_);
    }
    friend bool operator==(iterator a, iterator b) { return a.i_ == b.i_; }
    friend bool operator!=(iterator a, iterator b) { return !(a == b); }
    friend bool operator<(iterator a, iterator b) { return a.i_ < b.i_; }
    friend bool operator>(iterator a, iterator b) { return b < a; }
    friend bool operator<=(iterator a, iterator b) { return !(b < a); }
    friend bool operator>=(iterator a, iterator b) { return !(a < b); }

   private:
    const MoftColumns* cols_ = nullptr;
    size_t i_ = 0;
  };

  SampleView() = default;
  SampleView(const MoftColumns* cols, size_t begin, size_t end)
      : cols_(cols),
        begin_(begin),
        end_(end),
        epoch_(cols != nullptr ? cols->seal_epoch : 0) {}

  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }

  Sample operator[](size_t i) const { return cols_->at(begin_ + i); }
  Sample front() const { return (*this)[0]; }
  Sample back() const { return (*this)[size() - 1]; }

  iterator begin() const { return iterator(cols_, begin_); }
  iterator end() const { return iterator(cols_, end_); }

  /// The underlying columns (null for a default-constructed view).
  const MoftColumns* columns() const { return cols_; }
  /// First row of the view in column coordinates — aligns view-relative
  /// indices with whole-table structures (e.g. classification hit offsets).
  size_t offset() const { return begin_; }

  /// Epoch of the seal this view was taken against.
  uint64_t seal_epoch() const { return epoch_; }
  /// False once the owning Moft was mutated and resealed: the borrowed
  /// column data has been rebuilt and this view must be re-acquired.
  bool valid() const { return cols_ != nullptr && epoch_ == cols_->seal_epoch; }

 protected:
  const MoftColumns* cols_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t epoch_ = 0;
};

/// One trajectory leg: the segment between two consecutive samples of the
/// same object.
struct TrajectoryLeg {
  temporal::TimePoint t0;
  temporal::TimePoint t1;
  geometry::Point p0;
  geometry::Point p1;
};

/// Zero-copy view of the trajectory legs of one object span: leg i connects
/// samples i and i+1. Empty for spans with fewer than two samples.
class LegView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TrajectoryLeg;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TrajectoryLeg;

    iterator() = default;
    iterator(const MoftColumns* cols, size_t i) : cols_(cols), i_(i) {}

    TrajectoryLeg operator*() const {
      return TrajectoryLeg{temporal::TimePoint(cols_->t[i_]),
                           temporal::TimePoint(cols_->t[i_ + 1]),
                           geometry::Point(cols_->x[i_], cols_->y[i_]),
                           geometry::Point(cols_->x[i_ + 1],
                                           cols_->y[i_ + 1])};
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator out = *this;
      ++i_;
      return out;
    }
    friend bool operator==(iterator a, iterator b) { return a.i_ == b.i_; }
    friend bool operator!=(iterator a, iterator b) { return !(a == b); }

   private:
    const MoftColumns* cols_ = nullptr;
    size_t i_ = 0;
  };

  LegView() = default;
  LegView(const MoftColumns* cols, size_t begin, size_t end)
      : cols_(cols), begin_(begin), end_(end) {}

  size_t size() const { return end_ - begin_ >= 2 ? end_ - begin_ - 1 : 0; }
  bool empty() const { return size() == 0; }
  TrajectoryLeg operator[](size_t i) const {
    return *iterator(cols_, begin_ + i);
  }
  iterator begin() const { return iterator(cols_, begin_); }
  iterator end() const { return iterator(cols_, begin_ + size()); }

 private:
  const MoftColumns* cols_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
};

/// A SampleView restricted to one object (its rows are consecutive in the
/// columns because they are sorted by (oid, t); within the span the time
/// column is strictly increasing).
class ObjectSpan : public SampleView {
 public:
  ObjectSpan() = default;
  ObjectSpan(const MoftColumns* cols, ObjectId oid, size_t begin, size_t end)
      : SampleView(cols, begin, end), oid_(oid) {}
  ObjectSpan(const MoftColumns* cols, const MoftColumns::Span& span)
      : SampleView(cols, span.begin, span.end), oid_(span.oid) {}

  ObjectId oid() const { return oid_; }

  /// The trajectory legs between consecutive samples of this object.
  LegView Legs() const { return LegView(cols_, begin_, end_); }

  /// The sub-span with t in the closed window [t0, t1] (binary search on
  /// the time column; empty when t1 < t0 or nothing falls inside).
  SampleView Window(temporal::TimePoint t0, temporal::TimePoint t1) const {
    if (cols_ == nullptr || empty() || t1 < t0) {
      return SampleView(cols_, begin_, begin_);
    }
    const auto [b, e] =
        WindowRowsOf(*cols_, MoftColumns::Span{oid_, begin_, end_},
                     t0.seconds, t1.seconds);
    return SampleView(cols_, b, e);
  }

  /// The sub-span whose legs meet the closed range [t0, t1]: every leg
  /// left out lies wholly outside it. Widened to two samples when the span
  /// has them, so a LIT kernel's single-sample rule never fires on it.
  ObjectSpan LegsMeeting(temporal::TimePoint t0, temporal::TimePoint t1) const {
    const auto [b, e] =
        WindowRowsOf(*cols_, {oid_, begin_, end_}, t0.seconds, t1.seconds);
    const size_t keep = std::min<size_t>(size(), 2);
    const size_t lo = std::min(std::max(b, begin_ + 1) - 1, end_ - keep);
    return ObjectSpan(cols_, oid_, lo,
                      std::max(std::min(end_, e + 1), lo + keep));
  }

 private:
  ObjectId oid_ = 0;
};

/// Zero-copy result of a closed time-window query over the whole table:
/// the matching rows of each object, as per-object contiguous column
/// ranges in (oid, t) order. Random access resolves through cumulative
/// range offsets; iteration walks the ranges without touching skipped rows.
class SampleWindow {
 public:
  /// One contiguous matching range; `cum` counts the matching rows before
  /// it, so range r covers window-relative indices [cum, cum + end - begin).
  struct Range {
    size_t begin = 0;
    size_t end = 0;
    size_t cum = 0;
  };

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Sample;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Sample;

    iterator() = default;
    iterator(const SampleWindow* window, size_t range_idx, size_t row)
        : window_(window), range_idx_(range_idx), row_(row) {}

    Sample operator*() const { return window_->cols_->at(row_); }
    iterator& operator++() {
      ++row_;
      if (row_ == window_->ranges_[range_idx_].end) {
        ++range_idx_;
        row_ = range_idx_ < window_->ranges_.size()
                   ? window_->ranges_[range_idx_].begin
                   : 0;
      }
      return *this;
    }
    iterator operator++(int) {
      iterator out = *this;
      ++*this;
      return out;
    }
    friend bool operator==(iterator a, iterator b) {
      return a.range_idx_ == b.range_idx_ && a.row_ == b.row_;
    }
    friend bool operator!=(iterator a, iterator b) { return !(a == b); }

   private:
    const SampleWindow* window_ = nullptr;
    size_t range_idx_ = 0;
    size_t row_ = 0;
  };

  SampleWindow() = default;
  SampleWindow(const MoftColumns* cols, std::vector<Range> ranges,
               size_t total)
      : cols_(cols), ranges_(std::move(ranges)), total_(total) {}

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Window-relative random access (O(log #ranges)).
  Sample operator[](size_t i) const {
    const Range& r = *std::prev(std::upper_bound(
        ranges_.begin(), ranges_.end(), i,
        [](size_t v, const Range& range) { return v < range.cum; }));
    return cols_->at(r.begin + (i - r.cum));
  }

  iterator begin() const {
    return ranges_.empty() ? end() : iterator(this, 0, ranges_[0].begin);
  }
  iterator end() const { return iterator(this, ranges_.size(), 0); }

  const std::vector<Range>& ranges() const { return ranges_; }
  const MoftColumns* columns() const { return cols_; }

 private:
  const MoftColumns* cols_ = nullptr;
  std::vector<Range> ranges_;
  size_t total_ = 0;
};

}  // namespace piet::moving

#endif  // PIET_MOVING_MOFT_COLUMNS_H_
