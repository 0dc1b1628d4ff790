#ifndef PIET_INDEX_GRID_H_
#define PIET_INDEX_GRID_H_

#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"

namespace piet::index {

/// A uniform grid over a fixed extent, bucketing (box, id) entries into
/// every overlapped cell. Cheap to build, good for point location over
/// evenly-sized polygons (the overlay store uses one).
class GridIndex {
 public:
  using Id = int64_t;

  /// `extent` must be non-empty; `cells_per_axis` >= 1.
  GridIndex(const geometry::BoundingBox& extent, size_t cells_per_axis);

  void Insert(const geometry::BoundingBox& box, Id id);

  /// Candidate ids whose box may contain `p` (exact box test applied).
  std::vector<Id> SearchPoint(geometry::Point p) const;

  /// Allocation-free point query: invokes `fn(id)` for every entry whose
  /// box contains `p`.
  template <typename Fn>
  void VisitPoint(geometry::Point p, Fn&& fn) const {
    size_t cx = CellOf(p.x, extent_.min_x, inv_step_x_);
    size_t cy = CellOf(p.y, extent_.min_y, inv_step_y_);
    for (const Slot& s : cells_[cy * n_ + cx]) {
      if (s.box.Contains(p)) {
        fn(s.id);
      }
    }
  }

  /// Allocation-free box query: invokes `fn(id)` for every entry whose box
  /// intersects `query`. An entry bucketed in several of the visited cells
  /// is reported once per such cell; callers deduplicate.
  template <typename Fn>
  void VisitBox(const geometry::BoundingBox& query, Fn&& fn) const {
    size_t x0, x1, y0, y1;
    CellRange(query, &x0, &x1, &y0, &y1);
    for (size_t y = y0; y <= y1; ++y) {
      for (size_t x = x0; x <= x1; ++x) {
        for (const Slot& s : cells_[y * n_ + x]) {
          if (s.box.Intersects(query)) {
            fn(s.id);
          }
        }
      }
    }
  }

  /// Candidate ids whose box intersects `query`.
  std::vector<Id> Search(const geometry::BoundingBox& query) const;

  size_t size() const { return size_; }
  size_t cells_per_axis() const { return n_; }

 private:
  struct Slot {
    geometry::BoundingBox box;
    Id id;
  };

  size_t CellOf(double v, double lo, double inv_step) const;
  void CellRange(const geometry::BoundingBox& box, size_t* x0, size_t* x1,
                 size_t* y0, size_t* y1) const;

  geometry::BoundingBox extent_;
  size_t n_;
  double inv_step_x_;
  double inv_step_y_;
  std::vector<std::vector<Slot>> cells_;
  size_t size_ = 0;
};

}  // namespace piet::index

#endif  // PIET_INDEX_GRID_H_
