#include "index/grid.h"

#include <algorithm>
#include <set>

namespace piet::index {

using geometry::BoundingBox;
using geometry::Point;

GridIndex::GridIndex(const BoundingBox& extent, size_t cells_per_axis)
    : extent_(extent), n_(std::max<size_t>(1, cells_per_axis)) {
  double w = std::max(extent_.width(), 1e-12);
  double h = std::max(extent_.height(), 1e-12);
  inv_step_x_ = static_cast<double>(n_) / w;
  inv_step_y_ = static_cast<double>(n_) / h;
  cells_.resize(n_ * n_);
}

size_t GridIndex::CellOf(double v, double lo, double inv_step) const {
  double idx = (v - lo) * inv_step;
  if (idx < 0.0) {
    return 0;
  }
  // Also catches +inf and NaN, whose integer conversion is undefined.
  if (!(idx < static_cast<double>(n_))) {
    return n_ - 1;
  }
  return static_cast<size_t>(idx);
}

void GridIndex::CellRange(const BoundingBox& box, size_t* x0, size_t* x1,
                          size_t* y0, size_t* y1) const {
  *x0 = CellOf(box.min_x, extent_.min_x, inv_step_x_);
  *x1 = CellOf(box.max_x, extent_.min_x, inv_step_x_);
  *y0 = CellOf(box.min_y, extent_.min_y, inv_step_y_);
  *y1 = CellOf(box.max_y, extent_.min_y, inv_step_y_);
}

void GridIndex::Insert(const BoundingBox& box, Id id) {
  size_t x0, x1, y0, y1;
  CellRange(box, &x0, &x1, &y0, &y1);
  for (size_t y = y0; y <= y1; ++y) {
    for (size_t x = x0; x <= x1; ++x) {
      cells_[y * n_ + x].push_back({box, id});
    }
  }
  ++size_;
}

std::vector<GridIndex::Id> GridIndex::SearchPoint(Point p) const {
  std::vector<Id> out;
  size_t cx = CellOf(p.x, extent_.min_x, inv_step_x_);
  size_t cy = CellOf(p.y, extent_.min_y, inv_step_y_);
  for (const Slot& s : cells_[cy * n_ + cx]) {
    if (s.box.Contains(p)) {
      out.push_back(s.id);
    }
  }
  return out;
}

std::vector<GridIndex::Id> GridIndex::Search(const BoundingBox& query) const {
  std::set<Id> out;
  size_t x0, x1, y0, y1;
  CellRange(query, &x0, &x1, &y0, &y1);
  for (size_t y = y0; y <= y1; ++y) {
    for (size_t x = x0; x <= x1; ++x) {
      for (const Slot& s : cells_[y * n_ + x]) {
        if (s.box.Intersects(query)) {
          out.insert(s.id);
        }
      }
    }
  }
  return std::vector<Id>(out.begin(), out.end());
}

}  // namespace piet::index
