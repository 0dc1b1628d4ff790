#ifndef PIET_GIS_OVERLAY_H_
#define PIET_GIS_OVERLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "gis/layer.h"
#include "index/grid.h"

namespace piet::gis {

/// One label of an overlay cell: "this cell lies inside geometry `geom` of
/// layer index `layer`".
struct OverlayLabel {
  size_t layer = 0;
  GeometryId geom = 0;

  friend bool operator==(const OverlayLabel& a, const OverlayLabel& b) {
    return a.layer == b.layer && a.geom == b.geom;
  }
  friend bool operator<(const OverlayLabel& a, const OverlayLabel& b) {
    if (a.layer != b.layer) {
      return a.layer < b.layer;
    }
    return a.geom < b.geom;
  }
};

/// Point-location answer: per queried layer, the ids containing the point.
struct OverlayHit {
  std::vector<std::vector<GeometryId>> per_layer;
};

/// Flat result of a batched single-layer point location: the containing ids
/// of point `i` are `ids[offsets[i] .. offsets[i+1])`. Offsets always has
/// one entry more than the number of points located.
struct BatchHits {
  std::vector<uint32_t> offsets;
  std::vector<GeometryId> ids;
};

/// Work counters of point location: overlay cells probed via the grid and
/// exact candidate-polygon tests performed. LocateBatch accumulates one
/// instance per chunk and flushes the totals to the metrics registry, so
/// enabled-mode counts stay exact for any thread count.
struct LocateWork {
  size_t cells_visited = 0;
  size_t candidates_tested = 0;

  LocateWork& operator+=(const LocateWork& other) {
    cells_visited += other.cells_visited;
    candidates_tested += other.candidates_tested;
    return *this;
  }
};

/// The Piet overlay precomputation of Sec. 5: a subdivision of the plane
/// into *subpolygons* (cells), each labeled with every layer geometry that
/// fully covers it. Point location against the overlay then answers, in one
/// lookup, "which neighborhood / city / district is this sample in" for all
/// layers at once — the paper's strategy for amortizing geometric work
/// across many aggregate queries.
///
/// Two construction strategies, one interface:
///  * BuildConvex — exact sub-polygonization by iterated convex clipping.
///    Requires every polygon of every layer to be convex. Cells are the
///    nonempty intersections of one polygon per (subset of) layers.
///  * BuildQuadtree — adaptive quadtree for arbitrary simple polygons.
///    Leaves are refined until homogeneous w.r.t. every polygon or the
///    depth cap; heterogeneous leaves keep candidate lists and resolve by
///    exact point-in-polygon at query time (always exact answers; the tree
///    only prunes candidates). A polygon is a leaf's candidate only if it
///    meets the leaf's open interior: one that merely touches the leaf's
///    boundary is reported by the neighbouring leaf it enters, so a
///    layer aligned with the tree resolves at the depth of its edges.
class OverlayDb {
 public:
  /// Builds the exact convex overlay. Fails if a polygon is non-convex or a
  /// layer is not a polygon layer. Layers must outlive the OverlayDb.
  /// `threads` <= 0 resolves through PIET_THREADS (parallel::ResolveThreads);
  /// the produced overlay is identical for every thread count.
  static Result<OverlayDb> BuildConvex(std::vector<const Layer*> layers,
                                       int threads = 0);

  /// Builds the adaptive quadtree overlay (works for any simple polygons).
  /// Same `threads` contract as BuildConvex.
  static Result<OverlayDb> BuildQuadtree(std::vector<const Layer*> layers,
                                         int max_depth = 10, int threads = 0);

  /// For point `p`, the containing geometry ids for every layer (index
  /// aligned with the layer list given at construction).
  OverlayHit Locate(geometry::Point p) const;

  /// Convenience: containing ids for one layer index.
  std::vector<GeometryId> LocateInLayer(geometry::Point p, size_t layer) const;

  /// Allocation-free single-layer point location: appends the containing
  /// ids of `layer` to `out` (cleared first; its capacity is reused
  /// end-to-end, and the candidate-probe loop tests pre-resolved polygon
  /// pointers — no per-call allocation anywhere). The hot path of the
  /// Sec. 5 strategy — one grid probe plus exact tests on the few
  /// candidate cells, and the unit of work LocateBatch fans out. A non-null
  /// `work` accumulates the cells probed / candidates tested (metrics).
  void LocateInLayerInto(geometry::Point p, size_t layer,
                         std::vector<GeometryId>* out,
                         LocateWork* work = nullptr) const;

  /// Batched single-layer point location across the thread pool: one
  /// LocateInLayerInto per point, with one scratch buffer per chunk reused
  /// end-to-end. Output is bit-identical for every thread count (per-chunk
  /// results are merged in chunk order). `threads` <= 0 resolves through
  /// PIET_THREADS.
  BatchHits LocateBatch(std::span<const geometry::Point> points, size_t layer,
                        int threads = 0) const;

  size_t num_layers() const { return layers_.size(); }
  /// Number of overlay cells (convex) or leaves (quadtree).
  size_t num_cells() const { return cells_.size(); }
  /// Total time spent is dominated by construction; expose the strategy.
  bool is_convex_exact() const { return convex_exact_; }

  /// The layer list the overlay was built over (index = OverlayLabel.layer).
  const std::vector<const Layer*>& layers() const { return layers_; }

  /// Read access to one cell's geometry and labels, for the partition
  /// checks of src/analysis (and for debugging/visualization).
  const geometry::Polygon& CellPolygon(size_t i) const {
    return cells_[i].polygon;
  }
  const std::vector<OverlayLabel>& CellCovered(size_t i) const {
    return cells_[i].covered;
  }
  const std::vector<OverlayLabel>& CellCandidates(size_t i) const {
    return cells_[i].candidates;
  }

 private:
  /// A subpolygon: cell geometry plus covering labels. In quadtree mode the
  /// cell is a rectangle and `candidates` holds the polygons whose boundary
  /// may cross its open interior, which need exact tests.
  struct Cell {
    geometry::Polygon polygon;
    std::vector<OverlayLabel> covered;     // Definitely covering labels.
    std::vector<OverlayLabel> candidates;  // Need exact test at query time.
    // Pre-resolved polygon of each candidate (aligned with `candidates`),
    // so the query-time probe loop never goes through the layer lookup.
    std::vector<const geometry::Polygon*> candidate_polys;
  };

  OverlayDb() = default;

  void BuildCellIndex();
  void ResolveCandidatePolygons();

  std::vector<const Layer*> layers_;
  std::vector<Cell> cells_;
  std::unique_ptr<index::GridIndex> cell_index_;
  bool convex_exact_ = false;
};

}  // namespace piet::gis

#endif  // PIET_GIS_OVERLAY_H_
