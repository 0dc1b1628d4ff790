#include "gis/overlay.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "geometry/clip.h"
#include "obs/metrics.h"

namespace piet::gis {

using geometry::BoundingBox;
using geometry::MakeRectangle;
using geometry::Point;
using geometry::Polygon;
using geometry::Ring;

namespace {

/// One build counter/gauge flush, shared by both construction strategies.
void RecordOverlayBuild(size_t cells) {
  if (!obs::Enabled()) {
    return;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("overlay.builds").Add(1);
  registry.GetGauge("overlay.cells").Set(static_cast<int64_t>(cells));
}

/// True when `poly` provably misses the open `box`: every edge of every
/// ring lies in a closed half-plane beside the box (exact comparisons, no
/// rounding), so no boundary point enters the box, and the box centre is
/// outside. A polygon that only touches a leaf's boundary is no candidate
/// of the leaf: a neighbouring leaf that meets its interior reports those
/// boundary points (DESIGN.md §2).
bool MissesOpenBox(const Polygon& poly, const BoundingBox& box) {
  auto ring_beside = [&box](const Ring& ring) {
    const std::vector<Point>& v = ring.vertices();
    for (size_t i = 0; i < v.size(); ++i) {
      const Point& a = v[i];
      const Point& b = v[(i + 1) % v.size()];
      if (!((a.x <= box.min_x && b.x <= box.min_x) ||
            (a.x >= box.max_x && b.x >= box.max_x) ||
            (a.y <= box.min_y && b.y <= box.min_y) ||
            (a.y >= box.max_y && b.y >= box.max_y))) {
        return false;
      }
    }
    return true;
  };
  if (!ring_beside(poly.shell())) {
    return false;
  }
  for (const Ring& hole : poly.holes()) {
    if (!ring_beside(hole)) {
      return false;
    }
  }
  const Point centre((box.min_x + box.max_x) / 2.0,
                     (box.min_y + box.max_y) / 2.0);
  return poly.Locate(centre) == geometry::PointLocation::kOutside;
}

}  // namespace

Result<OverlayDb> OverlayDb::BuildConvex(std::vector<const Layer*> layers,
                                         int threads) {
  obs::ScopedTimer build_timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("overlay.build.latency")
          : nullptr);
  threads = parallel::ResolveThreads(threads);
  OverlayDb db;
  db.layers_ = std::move(layers);
  db.convex_exact_ = true;

  BoundingBox domain;
  for (const Layer* layer : db.layers_) {
    if (layer == nullptr) {
      return Status::InvalidArgument("null layer");
    }
    if (layer->kind() != GeometryKind::kPolygon) {
      return Status::InvalidArgument("convex overlay needs polygon layers; '" +
                                     layer->name() + "' is not one");
    }
    for (GeometryId id : layer->ids()) {
      PIET_ASSIGN_OR_RETURN(const Polygon* pg, layer->GetPolygon(id));
      if (!pg->IsConvex()) {
        return Status::InvalidArgument(
            "polygon " + std::to_string(id) + " of layer '" + layer->name() +
            "' is not convex; use BuildQuadtree");
      }
    }
    // The refinement loop probes the layer R-tree from worker threads; its
    // lazy first build must happen before the fan-out.
    layer->WarmIndex();
    domain.ExtendWith(layer->Bounds());
  }
  if (db.layers_.empty() || domain.empty()) {
    return Status::InvalidArgument("convex overlay needs at least one layer");
  }

  // Seed cells from the first layer's polygons.
  const Layer* first = db.layers_[0];
  for (GeometryId id : first->ids()) {
    PIET_ASSIGN_OR_RETURN(const Polygon* pg, first->GetPolygon(id));
    Cell cell;
    cell.polygon = *pg;
    cell.covered.push_back({0, id});
    db.cells_.push_back(std::move(cell));
  }

  // Refine against each subsequent layer. Each layer must tile the current
  // cells (partition semantics); the area check below enforces it. Cells
  // are refined per chunk with private output buffers; merging in chunk
  // order keeps the cell sequence identical to serial execution.
  for (size_t li = 1; li < db.layers_.size(); ++li) {
    const Layer* layer = db.layers_[li];
    struct ChunkOut {
      std::vector<Cell> next;
      Status status = Status::OK();
    };
    std::vector<Cell> merged;
    Status failed = Status::OK();
    parallel::OrderedReduce<ChunkOut>(
        threads, db.cells_.size(),
        [&](size_t /*chunk*/, size_t begin, size_t end, ChunkOut* out) {
          for (size_t ci = begin; ci < end; ++ci) {
            Cell& cell = db.cells_[ci];
            double cell_area = cell.polygon.Area();
            double covered_area = 0.0;
            for (GeometryId id :
                 layer->CandidatesInBox(cell.polygon.Bounds())) {
              auto pg = layer->GetPolygon(id);
              if (!pg.ok()) {
                out->status = pg.status();
                return;
              }
              std::optional<Ring> piece = geometry::ClipRingToConvex(
                  cell.polygon.shell(), pg.ValueOrDie()->shell());
              if (!piece) {
                continue;
              }
              Cell sub;
              sub.polygon = Polygon(std::move(*piece));
              covered_area += sub.polygon.Area();
              sub.covered = cell.covered;
              sub.covered.push_back({li, id});
              out->next.push_back(std::move(sub));
            }
            if (covered_area < cell_area * (1.0 - 1e-6)) {
              out->status = Status::InvalidArgument(
                  "layer '" + layer->name() +
                  "' does not tile an overlay cell (partition layers "
                  "required); use BuildQuadtree");
              return;
            }
          }
        },
        [&](ChunkOut&& out) {
          if (failed.ok() && !out.status.ok()) {
            failed = out.status;
          }
          for (Cell& cell : out.next) {
            merged.push_back(std::move(cell));
          }
        });
    if (!failed.ok()) {
      return failed;
    }
    db.cells_ = std::move(merged);
  }

  db.ResolveCandidatePolygons();
  db.BuildCellIndex();
  RecordOverlayBuild(db.cells_.size());
  return db;
}

Result<OverlayDb> OverlayDb::BuildQuadtree(std::vector<const Layer*> layers,
                                           int max_depth, int threads) {
  obs::ScopedTimer build_timer(
      obs::Enabled()
          ? &obs::MetricsRegistry::Global().GetHistogram("overlay.build.latency")
          : nullptr);
  threads = parallel::ResolveThreads(threads);
  OverlayDb db;
  db.layers_ = std::move(layers);
  db.convex_exact_ = false;

  BoundingBox domain;
  for (const Layer* layer : db.layers_) {
    if (layer == nullptr) {
      return Status::InvalidArgument("null layer");
    }
    if (layer->kind() != GeometryKind::kPolygon) {
      return Status::InvalidArgument("overlay needs polygon layers; '" +
                                     layer->name() + "' is not one");
    }
    domain.ExtendWith(layer->Bounds());
  }
  if (db.layers_.empty() || domain.empty()) {
    return Status::InvalidArgument("overlay needs at least one layer");
  }

  struct Work {
    BoundingBox box;
    std::vector<OverlayLabel> covered;
    std::vector<OverlayLabel> candidates;
    int depth = 0;
  };

  Work root;
  root.box = domain;
  root.depth = 0;
  for (size_t li = 0; li < db.layers_.size(); ++li) {
    for (GeometryId id : db.layers_[li]->ids()) {
      root.candidates.push_back({li, id});
    }
  }

  // Level-synchronous refinement: every node of the current frontier runs
  // the containment tests independently; heterogeneous nodes spawn their
  // four children into the next frontier. Chunk boundaries depend only on
  // the frontier size and per-chunk outputs merge in chunk order, so both
  // the emitted cell sequence and the child order are thread-count
  // independent.
  std::vector<Work> frontier;
  frontier.push_back(std::move(root));
  while (!frontier.empty()) {
    struct ChunkOut {
      std::vector<Cell> cells;
      std::vector<Work> children;
    };
    std::vector<Work> next_frontier;
    parallel::OrderedReduce<ChunkOut>(
        threads, frontier.size(),
        [&](size_t /*chunk*/, size_t begin, size_t end, ChunkOut* out) {
          for (size_t wi = begin; wi < end; ++wi) {
            Work& w = frontier[wi];
            Polygon rect = MakeRectangle(w.box.min_x, w.box.min_y,
                                         w.box.max_x, w.box.max_y);

            std::vector<OverlayLabel> still;
            for (const OverlayLabel& cand : w.candidates) {
              auto pg = db.layers_[cand.layer]->GetPolygon(cand.geom);
              if (!pg.ok()) {
                continue;
              }
              const Polygon& poly = *pg.ValueOrDie();
              if (!poly.Bounds().Intersects(w.box)) {
                continue;
              }
              if (poly.ContainsPolygon(rect)) {
                w.covered.push_back(cand);
              } else if (!MissesOpenBox(poly, w.box) &&
                         poly.Intersects(rect)) {
                still.push_back(cand);
              }
            }
            w.candidates = std::move(still);

            if (!w.candidates.empty() && w.depth < max_depth) {
              double mx = (w.box.min_x + w.box.max_x) / 2.0;
              double my = (w.box.min_y + w.box.max_y) / 2.0;
              BoundingBox quads[4] = {
                  BoundingBox(w.box.min_x, w.box.min_y, mx, my),
                  BoundingBox(mx, w.box.min_y, w.box.max_x, my),
                  BoundingBox(w.box.min_x, my, mx, w.box.max_y),
                  BoundingBox(mx, my, w.box.max_x, w.box.max_y),
              };
              for (const BoundingBox& q : quads) {
                Work child;
                child.box = q;
                child.covered = w.covered;
                child.candidates = w.candidates;
                child.depth = w.depth + 1;
                out->children.push_back(std::move(child));
              }
              continue;
            }

            Cell cell;
            cell.polygon = MakeRectangle(w.box.min_x, w.box.min_y,
                                         w.box.max_x, w.box.max_y);
            cell.covered = std::move(w.covered);
            cell.candidates = std::move(w.candidates);
            out->cells.push_back(std::move(cell));
          }
        },
        [&](ChunkOut&& out) {
          for (Cell& cell : out.cells) {
            db.cells_.push_back(std::move(cell));
          }
          for (Work& child : out.children) {
            next_frontier.push_back(std::move(child));
          }
        });
    frontier = std::move(next_frontier);
  }

  db.ResolveCandidatePolygons();
  db.BuildCellIndex();
  RecordOverlayBuild(db.cells_.size());
  return db;
}

void OverlayDb::ResolveCandidatePolygons() {
  for (Cell& cell : cells_) {
    cell.candidate_polys.clear();
    cell.candidate_polys.reserve(cell.candidates.size());
    for (const OverlayLabel& cand : cell.candidates) {
      auto pg = layers_[cand.layer]->GetPolygon(cand.geom);
      cell.candidate_polys.push_back(pg.ok() ? pg.ValueOrDie() : nullptr);
    }
  }
}

void OverlayDb::BuildCellIndex() {
  BoundingBox domain;
  for (const Cell& cell : cells_) {
    domain.ExtendWith(cell.polygon.Bounds());
  }
  size_t n = static_cast<size_t>(
      std::max(1.0, std::sqrt(static_cast<double>(cells_.size()))));
  cell_index_ = std::make_unique<index::GridIndex>(domain, n);
  for (size_t i = 0; i < cells_.size(); ++i) {
    cell_index_->Insert(cells_[i].polygon.Bounds(),
                        static_cast<index::GridIndex::Id>(i));
  }
}

OverlayHit OverlayDb::Locate(Point p) const {
  OverlayHit hit;
  hit.per_layer.resize(layers_.size());
  if (!cell_index_) {
    return hit;
  }
  std::vector<OverlayLabel> labels;
  cell_index_->VisitPoint(p, [&](index::GridIndex::Id raw) {
    const Cell& cell = cells_[static_cast<size_t>(raw)];
    if (!cell.polygon.Contains(p)) {
      return;
    }
    for (const OverlayLabel& label : cell.covered) {
      labels.push_back(label);
    }
    for (size_t i = 0; i < cell.candidates.size(); ++i) {
      const Polygon* pg = cell.candidate_polys[i];
      if (pg != nullptr && pg->Contains(p)) {
        labels.push_back(cell.candidates[i]);
      }
    }
  });
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  for (const OverlayLabel& label : labels) {
    hit.per_layer[label.layer].push_back(label.geom);
  }
  return hit;
}

std::vector<GeometryId> OverlayDb::LocateInLayer(Point p, size_t layer) const {
  std::vector<GeometryId> out;
  LocateInLayerInto(p, layer, &out);
  return out;
}

void OverlayDb::LocateInLayerInto(Point p, size_t layer,
                                  std::vector<GeometryId>* out,
                                  LocateWork* work) const {
  out->clear();
  if (!cell_index_ || layer >= layers_.size()) {
    return;
  }
  cell_index_->VisitPoint(p, [&](index::GridIndex::Id raw) {
    const Cell& cell = cells_[static_cast<size_t>(raw)];
    if (work != nullptr) {
      ++work->cells_visited;
    }
    if (!cell.polygon.Contains(p)) {
      return;
    }
    for (const OverlayLabel& label : cell.covered) {
      if (label.layer == layer) {
        out->push_back(label.geom);
      }
    }
    for (size_t i = 0; i < cell.candidates.size(); ++i) {
      if (cell.candidates[i].layer != layer) {
        continue;
      }
      if (work != nullptr) {
        ++work->candidates_tested;
      }
      const Polygon* pg = cell.candidate_polys[i];
      if (pg != nullptr && pg->Contains(p)) {
        out->push_back(cell.candidates[i].geom);
      }
    }
  });
  // A point on a shared cell border is reported by every adjacent cell;
  // dedup only when more than one id was collected (the common case is 1).
  if (out->size() > 1) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

BatchHits OverlayDb::LocateBatch(std::span<const Point> points, size_t layer,
                                 int threads) const {
  threads = parallel::ResolveThreads(threads);
  BatchHits out;
  out.offsets.reserve(points.size() + 1);
  out.offsets.push_back(0);

  // Per-chunk hits with chunk-local offsets; the ordered merge rebases
  // them, so the flat result is independent of the thread count. Work
  // counters accumulate chunk-locally and flush once per batch, keeping
  // the per-point loop free of shared writes.
  const bool observed = obs::Enabled();
  LocateWork total_work;
  struct ChunkOut {
    std::vector<uint32_t> counts;
    std::vector<GeometryId> ids;
    LocateWork work;
  };
  parallel::OrderedReduce<ChunkOut>(
      threads, points.size(),
      [&](size_t /*chunk*/, size_t begin, size_t end, ChunkOut* chunk_out) {
        chunk_out->counts.reserve(end - begin);
        std::vector<GeometryId> hits;  // One scratch buffer per chunk.
        LocateWork* work = observed ? &chunk_out->work : nullptr;
        for (size_t i = begin; i < end; ++i) {
          LocateInLayerInto(points[i], layer, &hits, work);
          chunk_out->counts.push_back(static_cast<uint32_t>(hits.size()));
          chunk_out->ids.insert(chunk_out->ids.end(), hits.begin(),
                                hits.end());
        }
      },
      [&](ChunkOut&& chunk_out) {
        uint32_t base = out.offsets.back();
        for (uint32_t count : chunk_out.counts) {
          base += count;
          out.offsets.push_back(base);
        }
        out.ids.insert(out.ids.end(), chunk_out.ids.begin(),
                       chunk_out.ids.end());
        total_work += chunk_out.work;
      });
  if (observed) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("overlay.locate.points")
        .Add(static_cast<int64_t>(points.size()));
    registry.GetCounter("overlay.locate.cells_visited")
        .Add(static_cast<int64_t>(total_work.cells_visited));
    registry.GetCounter("overlay.locate.candidates_tested")
        .Add(static_cast<int64_t>(total_work.candidates_tested));
  }
  return out;
}

}  // namespace piet::gis
