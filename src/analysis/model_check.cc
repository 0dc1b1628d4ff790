#include "analysis/model_check.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "analysis/lint/schema_lint.h"
#include "geometry/clip.h"

namespace piet::analysis {

namespace {

bool IsFinite(const geometry::Point& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

std::string FormatPoint(const geometry::Point& p) {
  std::ostringstream os;
  os << "(" << p.x << ", " << p.y << ")";
  return os.str();
}

}  // namespace

void ModelChecker::CheckInstance(const gis::GisDimensionInstance& instance,
                                 DiagnosticList* out) const {
  // Defs. 1-2 over the schema lattice: H(L), Att, stored rollups, α.
  out->Merge(lint::LintSchema(lint::SchemaModel::FromInstance(instance)));

  for (const std::string& name : instance.schema().LayerNames()) {
    if (!instance.GetLayer(name).ok()) {
      out->AddError("instance-layer-missing", "layer '" + name + "'",
                    "declared in the schema but has no registered layer "
                    "instance");
    }
  }

  for (const olap::DimensionSchema& d :
       instance.schema().application_dimensions()) {
    Status status = d.Validate();
    if (!status.ok()) {
      out->AddError("schema-dim-consistent",
                    "application dimension '" + d.name() + "'",
                    status.message());
    }
    auto inst = instance.ApplicationInstance(d.name());
    if (!inst.ok()) {
      continue;  // Declaring a schema without an instance is legal.
    }
    status = inst.ValueOrDie()->CheckConsistency();
    if (!status.ok()) {
      out->AddError("schema-dim-consistent",
                    "application instance '" + d.name() + "'",
                    status.message());
    }
  }
}

namespace {

using LastSeen = std::map<moving::ObjectId, temporal::TimePoint>;

/// The sample-stream checks over any range of moving::Sample (an owning
/// vector or one object span). `last_t` holds each Oid's last accepted
/// timestamp, so a table may be fed one span at a time.
template <typename SampleRange>
void CheckSampleStream(const SampleRange& samples, const std::string& entity,
                       LastSeen* last_t, DiagnosticList* out) {
  for (const moving::Sample& s : samples) {
    std::string sample_entity =
        entity + " oid " + std::to_string(s.oid) + " t=" +
        std::to_string(s.t.seconds);
    if (!std::isfinite(s.t.seconds) || !IsFinite(s.pos)) {
      out->AddError("moft-finite-coords", sample_entity,
                    "non-finite timestamp or position " +
                        FormatPoint(s.pos));
    }
    auto it = last_t->find(s.oid);
    if (it != last_t->end()) {
      if (s.t == it->second) {
        out->AddError("moft-duplicate-sample", sample_entity,
                      "duplicate (Oid, t) observation; an object is at one "
                      "place at a time");
        continue;  // Keep the previous timestamp as the reference.
      }
      if (s.t < it->second) {
        out->AddError("moft-time-monotonic", sample_entity,
                      "timestamps must be strictly increasing per Oid for "
                      "LIT(S) to be well-defined");
        continue;
      }
    }
    (*last_t)[s.oid] = s.t;
  }
}

}  // namespace

void ModelChecker::CheckSamples(const std::string& entity,
                                const std::vector<moving::Sample>& samples,
                                DiagnosticList* out) const {
  LastSeen last_t;
  CheckSampleStream(samples, entity, &last_t, out);
}

void ModelChecker::CheckMoft(const std::string& name,
                             const moving::Moft& moft,
                             DiagnosticList* out) const {
  // One walk over the sealed blocks, span by span like a query scan, so a
  // released or opened table is decoded a block at a time and never
  // rematerialized whole. The sample-stream findings come first and the
  // trajectory findings after them, as over one whole-table scan.
  const std::string entity = "moft '" + name + "'";
  LastSeen last_t;
  DiagnosticList trajectories;
  moving::BlockIoStats io;
  const moving::TableBlocks blocks = moft.Blocks();
  const Status walked = blocks.ForEachSpan(
      0, blocks.total_spans(), moving::ZoneFilter(), &io,
      [&](const moving::MoftColumns& data,
          const moving::MoftColumns::Span& span) {
        const moving::ObjectSpan samples(&data, span);
        CheckSampleStream(samples, entity, &last_t, out);
        std::vector<moving::TimedPoint> points;
        points.reserve(samples.size());
        for (const moving::Sample& s : samples) {
          points.push_back({s.t, s.pos});
        }
        CheckTrajectory(entity + " oid " + std::to_string(span.oid), points,
                        &trajectories);
        return Status::OK();
      });
  if (!walked.ok()) {
    out->AddError("moft-block-decode", entity, walked.message());
  }
  out->Merge(trajectories);
}

void ModelChecker::CheckTrajectory(
    const std::string& entity, const std::vector<moving::TimedPoint>& points,
    DiagnosticList* out) const {
  for (const moving::TimedPoint& p : points) {
    if (!std::isfinite(p.t.seconds) || !IsFinite(p.pos)) {
      out->AddError("moft-finite-coords", entity,
                    "non-finite timestamp or position " + FormatPoint(p.pos));
      return;  // Leg arithmetic below would be meaningless.
    }
  }
  for (size_t i = 1; i < points.size(); ++i) {
    const moving::TimedPoint& a = points[i - 1];
    const moving::TimedPoint& b = points[i];
    double dt = b.t.seconds - a.t.seconds;
    double dist = std::hypot(b.pos.x - a.pos.x, b.pos.y - a.pos.y);
    if (dt < 0.0) {
      out->AddError("traj-continuity", entity,
                    "negative elapsed time between consecutive points (t=" +
                        std::to_string(a.t.seconds) + " -> t=" +
                        std::to_string(b.t.seconds) + ")");
      continue;
    }
    if (dt == 0.0) {
      if (dist > 0.0) {
        out->AddError("traj-continuity", entity,
                      "zero elapsed time with a position jump at t=" +
                          std::to_string(a.t.seconds) +
                          "; LIT(S) is not a function of time");
      }
      continue;
    }
    if (options_.max_speed > 0.0 && dist / dt > options_.max_speed) {
      out->AddWarning("traj-speed-bound", entity,
                      "leg at t=" + std::to_string(a.t.seconds) +
                          " implies speed " + std::to_string(dist / dt) +
                          " > bound " + std::to_string(options_.max_speed));
    }
  }
}

void ModelChecker::CheckOverlayCells(const std::string& entity,
                                     const std::vector<geometry::Polygon>& cells,
                                     double expected_area,
                                     DiagnosticList* out) const {
  double total = 0.0;
  for (const geometry::Polygon& cell : cells) {
    total += cell.Area();
  }

  for (size_t i = 0; i < cells.size(); ++i) {
    for (size_t j = i + 1; j < cells.size(); ++j) {
      if (!cells[i].Bounds().Intersects(cells[j].Bounds())) {
        continue;
      }
      if (!cells[i].IsConvex() || !cells[j].IsConvex()) {
        continue;  // Exact interior-overlap area needs convex operands.
      }
      double overlap = geometry::ConvexIntersectionArea(cells[i], cells[j]);
      double tolerance = options_.area_epsilon *
                         std::max(1.0, std::min(cells[i].Area(),
                                                cells[j].Area()));
      if (overlap > tolerance) {
        out->AddError("overlay-partition",
                      entity + " cells " + std::to_string(i) + "/" +
                          std::to_string(j),
                      "cell interiors overlap (area " +
                          std::to_string(overlap) +
                          "); Sec. 5 requires the overlay to partition the "
                          "plane");
      }
    }
  }

  if (expected_area >= 0.0) {
    double tolerance = options_.area_epsilon * std::max(1.0, expected_area);
    if (std::abs(total - expected_area) > tolerance) {
      out->AddError("overlay-area-conservation", entity,
                    "cell areas sum to " + std::to_string(total) +
                        " but the covered domain has area " +
                        std::to_string(expected_area));
    }
  }
}

void ModelChecker::CheckOverlay(const gis::OverlayDb& overlay,
                                DiagnosticList* out) const {
  std::string entity =
      overlay.is_convex_exact() ? "convex overlay" : "quadtree overlay";
  std::vector<geometry::Polygon> cells;
  cells.reserve(overlay.num_cells());
  for (size_t i = 0; i < overlay.num_cells(); ++i) {
    cells.push_back(overlay.CellPolygon(i));
  }

  if (overlay.is_convex_exact()) {
    CheckOverlayCells(entity, cells, /*expected_area=*/-1.0, out);
    // Area conservation per covering label: the cells a polygon covers must
    // tile exactly that polygon.
    std::map<gis::OverlayLabel, double> covered_area;
    for (size_t i = 0; i < overlay.num_cells(); ++i) {
      for (const gis::OverlayLabel& label : overlay.CellCovered(i)) {
        covered_area[label] += cells[i].Area();
      }
    }
    for (const auto& [label, area] : covered_area) {
      if (label.layer >= overlay.layers().size()) {
        continue;
      }
      auto pg = overlay.layers()[label.layer]->GetPolygon(label.geom);
      if (!pg.ok()) {
        continue;
      }
      double expected = pg.ValueOrDie()->Area();
      double tolerance = options_.area_epsilon * std::max(1.0, expected);
      if (std::abs(area - expected) > tolerance) {
        out->AddError(
            "overlay-area-conservation",
            entity + " layer " + std::to_string(label.layer) + " geometry " +
                std::to_string(label.geom),
            "covering cells sum to area " + std::to_string(area) +
                " but the polygon has area " + std::to_string(expected));
      }
    }
  } else {
    // Quadtree leaves tile the domain box exactly.
    geometry::BoundingBox domain;
    for (const geometry::Polygon& cell : cells) {
      domain.ExtendWith(cell.Bounds());
    }
    double expected =
        domain.empty() ? 0.0
                       : (domain.max_x - domain.min_x) *
                             (domain.max_y - domain.min_y);
    CheckOverlayCells(entity, cells, expected, out);
  }
}

DiagnosticList ModelChecker::CheckAll(const DatabaseView& view) const {
  DiagnosticList out;
  if (view.gis != nullptr) {
    CheckInstance(*view.gis, &out);
  }
  for (const auto& [name, moft] : view.mofts) {
    if (moft != nullptr) {
      CheckMoft(name, *moft, &out);
    }
  }
  if (view.overlay != nullptr) {
    CheckOverlay(*view.overlay, &out);
  }
  return out;
}

}  // namespace piet::analysis
