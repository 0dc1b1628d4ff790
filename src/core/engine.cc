#include "core/engine.h"

#include <algorithm>
#include <chrono>

#include "core/geometry/batch.h"
#include "moving/bead.h"
#include "moving/traj_ops.h"
#include "obs/metrics.h"

namespace piet::core {

using gis::GeometryId;
using gis::Layer;
using moving::LinearTrajectory;
using moving::Moft;
using moving::ObjectId;
using moving::ObjectSpan;
using moving::Sample;
using moving::TrajectorySample;
using olap::FactTable;
using olap::Row;
using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

std::string_view StrategyToString(Strategy s) {
  switch (s) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kIndexed:
      return "indexed";
    case Strategy::kOverlay:
      return "overlay";
  }
  return "unknown";
}

namespace {

/// Flushes one engine call's work counters and latency to the registry on
/// destruction. The enabled check happens once at construction, so a
/// disabled query pays one branch — the per-row loops never touch the
/// registry (they accumulate into chunk-local ScanStats regardless).
class QueryObs {
 public:
  QueryObs(const char* type, const EngineStats* stats)
      : enabled_(obs::Enabled()), type_(type), stats_(stats) {
    if (enabled_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  QueryObs(const QueryObs&) = delete;
  QueryObs& operator=(const QueryObs&) = delete;

  ~QueryObs() {
    if (!enabled_) {
      return;
    }
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetHistogram(std::string("engine.query.") + type_ + ".latency")
        .RecordNanos(ns);
    registry.GetCounter("engine.queries").Add(1);
    registry.GetCounter("engine.rows_scanned")
        .Add(static_cast<int64_t>(stats_->samples_scanned));
    registry.GetCounter("engine.point_tests")
        .Add(static_cast<int64_t>(stats_->point_tests));
    registry.GetCounter("engine.legs_tested")
        .Add(static_cast<int64_t>(stats_->legs_tested));
    registry.GetCounter("engine.leg_refines")
        .Add(static_cast<int64_t>(stats_->leg_refines));
    registry.GetCounter("engine.rows_matched")
        .Add(static_cast<int64_t>(stats_->rows_matched));
    registry.GetCounter("engine.blocks_pinned")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_pinned));
    registry.GetCounter("engine.blocks_decoded")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_decoded));
    registry.GetCounter("engine.blocks_skipped")
        .Add(static_cast<int64_t>(stats_->blocks.blocks_skipped));
  }

 private:
  bool enabled_;
  const char* type_;
  const EngineStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

size_t NumRows(const FactTable& table) { return table.num_rows(); }
size_t NumRows(const std::vector<ObjectId>& ids) { return ids.size(); }

/// Ends one engine call: the scan's counters become the call's stats and,
/// unless the scan failed, its output is the answer.
template <typename Out>
Result<Out> Finish(const BlockScan& scan, const Status& scanned, Out out,
                   EngineStats* stats) {
  *stats = scan.stats();
  PIET_RETURN_NOT_OK(scanned);
  stats->rows_matched = NumRows(out);
  return out;
}

/// The strategy switch of SampleRegion and RegionObjects: calls
/// emit(chunk, rows, i, g) per matching row i inside qualifying polygon g,
/// appends the chunks' T outputs to `out`, and sets `stats`.
template <typename T, typename Out, typename Emit>
Status ScanRegion(const QueryEngine& engine, const std::string& moft_name,
                  const std::string& layer_name, const GeometryPredicate& pred,
                  const TimePredicate& when, Strategy strategy,
                  EngineStats* stats, Out* out, const Emit& emit) {
  *stats = EngineStats{};
  const GeoOlapDatabase& db = engine.db();
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db.GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db.gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument("sample location needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(const std::vector<GeometryId> ids,
                        engine.QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, ids);
  const std::vector<uint8_t> member = wanted.Bitmap(layer->size());
  std::shared_ptr<const SampleClassification> cls;
  if (strategy == Strategy::kOverlay) {
    // The Sec. 5 fast path: the (MOFT, overlay-layer) classification is
    // predicate- and time-independent, so it is computed once (batched
    // across the pool) and served from the database cache on every
    // subsequent query over the same MOFT. Its hits are indexed by global
    // row; the scan reads (oid, t) from the blocks the time window admits.
    PIET_ASSIGN_OR_RETURN(cls, db.ClassifySamples(moft_name, layer_name));
  } else if (strategy == Strategy::kIndexed) {
    layer->WarmIndex();
  }
  // The polygon-testing strategies also skip blocks outside the
  // qualifying polygons' box.
  BlockScan scan(*moft, when, cls ? nullptr : &wanted.polys,
                 engine.num_threads());
  Status scanned;
  if (cls) {
    const gis::BatchHits& hits = cls->hits;
    scanned = scan.Samples<T>(
        db.time_dimension(), out, [&](const SampleRows& b, auto& c) {
          b.ForEach([&](size_t i) {
            const size_t row = b.row_base + i;
            for (uint32_t j = hits.offsets[row]; j < hits.offsets[row + 1];
                 ++j) {
              if (member[static_cast<size_t>(hits.ids[j])]) {
                emit(c, b, i, hits.ids[j]);
              }
            }
          });
        });
  } else if (strategy == Strategy::kNaive) {
    // Batch point-in-polygon: verdicts bit-identical to Polygon::Contains,
    // hits in the scalar (sample, qualifying-polygon) order, and
    // point_tests counting every sample-times-polygon probe (the naive
    // loop has no early exit).
    const batch::PolygonSetBatcher batcher(wanted.polys);
    scanned = scan.Samples<T, batch::TileScratch>(
        db.time_dimension(), out, [&](const SampleRows& b, auto& c) {
          c.stats.point_tests += batcher.ForEachHit(
              b.data, b.runs, &c.scratch,
              [&](size_t i, size_t q) { emit(c, b, i, wanted.ids[q]); });
        });
  } else {
    scanned = scan.Samples<T>(
        db.time_dimension(), out, [&](const SampleRows& b, auto& c) {
          b.ForEach([&](size_t i) {
            for (GeometryId id : layer->GeometriesContaining(
                     geometry::Point(b.data.x[i], b.data.y[i]))) {
              ++c.stats.point_tests;  // GeometriesContaining tested it.
              if (member[static_cast<size_t>(id)]) {
                emit(c, b, i, id);
              }
            }
          });
        });
  }
  *stats = scan.stats();
  return scanned;
}

}  // namespace

Result<std::vector<GeometryId>> QueryEngine::QualifyingGeometries(
    const std::string& layer_name, const GeometryPredicate& pred) const {
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  std::vector<GeometryId> out;
  // Stays serial: predicates may memoize internally (WithinDistanceOfLayer,
  // DensityMassGreater) and are not synchronized.
  for (GeometryId id : layer->ids()) {
    if (pred(*layer, id)) {
      out.push_back(id);
    }
  }
  return out;
}

Result<ResolvedPolygons> QueryEngine::QualifyingPolygons(
    const Layer& layer, const std::string& layer_name,
    const GeometryPredicate& pred) const {
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  return ResolvePolygons(layer, qualifying);
}

Result<olap::FactTable> QueryEngine::SamplesMatchingTime(
    const std::string& moft_name, const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("samples_matching_time", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  BlockScan scan(*moft, when, nullptr, num_threads_);
  FactTable out = FactTable::Make({"Oid", "t", "x", "y"}, {});
  const Status scanned = scan.Samples<Row>(
      db_->time_dimension(), &out, [](const SampleRows& b, auto& c) {
        b.ForEach([&](size_t i) {
          c.out.push_back({Value(b.data.oid[i]), Value(b.data.t[i]),
                           Value(b.data.x[i]), Value(b.data.y[i])});
        });
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::SampleRegion(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    Strategy strategy) const {
  QueryObs query_obs("sample_region", &stats_);
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});
  PIET_RETURN_NOT_OK(ScanRegion<Row>(
      *this, moft_name, layer_name, pred, when, strategy, &stats_, &out,
      [](auto& c, const SampleRows& b, size_t i, GeometryId g) {
        c.out.push_back({Value(b.data.oid[i]), Value(b.data.t[i]), Value(g)});
      }));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<gamma::State> QueryEngine::RegionObjects(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    Strategy strategy) const {
  QueryObs query_obs("region_objects", &stats_);
  const gamma::Granule hours;
  std::vector<gamma::Run> runs;
  PIET_RETURN_NOT_OK(ScanRegion<gamma::Run>(
      *this, moft_name, layer_name, pred, when, strategy, &stats_, &runs,
      [&hours](auto& c, const SampleRows& b, size_t i, GeometryId) {
        ++c.stats.rows_matched;
        gamma::Fold(&c.out, hours.Of(b.data.t[i]), b.data.oid[i]);
      }));
  return gamma::Build(std::move(runs));
}

Result<FactTable> QueryEngine::SamplesOnPolylines(
    const std::string& moft_name, const std::string& layer_name,
    double tolerance, const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("samples_on_polylines", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolyline &&
      layer->kind() != gis::GeometryKind::kLine) {
    return Status::InvalidArgument("SamplesOnPolylines needs a line layer");
  }
  layer->WarmIndex();
  BlockScan scan(*moft, when, nullptr, num_threads_);
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});
  const Status scanned = scan.Samples<Row>(
      db_->time_dimension(), &out, [&](const SampleRows& b, auto& c) {
        b.ForEach([&](size_t i) {
          const geometry::Point pos(b.data.x[i], b.data.y[i]);
          geometry::BoundingBox probe(pos.x - tolerance, pos.y - tolerance,
                                      pos.x + tolerance, pos.y + tolerance);
          for (GeometryId id : layer->CandidatesInBox(probe)) {
            auto line = layer->GetPolyline(id);
            if (!line.ok()) {
              continue;
            }
            ++c.stats.point_tests;
            if (line.ValueOrDie()->DistanceTo(pos) <= tolerance) {
              c.out.push_back(
                  {Value(b.data.oid[i]), Value(b.data.t[i]), Value(id)});
            }
          }
        });
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::SamplesNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("samples_near_nodes", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kNode &&
      layer->kind() != gis::GeometryKind::kPoint) {
    return Status::InvalidArgument("SamplesNearNodes needs a node layer");
  }
  layer->WarmIndex();
  BlockScan scan(*moft, when, nullptr, num_threads_);
  FactTable out = FactTable::Make({"Oid", "t", "node"}, {});
  const Status scanned = scan.Samples<Row>(
      db_->time_dimension(), &out, [&](const SampleRows& b, auto& c) {
        b.ForEach([&](size_t i) {
          const geometry::Point pos(b.data.x[i], b.data.y[i]);
          geometry::BoundingBox probe(pos.x - radius, pos.y - radius,
                                      pos.x + radius, pos.y + radius);
          for (GeometryId id : layer->CandidatesInBox(probe)) {
            auto node = layer->GetPoint(id);
            if (!node.ok()) {
              continue;
            }
            ++c.stats.point_tests;
            if (Distance(node.ValueOrDie(), pos) <= radius) {
              c.out.push_back(
                  {Value(b.data.oid[i]), Value(b.data.t[i]), Value(id)});
            }
          }
        });
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::SnapshotInRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                TimePoint t) const {
  stats_ = EngineStats{};
  QueryObs query_obs("snapshot_in_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*layer, layer_name, pred));
  // Objects never split across blocks and the LIT stays inside the convex
  // hull of its samples, so a block whose time zonemap misses `t` or whose
  // bbox misses every qualifying polygon contributes nothing.
  BlockScan scan(*moft, TimePredicate().Window(Interval(t, t)),
                 &wanted.polys, num_threads_);
  FactTable out = FactTable::Make({"Oid", "x", "y", "geom"}, {});
  const Status scanned = scan.Spans<Row>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        // The (at most 3) samples around t: PositionAt picks the same leg.
        PIET_ASSIGN_OR_RETURN(
            TrajectorySample sample,
            TrajectorySample::FromSpan(span.LegsMeeting(t, t)));
        PIET_ASSIGN_OR_RETURN(LinearTrajectory traj,
                              LinearTrajectory::FromSample(std::move(sample)));
        std::optional<geometry::Point> pos = traj.PositionAt(t);
        if (!pos) {
          return Status::OK();
        }
        for (size_t qi = 0; qi < wanted.ids.size(); ++qi) {
          ++c.stats.point_tests;
          if (wanted.polys[qi]->Contains(*pos)) {
            c.out.push_back({Value(span.oid()), Value(pos->x), Value(pos->y),
                             Value(wanted.ids[qi])});
          }
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::TrajectoryRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("trajectory_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument("TrajectoryRegion needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*layer, layer_name, pred));
  const batch::LegRefiner refiner(wanted.polys);
  BlockScan scan(*moft, when, &wanted.polys, num_threads_);
  FactTable out = FactTable::Make({"Oid", "geom", "enter", "leave"}, {});
  const Status scanned = scan.Spans<Row, batch::LegScratch>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        PIET_ASSIGN_OR_RETURN(const TimeClip clip,
                              ClipToTime(when, db_->time_dimension(), span));
        if (clip.time_ok.empty()) {
          return Status::OK();
        }
        c.stats.legs_tested += clip.span.size() - 1;
        c.stats.leg_refines += refiner.Refine(clip.span, &c.scratch);
        for (const uint32_t qi : c.scratch.hit) {
          const IntervalSet matched =
              IntervalSet(c.scratch.pieces[qi]).Intersect(clip.time_ok);
          for (const Interval& iv : matched.intervals()) {
            c.out.push_back({Value(span.oid()), Value(wanted.ids[qi]),
                             Value(iv.begin.seconds), Value(iv.end.seconds)});
          }
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::TrajectoryNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("trajectory_near_nodes", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kNode &&
      layer->kind() != gis::GeometryKind::kPoint) {
    return Status::InvalidArgument("TrajectoryNearNodes needs a node layer");
  }
  layer->WarmIndex();
  BlockScan scan(*moft, when, nullptr, num_threads_);
  FactTable out = FactTable::Make({"Oid", "node", "enter", "leave"}, {});
  const Status scanned = scan.Spans<Row>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        PIET_ASSIGN_OR_RETURN(const TimeClip clip,
                              ClipToTime(when, db_->time_dimension(), span));
        if (clip.time_ok.empty()) {
          return Status::OK();
        }
        PIET_ASSIGN_OR_RETURN(TrajectorySample sample,
                              TrajectorySample::FromSpan(clip.span));
        PIET_ASSIGN_OR_RETURN(LinearTrajectory traj,
                              LinearTrajectory::FromSample(std::move(sample)));
        c.stats.legs_tested += clip.span.size() - 1;
        // Candidate nodes: those within radius of the clipped samples.
        geometry::BoundingBox probe;
        for (const moving::TimedPoint& tp : traj.sample().points()) {
          probe.ExtendWith(tp.pos);
        }
        geometry::BoundingBox expanded(probe.min_x - radius,
                                       probe.min_y - radius,
                                       probe.max_x + radius,
                                       probe.max_y + radius);
        for (GeometryId id : layer->CandidatesInBox(expanded)) {
          auto node = layer->GetPoint(id);
          if (!node.ok()) {
            continue;
          }
          ++c.stats.point_tests;
          const IntervalSet matched =
              moving::WithinDistanceIntervals(traj, node.ValueOrDie(), radius)
                  .Intersect(clip.time_ok);
          for (const Interval& iv : matched.intervals()) {
            c.out.push_back({Value(span.oid()), Value(id),
                             Value(iv.begin.seconds), Value(iv.end.seconds)});
          }
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<FactTable> QueryEngine::TrajectoryAggregates(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred) const {
  stats_ = EngineStats{};
  QueryObs query_obs("trajectory_aggregates", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument("TrajectoryAggregates needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*layer, layer_name, pred));
  const batch::LegRefiner refiner(wanted.polys);
  BlockScan scan(*moft, TimePredicate(), &wanted.polys, num_threads_);
  FactTable out = FactTable::Make({"Oid", "geom"},
                                  {"distance", "seconds", "visits"});
  const Status scanned = scan.Spans<Row, batch::LegScratch>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        c.stats.legs_tested += span.size() - 1;
        c.stats.leg_refines += refiner.Refine(span, &c.scratch);
        for (const uint32_t qi : c.scratch.hit) {
          IntervalSet inside(c.scratch.pieces[qi]);
          c.out.push_back({Value(span.oid()), Value(wanted.ids[qi]),
                           Value(c.scratch.distance[qi]),
                           Value(inside.TotalLength()),
                           Value(static_cast<int64_t>(inside.size()))});
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<std::vector<ObjectId>> QueryEngine::ObjectsPossiblyWithin(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, double vmax) const {
  stats_ = EngineStats{};
  QueryObs query_obs("objects_possibly_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  if (layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument(
        "ObjectsPossiblyWithin needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*layer, layer_name, pred));
  // No zonemap filter: lifeline beads under vmax can reach outside the
  // block's sample bbox, so a bbox miss proves nothing here.
  BlockScan scan(*moft, TimePredicate(), nullptr, num_threads_);
  std::vector<ObjectId> out;
  const Status scanned = scan.Spans<ObjectId>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        PIET_ASSIGN_OR_RETURN(TrajectorySample sample,
                              TrajectorySample::FromSpan(span));
        c.stats.legs_tested += sample.size() > 0 ? sample.size() - 1 : 0;
        for (const geometry::Polygon* pg : wanted.polys) {
          PIET_ASSIGN_OR_RETURN(
              bool hit, moving::PossiblyPassesThrough(sample, vmax, *pg));
          if (hit) {
            c.out.push_back(span.oid());
            break;
          }
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

Result<std::vector<ObjectId>> QueryEngine::ObjectsAlwaysWithin(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    bool trajectory_semantics) const {
  stats_ = EngineStats{};
  QueryObs query_obs("objects_always_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*layer, layer_name, pred));
  // Time-window skip only: an object whose block misses the window has no
  // matching instant, so it is excluded either way ("any" stays false /
  // time_ok comes back empty). A bbox miss would also exclude it, but the
  // window is the conservative, obviously-safe choice here.
  BlockScan scan(*moft, when, nullptr, num_threads_);
  const batch::LegRefiner refiner(wanted.polys);
  struct Scratch {
    batch::LegScratch legs;
    std::vector<Interval> pieces;
  };
  std::vector<ObjectId> out;
  const Status scanned = scan.Spans<ObjectId, Scratch>(
      &out, [&](const ObjectSpan& span, auto& c) -> Status {
        bool ok = true;
        bool any = false;
        if (trajectory_semantics) {
          PIET_ASSIGN_OR_RETURN(const TimeClip clip,
                                ClipToTime(when, db_->time_dimension(), span));
          if (clip.time_ok.empty()) {
            return Status::OK();
          }
          c.stats.legs_tested += clip.span.size() - 1;
          c.stats.leg_refines += refiner.Refine(clip.span, &c.scratch.legs);
          // Union of inside intervals over all qualifying polygons must
          // cover every time-matching instant of the domain. The closed-set
          // union is canonical, so pooling every polygon's pieces equals
          // the per-polygon fold.
          std::vector<Interval>& pieces = c.scratch.pieces;
          pieces.clear();
          for (const uint32_t qi : c.scratch.legs.hit) {
            pieces.insert(pieces.end(), c.scratch.legs.pieces[qi].begin(),
                          c.scratch.legs.pieces[qi].end());
          }
          const IntervalSet inside_union(pieces);
          IntervalSet covered = clip.time_ok.Intersect(inside_union);
          any = true;
          ok = covered.TotalLength() >= clip.time_ok.TotalLength() - 1e-9 &&
               covered.size() == clip.time_ok.size();
        } else {
          for (const Sample& s : span) {
            if (!when.Matches(db_->time_dimension(), s.t)) {
              continue;
            }
            any = true;
            bool inside = false;
            for (const geometry::Polygon* pg : wanted.polys) {
              ++c.stats.point_tests;
              if (pg->Contains(s.pos)) {
                inside = true;
                break;
              }
            }
            if (!inside) {
              ok = false;
              break;
            }
          }
        }
        if (ok && any) {
          c.out.push_back(span.oid());
        }
        return Status::OK();
      });
  return Finish(scan, scanned, std::move(out), &stats_);
}

std::optional<std::pair<std::shared_ptr<const aggcache::AggCacheEntry>,
                        std::vector<uint8_t>>>
QueryEngine::AggCacheContext(const std::string& moft,
                             const std::string& layer,
                             const GeometryPredicate& pred,
                             const TimePredicate& when) const {
  if (agg_cache_mode_ != aggcache::AggCacheMode::kOn || db_ == nullptr ||
      !db_->HasOverlay() || !db_->OverlayLayerIndex(layer).ok()) {
    return std::nullopt;
  }
  if (when.has_sub_hour_rollup()) {
    // The one granularity hour-bucket partials cannot decide; the scan
    // fallback is the correct path, but make it observable.
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("pietql.aggcache.fallback_subhour")
          .Add(1);
    }
    return std::nullopt;
  }
  auto lay = db_->gis().GetLayer(layer);
  if (!lay.ok() || lay.ValueOrDie()->kind() != gis::GeometryKind::kPolygon) {
    return std::nullopt;
  }
  auto wanted = QualifyingPolygons(*lay.ValueOrDie(), layer, pred);
  if (!wanted.ok()) {
    return std::nullopt;
  }
  auto entry = db_->AggCache(moft, layer);
  if (!entry.ok()) {
    return std::nullopt;
  }
  // Dense membership bitmap: the same membership the scan paths use.
  return std::make_pair(entry.ValueOrDie(),
                        wanted.ValueOrDie().Bitmap(lay.ValueOrDie()->size()));
}

namespace {

/// Mirrors one serve's exact work into the engine's per-call stats (the
/// cache flushes its own counters).
void FlushAggServe(const aggcache::AggServeStats& st, EngineStats* stats) {
  stats->samples_scanned = st.rows_refined + st.fringe_rows;
  stats->point_tests = st.point_tests;
  stats->legs_tested = 0;
}

}  // namespace

std::optional<aggcache::RegionAggregate> QueryEngine::CachedRegionAggregate(
    const std::string& moft, const std::string& layer,
    const GeometryPredicate& pred, const TimePredicate& when) const {
  auto ctx = AggCacheContext(moft, layer, pred, when);
  if (!ctx) {
    return std::nullopt;
  }
  auto served = ctx->first->RegionAggregates(ctx->second, when,
                                             db_->time_dimension());
  if (served) {
    FlushAggServe(served->stats, &stats_);
  }
  return served;
}

std::optional<std::vector<moving::ObjectId>>
QueryEngine::CachedObjectsAlwaysWithin(const std::string& moft,
                                       const std::string& layer,
                                       const GeometryPredicate& pred,
                                       const TimePredicate& when) const {
  auto ctx = AggCacheContext(moft, layer, pred, when);
  if (!ctx) {
    return std::nullopt;
  }
  auto served = ctx->first->ObjectsAlwaysWithin(ctx->second, when,
                                                db_->time_dimension());
  if (!served) {
    return std::nullopt;
  }
  FlushAggServe(served->stats, &stats_);
  return std::move(served->oids);
}

}  // namespace piet::core
