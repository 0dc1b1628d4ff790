#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <initializer_list>

#include "core/geometry/batch.h"
#include "moving/bead.h"
#include "moving/traj_ops.h"
#include "obs/metrics.h"

namespace piet::core {

using gis::GeometryId;
using gis::GeometryKind;
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

/// Starts one engine call: resets its stats, and flushes its work
/// counters and latency to the registry on destruction. The enabled check
/// happens once at construction, so a disabled query pays one branch — the
/// per-row loops never touch the registry (they accumulate into
/// chunk-local ScanStats regardless).
class QueryObs {
 public:
  QueryObs(const char* type, EngineStats* stats)
      : enabled_(obs::Enabled()), type_(type), stats_(stats) {
    *stats = EngineStats{};
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
    const std::pair<const char*, size_t> counters[] = {
        {"engine.rows_scanned", stats_->samples_scanned},
        {"engine.point_tests", stats_->point_tests},
        {"engine.legs_tested", stats_->legs_tested},
        {"engine.leg_refines", stats_->leg_refines},
        {"engine.rows_matched", stats_->rows_matched},
        {"engine.blocks_pinned", stats_->blocks.blocks_pinned},
        {"engine.blocks_decoded", stats_->blocks.blocks_pinned},
        {"engine.blocks_skipped", stats_->blocks.blocks_skipped},
    };
    for (const auto& [name, value] : counters) {
      registry.GetCounter(name).Add(static_cast<int64_t>(value));
    }
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

/// The MOFT and layer one engine call reads.
struct Inputs {
  const Moft* moft;
  const Layer* layer;
};

/// Looks up a call's MOFT, then its layer, which must be of one of `kinds`
/// (any kind when empty) or the call fails with `error`.
Result<Inputs> Open(const GeoOlapDatabase& db, const std::string& moft,
                    const std::string& layer,
                    std::initializer_list<GeometryKind> kinds = {},
                    const char* error = "") {
  PIET_ASSIGN_OR_RETURN(const Moft* m, db.GetMoft(moft));
  PIET_ASSIGN_OR_RETURN(const Layer* l, db.gis().GetLayer(layer));
  if (kinds.size() > 0 &&
      std::find(kinds.begin(), kinds.end(), l->kind()) == kinds.end()) {
    return Status::InvalidArgument(error);
  }
  return Inputs{m, l};
}

/// γ's emit for the γ-state operators' sample visitors: folds row i as
/// one tuple and ends the row (Def. 7: one tuple per matching sample).
auto FoldRow(const gamma::Granule& granule) {
  return [&granule](auto& c, const SampleRows& b, size_t i, auto...) {
    gamma::Fold(&c.out, granule.Of(b.data.t[i]), b.data.oid[i]);
    return true;
  };
}

/// The row emit of SampleRegion, SamplesNearNodes and SamplesOnPolylines:
/// one (Oid, t, g) row per hit, so it never ends the sample.
constexpr auto HitRow = [](auto& c, const SampleRows& b, size_t i,
                           GeometryId g) {
  c.out.push_back({Value(b.data.oid[i]), Value(b.data.t[i]), Value(g)});
  return false;
};

/// The window visitor of SamplesMatchingTime and WindowState: calls
/// emit(chunk, rows, i) per row i matching `when`, appends the chunks' T
/// outputs to `out`, and sets `stats`.
template <typename T, typename Out, typename Emit>
Status ScanWindow(const QueryEngine& engine, const std::string& moft_name,
                  const TimePredicate& when, EngineStats* stats, Out* out,
                  const Emit& emit) {
  *stats = EngineStats{};
  PIET_ASSIGN_OR_RETURN(const Moft* moft, engine.db().GetMoft(moft_name));
  BlockScan scan(*moft, when, nullptr, engine.num_threads());
  const Status scanned = scan.Samples<T>(
      engine.db().time_dimension(), out, [&](const SampleRows& b, auto& c) {
        b.ForEach([&](size_t i) { emit(c, b, i); });
      });
  *stats = scan.stats();
  return scanned;
}

/// The region visitor of SampleRegion and RegionState: calls
/// emit(chunk, rows, i, g) per matching row i inside the polygon g of
/// `ids` until emit returns true (the row is done), appends the chunks' T
/// outputs to `out`, and sets `stats`.
template <typename T, typename Out, typename Emit>
Status ScanRegion(const QueryEngine& engine, const std::string& moft_name,
                  const std::string& layer_name,
                  const std::vector<GeometryId>& ids,
                  const TimePredicate& when, Strategy strategy,
                  EngineStats* stats, Out* out, const Emit& emit) {
  *stats = EngineStats{};
  const GeoOlapDatabase& db = engine.db();
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(db, moft_name, layer_name, {GeometryKind::kPolygon},
           "sample location needs a polygon layer"));
  const Layer& layer = *in.layer;
  const ResolvedPolygons wanted = ResolvePolygons(layer, ids);
  const std::vector<uint8_t> member = wanted.Bitmap(layer.size());
  std::shared_ptr<const SampleClassification> cls;
  if (strategy == Strategy::kOverlay) {
    // The Sec. 5 fast path: the (MOFT, overlay-layer) classification is
    // predicate- and time-independent, so it is computed once (batched
    // across the pool) and served from the database cache on every
    // subsequent query over the same MOFT. Its hits are indexed by global
    // row; the scan reads (oid, t) from the blocks the time window admits.
    PIET_ASSIGN_OR_RETURN(cls, db.ClassifySamples(moft_name, layer_name));
  } else if (strategy == Strategy::kIndexed) {
    layer.WarmIndex();
  }
  // The polygon-testing strategies also skip blocks outside the
  // qualifying polygons' box.
  BlockScan scan(*in.moft, when, cls ? nullptr : &wanted.polys,
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
              if (member[static_cast<size_t>(hits.ids[j])] &&
                  emit(c, b, i, hits.ids[j])) {
                break;
              }
            }
          });
        });
  } else if (strategy == Strategy::kNaive) {
    // Batch point-in-polygon: verdicts bit-identical to Polygon::Contains,
    // hits in the scalar (sample, qualifying-polygon) order, and
    // point_tests counting every sample-times-polygon probe (the tile
    // kernel has no early exit, so a done row skips its later hits).
    const batch::PolygonSetBatcher batcher(wanted.polys);
    scanned = scan.Samples<T, batch::TileScratch>(
        db.time_dimension(), out, [&](const SampleRows& b, auto& c) {
          size_t done = b.data.size();  // No row yet.
          c.stats.point_tests += batcher.ForEachHit(
              b.data, b.runs, &c.scratch, [&](size_t i, size_t q) {
                if (i != done && emit(c, b, i, wanted.ids[q])) {
                  done = i;
                }
              });
        });
  } else {
    scanned = scan.Samples<T>(
        db.time_dimension(), out, [&](const SampleRows& b, auto& c) {
          b.ForEach([&](size_t i) {
            const std::vector<GeometryId> inside = layer.GeometriesContaining(
                geometry::Point(b.data.x[i], b.data.y[i]));
            c.stats.point_tests += inside.size();  // All tested already.
            for (GeometryId id : inside) {
              if (member[static_cast<size_t>(id)] && emit(c, b, i, id)) {
                break;
              }
            }
          });
        });
  }
  *stats = scan.stats();
  return scanned;
}

/// The span visitor of TrajectoryRegion and TrajectoryState: clips each
/// object to `when`, refines its legs against the polygons `ids` of
/// `layer`, and calls emit(chunk, oid, g, iv) per maximal interval iv the
/// LIT spends inside polygon g while `when` holds, polygons ascending.
template <typename T, typename Out, typename Emit>
Status ScanTrajectory(const QueryEngine& engine, const std::string& moft_name,
                      const std::string& layer_name,
                      const std::vector<GeometryId>& ids,
                      const TimePredicate& when, EngineStats* stats, Out* out,
                      const Emit& emit) {
  *stats = EngineStats{};
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(engine.db(), moft_name, layer_name, {GeometryKind::kPolygon},
           "TrajectoryRegion needs a polygon layer"));
  const ResolvedPolygons wanted = ResolvePolygons(*in.layer, ids);
  const batch::LegRefiner refiner(wanted.polys);
  BlockScan scan(*in.moft, when, &wanted.polys, engine.num_threads());
  const Status scanned = scan.Spans<T, batch::LegScratch>(
      out, [&](const ObjectSpan& span, auto& c) -> Status {
        PIET_ASSIGN_OR_RETURN(
            const TimeClip clip,
            ClipToTime(when, engine.db().time_dimension(), span));
        if (clip.time_ok.empty()) {
          return Status::OK();
        }
        c.stats.legs_tested += clip.span.size() - 1;
        c.stats.leg_refines += refiner.Refine(clip.span, &c.scratch);
        for (const uint32_t qi : c.scratch.hit) {
          const IntervalSet matched =
              IntervalSet(c.scratch.pieces[qi]).Intersect(clip.time_ok);
          for (const Interval& iv : matched.intervals()) {
            emit(c, span.oid(), wanted.ids[qi], iv);
          }
        }
        return Status::OK();
      });
  *stats = scan.stats();
  return scanned;
}

/// The proximity visitor of SamplesNearNodes, NearState and
/// SamplesOnPolylines: calls emit(chunk, rows, i, g) per matching row i
/// within `radius` of the geometry g of `layer` (dist(g, p) is the
/// distance from g to p, nullopt when g has none) until emit returns true
/// (the row is done), appends the chunks' T outputs to `out`, and sets
/// `stats`.
template <typename T, typename Out, typename Dist, typename Emit>
Status ScanWithin(const QueryEngine& engine, const Inputs& in, double radius,
                  const TimePredicate& when, EngineStats* stats, Out* out,
                  const Dist& dist, const Emit& emit) {
  in.layer->WarmIndex();
  BlockScan scan(*in.moft, when, nullptr, engine.num_threads());
  const Status scanned = scan.Samples<T>(
      engine.db().time_dimension(), out, [&](const SampleRows& b, auto& c) {
        b.ForEach([&](size_t i) {
          const geometry::Point pos(b.data.x[i], b.data.y[i]);
          geometry::BoundingBox probe(pos.x - radius, pos.y - radius,
                                      pos.x + radius, pos.y + radius);
          for (GeometryId id : in.layer->CandidatesInBox(probe)) {
            const std::optional<double> d = dist(id, pos);
            if (!d) {
              continue;
            }
            ++c.stats.point_tests;
            if (*d <= radius && emit(c, b, i, id)) {
              break;
            }
          }
        });
      });
  *stats = scan.stats();
  return scanned;
}

/// ScanWithin over a node layer.
template <typename T, typename Out, typename Emit>
Status ScanNear(const QueryEngine& engine, const std::string& moft_name,
                const std::string& layer_name, double radius,
                const TimePredicate& when, EngineStats* stats, Out* out,
                const Emit& emit) {
  *stats = EngineStats{};
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(engine.db(), moft_name, layer_name,
           {GeometryKind::kNode, GeometryKind::kPoint},
           "SamplesNearNodes needs a node layer"));
  return ScanWithin<T>(
      engine, in, radius, when, stats, out,
      [&](GeometryId id, const geometry::Point& pos) -> std::optional<double> {
        auto node = in.layer->GetPoint(id);
        return node.ok() ? std::optional(Distance(node.ValueOrDie(), pos))
                         : std::nullopt;
      },
      emit);
}

/// A γ-state operator's answer from its scan's runs; rows_matched counts
/// the folded tuples (summed over the runs, not the state's map).
QueryEngine::GammaAnswer Folded(std::vector<gamma::Run> runs,
                                EngineStats* stats) {
  stats->rows_matched = 0;
  for (const gamma::Run& run : runs) {
    stats->rows_matched += static_cast<size_t>(run.count);
  }
  return QueryEngine::GammaAnswer{gamma::Build(std::move(runs))};
}

/// Mirrors one aggregate-cache serve's sample touches into the engine's
/// per-call stats (the cache flushes its own counters).
void FlushAggServe(const aggcache::AggServeStats& st, EngineStats* stats) {
  *stats = EngineStats{};
  stats->samples_scanned = st.fringe_rows;
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
  QueryObs query_obs("samples_matching_time", &stats_);
  FactTable out = FactTable::Make({"Oid", "t", "x", "y"}, {});
  PIET_RETURN_NOT_OK(ScanWindow<Row>(
      *this, moft_name, when, &stats_, &out,
      [](auto& c, const SampleRows& b, size_t i) {
        c.out.push_back({Value(b.data.oid[i]), Value(b.data.t[i]),
                         Value(b.data.x[i]), Value(b.data.y[i])});
      }));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<FactTable> QueryEngine::SampleRegion(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    Strategy strategy) const {
  QueryObs query_obs("sample_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const std::vector<GeometryId> ids,
                        QualifyingGeometries(layer_name, pred));
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});
  PIET_RETURN_NOT_OK(ScanRegion<Row>(*this, moft_name, layer_name, ids, when,
                                     strategy, &stats_, &out, HitRow));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<FactTable> QueryEngine::SamplesOnPolylines(
    const std::string& moft_name, const std::string& layer_name,
    double tolerance, const TimePredicate& when) const {
  QueryObs query_obs("samples_on_polylines", &stats_);
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(*db_, moft_name, layer_name,
           {GeometryKind::kPolyline, GeometryKind::kLine},
           "SamplesOnPolylines needs a line layer"));
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});
  PIET_RETURN_NOT_OK(ScanWithin<Row>(
      *this, in, tolerance, when, &stats_, &out,
      [&](GeometryId id, const geometry::Point& pos) -> std::optional<double> {
        auto line = in.layer->GetPolyline(id);
        return line.ok() ? std::optional(line.ValueOrDie()->DistanceTo(pos))
                         : std::nullopt;
      },
      HitRow));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<FactTable> QueryEngine::SamplesNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  QueryObs query_obs("samples_near_nodes", &stats_);
  FactTable out = FactTable::Make({"Oid", "t", "node"}, {});
  PIET_RETURN_NOT_OK(ScanNear<Row>(*this, moft_name, layer_name, radius, when,
                                   &stats_, &out, HitRow));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<FactTable> QueryEngine::SnapshotInRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                TimePoint t) const {
  QueryObs query_obs("snapshot_in_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Inputs in, Open(*db_, moft_name, layer_name));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*in.layer, layer_name, pred));
  // Objects never split across blocks and the LIT stays inside the convex
  // hull of its samples, so a block whose time zonemap misses `t` or whose
  // bbox misses every qualifying polygon contributes nothing.
  BlockScan scan(*in.moft, TimePredicate().Window(Interval(t, t)),
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
  QueryObs query_obs("trajectory_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const std::vector<GeometryId> ids,
                        QualifyingGeometries(layer_name, pred));
  FactTable out = FactTable::Make({"Oid", "geom", "enter", "leave"}, {});
  PIET_RETURN_NOT_OK(ScanTrajectory<Row>(
      *this, moft_name, layer_name, ids, when, &stats_, &out,
      [](auto& c, ObjectId oid, GeometryId g, const Interval& iv) {
        c.out.push_back({Value(oid), Value(g), Value(iv.begin.seconds),
                         Value(iv.end.seconds)});
      }));
  stats_.rows_matched = out.num_rows();
  return out;
}

Result<FactTable> QueryEngine::TrajectoryNearNodes(
    const std::string& moft_name, const std::string& layer_name, double radius,
    const TimePredicate& when) const {
  QueryObs query_obs("trajectory_near_nodes", &stats_);
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(*db_, moft_name, layer_name,
           {GeometryKind::kNode, GeometryKind::kPoint},
           "TrajectoryNearNodes needs a node layer"));
  in.layer->WarmIndex();
  BlockScan scan(*in.moft, when, nullptr, num_threads_);
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
        for (GeometryId id : in.layer->CandidatesInBox(expanded)) {
          auto node = in.layer->GetPoint(id);
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
  QueryObs query_obs("trajectory_aggregates", &stats_);
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(*db_, moft_name, layer_name, {GeometryKind::kPolygon},
           "TrajectoryAggregates needs a polygon layer"));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*in.layer, layer_name, pred));
  const batch::LegRefiner refiner(wanted.polys);
  BlockScan scan(*in.moft, TimePredicate(), &wanted.polys, num_threads_);
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
  QueryObs query_obs("objects_possibly_within", &stats_);
  PIET_ASSIGN_OR_RETURN(
      const Inputs in,
      Open(*db_, moft_name, layer_name, {GeometryKind::kPolygon},
           "ObjectsPossiblyWithin needs a polygon layer"));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*in.layer, layer_name, pred));
  // No zonemap filter: lifeline beads under vmax can reach outside the
  // block's sample bbox, so a bbox miss proves nothing here.
  BlockScan scan(*in.moft, TimePredicate(), nullptr, num_threads_);
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
  QueryObs query_obs("objects_always_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Inputs in, Open(*db_, moft_name, layer_name));
  PIET_ASSIGN_OR_RETURN(const ResolvedPolygons wanted,
                        QualifyingPolygons(*in.layer, layer_name, pred));
  // Time-window skip only: an object whose block misses the window has no
  // matching instant, so it is excluded either way ("any" stays false /
  // time_ok comes back empty). A bbox miss would also exclude it, but the
  // window is the conservative, obviously-safe choice here.
  BlockScan scan(*in.moft, when, nullptr, num_threads_);
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

Result<QueryEngine::GammaAnswer> QueryEngine::WindowState(
    const std::string& moft_name, const TimePredicate& when,
    const gamma::Granule& granule) const {
  std::vector<gamma::Run> runs;
  PIET_RETURN_NOT_OK(ScanWindow<gamma::Run>(*this, moft_name, when, &stats_,
                                            &runs, FoldRow(granule)));
  return Folded(std::move(runs), &stats_);
}

Result<QueryEngine::GammaAnswer> QueryEngine::RegionState(
    const std::string& moft_name, const std::string& layer_name,
    const std::vector<GeometryId>& ids, const TimePredicate& when,
    const gamma::Granule& granule, Strategy strategy) const {
  GammaAnswer out;
  if (strategy == Strategy::kOverlay) {
    // Full buckets from the partials of the hit sets meeting `ids`, fringe
    // buckets from their rows: the state the scan below would build.
    if (auto entry = AggCacheProbe(moft_name, layer_name, when,
                                   granule.instants(), &out.cache_fallback)) {
      // The overlay covers the layer, so the lookup cannot fail.
      const Layer* layer = db_->gis().GetLayer(layer_name).ValueOrDie();
      PIET_ASSIGN_OR_RETURN(
          aggcache::RegionAggregate served,
          entry->RegionAggregates(
              ResolvePolygons(*layer, ids).Bitmap(layer->size()), when,
              db_->time_dimension()));
      FlushAggServe(served.stats, &stats_);
      out.state = std::move(served.per_bucket);
      out.served = served.stats;
      return out;
    }
  }
  std::vector<gamma::Run> runs;
  PIET_RETURN_NOT_OK(ScanRegion<gamma::Run>(*this, moft_name, layer_name, ids,
                                            when, strategy, &stats_, &runs,
                                            FoldRow(granule)));
  out.state = Folded(std::move(runs), &stats_).state;
  return out;
}

Result<QueryEngine::GammaAnswer> QueryEngine::RegionState(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    const gamma::Granule& granule, Strategy strategy) const {
  PIET_ASSIGN_OR_RETURN(const std::vector<GeometryId> ids,
                        QualifyingGeometries(layer_name, pred));
  return RegionState(moft_name, layer_name, ids, when, granule, strategy);
}

Result<QueryEngine::GammaAnswer> QueryEngine::TrajectoryState(
    const std::string& moft_name, const std::string& layer_name,
    const std::vector<GeometryId>& ids, const TimePredicate& when,
    const gamma::Granule& granule) const {
  std::vector<gamma::Run> runs;
  PIET_RETURN_NOT_OK(ScanTrajectory<gamma::Run>(
      *this, moft_name, layer_name, ids, when, &stats_, &runs,
      [&granule](auto& c, ObjectId oid, GeometryId, const Interval& iv) {
        gamma::Fold(&c.out, granule.Of(iv.begin.seconds), oid);
      }));
  return Folded(std::move(runs), &stats_);
}

Result<QueryEngine::GammaAnswer> QueryEngine::NearState(
    const std::string& moft_name, const std::string& layer_name,
    const std::vector<GeometryId>& ids, double radius,
    const TimePredicate& when, const gamma::Granule& granule) const {
  std::vector<GeometryId> wanted(ids);
  std::sort(wanted.begin(), wanted.end());
  const auto fold = FoldRow(granule);
  std::vector<gamma::Run> runs;
  PIET_RETURN_NOT_OK(ScanNear<gamma::Run>(
      *this, moft_name, layer_name, radius, when, &stats_, &runs,
      [&](auto& c, const SampleRows& b, size_t i, GeometryId id) {
        return std::binary_search(wanted.begin(), wanted.end(), id) &&
               fold(c, b, i);
      }));
  return Folded(std::move(runs), &stats_);
}

std::shared_ptr<const aggcache::AggCacheEntry> QueryEngine::AggCacheProbe(
    const std::string& moft, const std::string& layer,
    const TimePredicate& when, bool instants, bool* fallback) const {
  if (agg_cache_mode_ != aggcache::AggCacheMode::kOn || !db_->HasOverlay() ||
      !db_->OverlayLayerIndex(layer).ok()) {
    return nullptr;
  }
  if (when.has_sub_hour_rollup() || instants) {
    // The one granularity hour-bucket partials cannot decide; the scan
    // fallback is the correct path, but make it observable.
    *fallback = true;
    if (obs::Enabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("pietql.aggcache.fallback_subhour")
          .Add(1);
    }
    return nullptr;
  }
  auto entry = db_->AggCache(moft, layer);
  return entry.ok() ? entry.ValueOrDie() : nullptr;
}

std::optional<std::vector<moving::ObjectId>>
QueryEngine::CachedObjectsAlwaysWithin(const std::string& moft,
                                       const std::string& layer,
                                       const GeometryPredicate& pred,
                                       const TimePredicate& when) const {
  bool fallback = false;
  auto entry = AggCacheProbe(moft, layer, when, false, &fallback);
  if (!entry) {
    return std::nullopt;
  }
  // The overlay covers `layer`, so the lookups cannot fail.
  const Layer* lay = db_->gis().GetLayer(layer).ValueOrDie();
  auto served = entry->ObjectsAlwaysWithin(
      QualifyingPolygons(*lay, layer, pred).ValueOrDie().Bitmap(lay->size()),
      when, db_->time_dimension());
  if (!served.ok()) {
    return std::nullopt;  // The scan reports the failure.
  }
  FlushAggServe(served.ValueOrDie().stats, &stats_);
  return std::move(served).ValueOrDie().oids;
}

}  // namespace piet::core
