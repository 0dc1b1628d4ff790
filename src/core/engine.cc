#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_set>

#include "common/parallel.h"
#include "core/geometry/batch.h"
#include "moving/bead.h"
#include "moving/traj_ops.h"
#include "obs/metrics.h"

namespace piet::core {

using gis::GeometryId;
using gis::Layer;
using moving::LinearTrajectory;
using moving::Moft;
using moving::MoftColumns;
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

/// Per-chunk output of the row-producing fan-outs below.
struct RowChunk {
  std::vector<Row> rows;
  EngineStats stats;
  Status status;
};

/// Runs body(begin, end, &rows, &stats) over a deterministic chunking of
/// [0, n) and appends the per-chunk rows to `out` in chunk order — the
/// exact row sequence of the serial loop, for any thread count. The first
/// failing chunk (in chunk order) wins.
template <typename Body>
Status ParallelAppend(int threads, size_t n, FactTable* out,
                      EngineStats* stats, const Body& body) {
  Status failed;
  parallel::OrderedReduce<RowChunk>(
      threads, n,
      [&](size_t /*chunk*/, size_t begin, size_t end, RowChunk* chunk) {
        chunk->status = body(begin, end, &chunk->rows, &chunk->stats);
      },
      [&](RowChunk&& chunk) {
        *stats += chunk.stats;
        if (!failed.ok()) {
          return;
        }
        if (!chunk.status.ok()) {
          failed = chunk.status;
          return;
        }
        for (Row& row : chunk.rows) {
          Status appended = out->Append(std::move(row));
          if (!appended.ok()) {
            failed = appended;
            return;
          }
        }
      });
  return failed;
}

/// Qualifying ids with their polygons resolved once, before any fan-out —
/// worker chunks then index a flat array instead of re-running the layer
/// lookup per (sample, polygon) pair.
struct ResolvedPolygons {
  std::vector<GeometryId> ids;
  std::vector<const geometry::Polygon*> polys;
};

ResolvedPolygons ResolvePolygons(const Layer& layer,
                                 const std::vector<GeometryId>& qualifying) {
  ResolvedPolygons out;
  out.ids.reserve(qualifying.size());
  out.polys.reserve(qualifying.size());
  for (GeometryId id : qualifying) {
    auto pg = layer.GetPolygon(id);
    if (pg.ok()) {
      out.ids.push_back(id);
      out.polys.push_back(pg.ValueOrDie());
    }
  }
  return out;
}

/// The per-object time windows every trajectory method starts from.
Result<IntervalSet> MatchingTimeOf(const TimePredicate& when,
                                   const temporal::TimeDimension& dim,
                                   const Interval& domain) {
  if (when.unconstrained()) {
    return IntervalSet({domain});
  }
  return when.MatchingIntervals(dim, domain);
}

/// Flushes one engine call's work counters and latency to the registry on
/// destruction. The enabled check happens once at construction, so a
/// disabled query pays one branch — the per-row loops never touch the
/// registry (they accumulate into chunk-local EngineStats regardless).
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

  void set_rows_matched(size_t n) { rows_matched_ = n; }

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
        .Add(static_cast<int64_t>(rows_matched_));
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
  size_t rows_matched_ = 0;
  std::chrono::steady_clock::time_point start_;
};

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

Result<olap::FactTable> QueryEngine::SamplesMatchingTime(
    const std::string& moft_name, const TimePredicate& when) const {
  stats_ = EngineStats{};
  QueryObs query_obs("samples_matching_time", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  FactTable out = FactTable::Make({"Oid", "t", "x", "y"}, {});

  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter = ScanZoneFilter(when);
  if (when.window_only()) {
    // Pure time-window predicate: binary search on each object's sorted
    // time column instead of probing every row, over the blocks the
    // window admits. Fanning out over object spans visits the matching
    // rows in (oid, t) order, the serial row order.
    PIET_RETURN_NOT_OK(ParallelAppend(
        parallel::ResolveThreads(num_threads_), blocks.total_spans(), &out,
        &stats_,
        [&](size_t begin, size_t end, std::vector<Row>* rows,
            EngineStats* stats) -> Status {
          return blocks.ForEachWindowRange(
              begin, end, filter, &stats->blocks,
              [&](const MoftColumns& data, size_t lo, size_t hi) -> Status {
                for (size_t i = lo; i < hi; ++i) {
                  ++stats->samples_scanned;
                  rows->push_back({Value(data.oid[i]), Value(data.t[i]),
                                   Value(data.x[i]), Value(data.y[i])});
                }
                return Status::OK();
              });
        }));
    query_obs.set_rows_matched(out.num_rows());
    return out;
  }

  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_rows(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        return blocks.ForEachRowRange(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data, size_t lb, size_t le) -> Status {
              for (size_t i = lb; i < le; ++i) {
                ++stats->samples_scanned;
                if (!when.Matches(db_->time_dimension(),
                                  TimePoint(data.t[i]))) {
                  continue;
                }
                rows->push_back({Value(data.oid[i]), Value(data.t[i]),
                                 Value(data.x[i]), Value(data.y[i])});
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<QueryEngine::LocateContext> QueryEngine::MakeLocateContext(
    const std::string& layer_name, const GeometryPredicate& pred,
    Strategy strategy) const {
  LocateContext ctx;
  ctx.strategy = strategy;
  PIET_ASSIGN_OR_RETURN(ctx.layer, db_->gis().GetLayer(layer_name));
  if (ctx.layer->kind() != gis::GeometryKind::kPolygon) {
    return Status::InvalidArgument("sample location needs a polygon layer");
  }
  PIET_ASSIGN_OR_RETURN(ctx.qualifying,
                        QualifyingGeometries(layer_name, pred));
  ctx.wanted.assign(ctx.layer->size(), 0);
  for (GeometryId id : ctx.qualifying) {
    auto pg = ctx.layer->GetPolygon(id);
    if (pg.ok()) {
      ctx.qualifying_polygons.push_back(pg.ValueOrDie());
      ctx.wanted[static_cast<size_t>(id)] = 1;
    }
  }
  if (strategy == Strategy::kIndexed) {
    ctx.layer->WarmIndex();
  }
  if (strategy == Strategy::kOverlay) {
    PIET_ASSIGN_OR_RETURN(ctx.overlay, db_->overlay());
    PIET_ASSIGN_OR_RETURN(ctx.overlay_layer,
                          db_->OverlayLayerIndex(layer_name));
  }
  return ctx;
}

void QueryEngine::LocateSample(const LocateContext& ctx, geometry::Point p,
                               std::vector<GeometryId>* hits,
                               EngineStats* stats) const {
  hits->clear();
  switch (ctx.strategy) {
    case Strategy::kNaive: {
      for (size_t i = 0; i < ctx.qualifying_polygons.size(); ++i) {
        ++stats->point_tests;
        if (ctx.qualifying_polygons[i]->Contains(p)) {
          hits->push_back(ctx.qualifying[i]);
        }
      }
      return;
    }
    case Strategy::kIndexed: {
      for (GeometryId id : ctx.layer->GeometriesContaining(p)) {
        ++stats->point_tests;  // GeometriesContaining did the exact test.
        if (ctx.wanted[static_cast<size_t>(id)]) {
          hits->push_back(id);
        }
      }
      return;
    }
    case Strategy::kOverlay: {
      ctx.overlay->LocateInLayerInto(p, ctx.overlay_layer, hits);
      // Filter in place by the qualifying bitmap.
      size_t kept = 0;
      for (GeometryId id : *hits) {
        if (ctx.wanted[static_cast<size_t>(id)]) {
          (*hits)[kept++] = id;
        }
      }
      hits->resize(kept);
      return;
    }
  }
}

Result<FactTable> QueryEngine::SampleRegion(const std::string& moft_name,
                                            const std::string& layer_name,
                                            const GeometryPredicate& pred,
                                            const TimePredicate& when,
                                            Strategy strategy) const {
  stats_ = EngineStats{};
  QueryObs query_obs("sample_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(LocateContext ctx,
                        MakeLocateContext(layer_name, pred, strategy));
  const int threads = parallel::ResolveThreads(num_threads_);
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});

  const moving::TableBlocks blocks = moft->Blocks();
  if (strategy == Strategy::kOverlay) {
    // The Sec. 5 fast path: the (MOFT, overlay-layer) classification is
    // predicate- and time-independent, so it is computed once (batched
    // across the pool) and served from the database cache on every
    // subsequent query over the same MOFT. Its hits are indexed by global
    // row; the scan reads (oid, t) from the blocks the time window admits.
    PIET_ASSIGN_OR_RETURN(
        std::shared_ptr<const SampleClassification> cls,
        db_->ClassifySamples(moft_name, layer_name));
    const gis::BatchHits& hits = cls->hits;
    const moving::ZoneFilter filter = ScanZoneFilter(when);
    PIET_RETURN_NOT_OK(ParallelAppend(
        threads, blocks.total_rows(), &out, &stats_,
        [&](size_t begin, size_t end, std::vector<Row>* rows,
            EngineStats* stats) -> Status {
          return blocks.ForEachRowRange(
              begin, end, filter, &stats->blocks,
              [&](const MoftColumns& data, size_t lb, size_t le,
                  size_t row_base) -> Status {
                for (size_t i = lb; i < le; ++i) {
                  ++stats->samples_scanned;
                  if (!when.Matches(db_->time_dimension(),
                                    TimePoint(data.t[i]))) {
                    continue;
                  }
                  const size_t row = row_base + i;
                  for (uint32_t j = hits.offsets[row];
                       j < hits.offsets[row + 1]; ++j) {
                    GeometryId g = hits.ids[j];
                    if (ctx.wanted[static_cast<size_t>(g)]) {
                      rows->push_back(
                          {Value(data.oid[i]), Value(data.t[i]), Value(g)});
                    }
                  }
                }
                return Status::OK();
              });
        }));
    query_obs.set_rows_matched(out.num_rows());
    return out;
  }

  const moving::ZoneFilter filter =
      ScanZoneFilter(when, &ctx.qualifying_polygons);
  if (strategy == Strategy::kNaive) {
    // Batch point-in-polygon: gather each tile's time-passing samples into
    // dense coordinate columns and run the batch kernel once per
    // qualifying polygon. Verdicts are bit-identical to Polygon::Contains,
    // rows come out in the scalar (sample, qualifying-polygon) order, and
    // point_tests counts the same logical sample-times-polygon probes the
    // naive loop performs (it has no early exit).
    std::vector<batch::PolygonBatcher> batchers;
    batchers.reserve(ctx.qualifying_polygons.size());
    for (const geometry::Polygon* p : ctx.qualifying_polygons) {
      batchers.emplace_back(p);
    }
    PIET_RETURN_NOT_OK(ParallelAppend(
        threads, blocks.total_rows(), &out, &stats_,
        [&](size_t begin, size_t end, std::vector<Row>* rows,
            EngineStats* stats) -> Status {
          constexpr size_t kTileRows = 1024;
          batch::BatchScratch scratch;
          std::vector<size_t> idx;    // Passing sample indices of the tile.
          std::vector<double> tx;
          std::vector<double> ty;
          std::vector<uint8_t> hits;  // Polygon-major tile verdicts.
          std::vector<uint8_t> one;
          return blocks.ForEachRowRange(
              begin, end, filter, &stats->blocks,
              [&](const MoftColumns& data, size_t lb, size_t le) -> Status {
                for (size_t base = lb; base < le; base += kTileRows) {
                  const size_t stop = std::min(le, base + kTileRows);
                  idx.clear();
                  tx.clear();
                  ty.clear();
                  for (size_t i = base; i < stop; ++i) {
                    ++stats->samples_scanned;
                    if (!when.Matches(db_->time_dimension(),
                                      TimePoint(data.t[i]))) {
                      continue;
                    }
                    idx.push_back(i);
                    tx.push_back(data.x[i]);
                    ty.push_back(data.y[i]);
                  }
                  if (idx.empty()) {
                    continue;
                  }
                  const size_t m = idx.size();
                  hits.assign(batchers.size() * m, 0);
                  for (size_t q = 0; q < batchers.size(); ++q) {
                    batchers[q].ContainsBatch(tx, ty, &scratch, &one);
                    std::copy(one.begin(), one.end(), hits.begin() + q * m);
                  }
                  stats->point_tests += batchers.size() * m;
                  for (size_t k = 0; k < m; ++k) {
                    const size_t i = idx[k];
                    for (size_t q = 0; q < batchers.size(); ++q) {
                      if (hits[q * m + k] != 0) {
                        rows->push_back({Value(data.oid[i]),
                                         Value(data.t[i]),
                                         Value(ctx.qualifying[q])});
                      }
                    }
                  }
                }
                return Status::OK();
              });
        }));
    query_obs.set_rows_matched(out.num_rows());
    return out;
  }

  PIET_RETURN_NOT_OK(ParallelAppend(
      threads, blocks.total_rows(), &out, &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        std::vector<GeometryId> hits;  // Chunk-local scratch.
        return blocks.ForEachRowRange(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data, size_t lb, size_t le) -> Status {
              for (size_t i = lb; i < le; ++i) {
                ++stats->samples_scanned;
                if (!when.Matches(db_->time_dimension(),
                                  TimePoint(data.t[i]))) {
                  continue;
                }
                LocateSample(ctx, geometry::Point(data.x[i], data.y[i]),
                             &hits, stats);
                for (GeometryId g : hits) {
                  rows->push_back(
                      {Value(data.oid[i]), Value(data.t[i]), Value(g)});
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter = ScanZoneFilter(when);
  FactTable out = FactTable::Make({"Oid", "t", "geom"}, {});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_rows(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        return blocks.ForEachRowRange(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data, size_t lb, size_t le) -> Status {
              for (size_t i = lb; i < le; ++i) {
                ++stats->samples_scanned;
                if (!when.Matches(db_->time_dimension(),
                                  TimePoint(data.t[i]))) {
                  continue;
                }
                const geometry::Point pos(data.x[i], data.y[i]);
                geometry::BoundingBox probe(pos.x - tolerance,
                                            pos.y - tolerance,
                                            pos.x + tolerance,
                                            pos.y + tolerance);
                for (GeometryId id : layer->CandidatesInBox(probe)) {
                  auto line = layer->GetPolyline(id);
                  if (!line.ok()) {
                    continue;
                  }
                  ++stats->point_tests;
                  if (line.ValueOrDie()->DistanceTo(pos) <= tolerance) {
                    rows->push_back(
                        {Value(data.oid[i]), Value(data.t[i]), Value(id)});
                  }
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter = ScanZoneFilter(when);
  FactTable out = FactTable::Make({"Oid", "t", "node"}, {});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_rows(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        return blocks.ForEachRowRange(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data, size_t lb, size_t le) -> Status {
              for (size_t i = lb; i < le; ++i) {
                ++stats->samples_scanned;
                if (!when.Matches(db_->time_dimension(),
                                  TimePoint(data.t[i]))) {
                  continue;
                }
                const geometry::Point pos(data.x[i], data.y[i]);
                geometry::BoundingBox probe(pos.x - radius, pos.y - radius,
                                            pos.x + radius, pos.y + radius);
                for (GeometryId id : layer->CandidatesInBox(probe)) {
                  auto node = layer->GetPoint(id);
                  if (!node.ok()) {
                    continue;
                  }
                  ++stats->point_tests;
                  if (Distance(node.ValueOrDie(), pos) <= radius) {
                    rows->push_back(
                        {Value(data.oid[i]), Value(data.t[i]), Value(id)});
                  }
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
}

Result<FactTable> QueryEngine::SnapshotInRegion(const std::string& moft_name,
                                                const std::string& layer_name,
                                                const GeometryPredicate& pred,
                                                TimePoint t) const {
  stats_ = EngineStats{};
  QueryObs query_obs("snapshot_in_region", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, qualifying);
  const moving::TableBlocks blocks = moft->Blocks();
  // Objects never split across blocks and the LIT stays inside the convex
  // hull of its samples, so a block whose time zonemap misses `t` or whose
  // bbox misses every qualifying polygon contributes nothing.
  const moving::ZoneFilter filter =
      ScanZoneFilter(TimePredicate().Window(Interval(t, t)), &wanted.polys);

  FactTable out = FactTable::Make({"Oid", "x", "y", "geom"}, {});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        return blocks.ForEachSpan(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
              const ObjectSpan span(&data, sp);
              ObjectId oid = span.oid();
              PIET_ASSIGN_OR_RETURN(TrajectorySample sample,
                                    TrajectorySample::FromSpan(span));
              PIET_ASSIGN_OR_RETURN(
                  LinearTrajectory traj,
                  LinearTrajectory::FromSample(std::move(sample)));
              std::optional<geometry::Point> pos = traj.PositionAt(t);
              if (!pos) {
                return Status::OK();
              }
              ++stats->samples_scanned;
              for (size_t qi = 0; qi < wanted.ids.size(); ++qi) {
                ++stats->point_tests;
                if (wanted.polys[qi]->Contains(*pos)) {
                  rows->push_back({Value(oid), Value(pos->x), Value(pos->y),
                                   Value(wanted.ids[qi])});
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, qualifying);
  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter = ScanZoneFilter(when, &wanted.polys);

  const batch::LegRefiner refiner(wanted.polys);

  FactTable out = FactTable::Make({"Oid", "geom", "enter", "leave"}, {});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        batch::LegScratch scratch;
        return blocks.ForEachSpan(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
              const ObjectSpan span(&data, sp);
              ObjectId oid = span.oid();
              const Interval domain(span.front().t, span.back().t);
              PIET_ASSIGN_OR_RETURN(
                  IntervalSet time_ok,
                  MatchingTimeOf(when, db_->time_dimension(), domain));
              if (time_ok.empty()) {
                return Status::OK();
              }
              stats->legs_tested += span.size() - 1;
              stats->leg_refines += refiner.Refine(span, &scratch);
              for (const uint32_t qi : scratch.hit) {
                IntervalSet inside(scratch.pieces[qi]);
                IntervalSet matched = inside.Intersect(time_ok);
                for (const Interval& iv : matched.intervals()) {
                  rows->push_back({Value(oid), Value(wanted.ids[qi]),
                                   Value(iv.begin.seconds),
                                   Value(iv.end.seconds)});
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter = ScanZoneFilter(when);

  FactTable out = FactTable::Make({"Oid", "node", "enter", "leave"}, {});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        return blocks.ForEachSpan(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
              const ObjectSpan span(&data, sp);
              ObjectId oid = span.oid();
              PIET_ASSIGN_OR_RETURN(TrajectorySample sample,
                                    TrajectorySample::FromSpan(span));
              PIET_ASSIGN_OR_RETURN(
                  LinearTrajectory traj,
                  LinearTrajectory::FromSample(std::move(sample)));
              Interval domain = traj.TimeDomain();
              PIET_ASSIGN_OR_RETURN(
                  IntervalSet time_ok,
                  MatchingTimeOf(when, db_->time_dimension(), domain));
              if (time_ok.empty()) {
                return Status::OK();
              }
              stats->legs_tested += traj.Legs().size();
              // Candidate nodes: those within radius of the trajectory's
              // bounds.
              geometry::BoundingBox probe;
              for (const moving::TimedPoint& tp : traj.sample().points()) {
                probe.ExtendWith(tp.pos);
              }
              geometry::BoundingBox expanded(
                  probe.min_x - radius, probe.min_y - radius,
                  probe.max_x + radius, probe.max_y + radius);
              for (GeometryId id : layer->CandidatesInBox(expanded)) {
                auto node = layer->GetPoint(id);
                if (!node.ok()) {
                  continue;
                }
                ++stats->point_tests;
                IntervalSet near = moving::WithinDistanceIntervals(
                    traj, node.ValueOrDie(), radius);
                IntervalSet matched = near.Intersect(time_ok);
                for (const Interval& iv : matched.intervals()) {
                  rows->push_back({Value(oid), Value(id),
                                   Value(iv.begin.seconds),
                                   Value(iv.end.seconds)});
                }
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, qualifying);
  const moving::TableBlocks blocks = moft->Blocks();
  const moving::ZoneFilter filter =
      ScanZoneFilter(TimePredicate(), &wanted.polys);

  const batch::LegRefiner refiner(wanted.polys);

  FactTable out = FactTable::Make({"Oid", "geom"},
                                  {"distance", "seconds", "visits"});
  PIET_RETURN_NOT_OK(ParallelAppend(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(), &out,
      &stats_,
      [&](size_t begin, size_t end, std::vector<Row>* rows,
          EngineStats* stats) -> Status {
        batch::LegScratch scratch;
        return blocks.ForEachSpan(
            begin, end, filter, &stats->blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
              const ObjectSpan span(&data, sp);
              ObjectId oid = span.oid();
              stats->legs_tested += span.size() - 1;
              stats->leg_refines += refiner.Refine(span, &scratch);
              for (const uint32_t qi : scratch.hit) {
                IntervalSet inside(scratch.pieces[qi]);
                rows->push_back(
                    {Value(oid), Value(wanted.ids[qi]),
                     Value(scratch.distance[qi]), Value(inside.TotalLength()),
                     Value(static_cast<int64_t>(inside.size()))});
              }
              return Status::OK();
            });
      }));
  query_obs.set_rows_matched(out.num_rows());
  return out;
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
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, qualifying);
  const moving::TableBlocks blocks = moft->Blocks();
  // No zonemap filter: lifeline beads under vmax can reach outside the
  // block's sample bbox, so a bbox miss proves nothing here.
  const moving::ZoneFilter filter;

  struct IdChunk {
    std::vector<ObjectId> out;
    EngineStats stats;
    Status status;
  };
  std::vector<ObjectId> out;
  Status failed;
  parallel::OrderedReduce<IdChunk>(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(),
      [&](size_t /*chunk*/, size_t begin, size_t end, IdChunk* chunk) {
        chunk->status = blocks.ForEachSpan(
            begin, end, filter, &chunk->stats.blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
              const ObjectSpan span(&data, sp);
              ObjectId oid = span.oid();
              PIET_ASSIGN_OR_RETURN(TrajectorySample sample,
                                    TrajectorySample::FromSpan(span));
              chunk->stats.legs_tested +=
                  sample.size() > 0 ? sample.size() - 1 : 0;
              bool possible = false;
              for (const geometry::Polygon* pg : wanted.polys) {
                PIET_ASSIGN_OR_RETURN(
                    bool hit,
                    moving::PossiblyPassesThrough(sample, vmax, *pg));
                if (hit) {
                  possible = true;
                  break;
                }
              }
              if (possible) {
                chunk->out.push_back(oid);
              }
              return Status::OK();
            });
      },
      [&](IdChunk&& chunk) {
        stats_ += chunk.stats;
        if (failed.ok() && !chunk.status.ok()) {
          failed = chunk.status;
        }
        if (failed.ok()) {
          out.insert(out.end(), chunk.out.begin(), chunk.out.end());
        }
      });
  if (!failed.ok()) {
    return failed;
  }
  query_obs.set_rows_matched(out.size());
  return out;
}

Result<std::vector<ObjectId>> QueryEngine::ObjectsAlwaysWithin(
    const std::string& moft_name, const std::string& layer_name,
    const GeometryPredicate& pred, const TimePredicate& when,
    bool trajectory_semantics) const {
  stats_ = EngineStats{};
  QueryObs query_obs("objects_always_within", &stats_);
  PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(moft_name));
  PIET_ASSIGN_OR_RETURN(const Layer* layer, db_->gis().GetLayer(layer_name));
  PIET_ASSIGN_OR_RETURN(std::vector<GeometryId> qualifying,
                        QualifyingGeometries(layer_name, pred));
  const ResolvedPolygons wanted = ResolvePolygons(*layer, qualifying);
  const moving::TableBlocks blocks = moft->Blocks();
  // Time-window skip only: an object whose block misses the window has no
  // matching instant, so it is excluded either way ("any" stays false /
  // time_ok comes back empty). A bbox miss would also exclude it, but the
  // window is the conservative, obviously-safe choice here.
  const moving::ZoneFilter filter = ScanZoneFilter(when);
  const batch::LegRefiner refiner(wanted.polys);

  struct IdChunk {
    std::vector<ObjectId> out;
    EngineStats stats;
    Status status;
  };
  std::vector<ObjectId> out;
  Status failed;
  parallel::OrderedReduce<IdChunk>(
      parallel::ResolveThreads(num_threads_), blocks.total_spans(),
      [&](size_t /*chunk*/, size_t begin, size_t end, IdChunk* chunk) {
        batch::LegScratch scratch;
        std::vector<Interval> pieces;
        chunk->status = blocks.ForEachSpan(
            begin, end, filter, &chunk->stats.blocks,
            [&](const MoftColumns& data,
                const MoftColumns::Span& sp) -> Status {
            const ObjectSpan span(&data, sp);
            ObjectId oid = span.oid();
            bool ok = true;
            bool any = false;
            if (trajectory_semantics) {
              const Interval domain(span.front().t, span.back().t);
              PIET_ASSIGN_OR_RETURN(
                  IntervalSet time_ok,
                  MatchingTimeOf(when, db_->time_dimension(), domain));
              if (time_ok.empty()) {
                return Status::OK();
              }
              chunk->stats.legs_tested += span.size() - 1;
              chunk->stats.leg_refines += refiner.Refine(span, &scratch);
              // Union of inside intervals over all qualifying polygons must
              // cover every time-matching instant of the domain. The
              // closed-set union is canonical, so pooling every polygon's
              // pieces equals the per-polygon fold.
              pieces.clear();
              for (const uint32_t qi : scratch.hit) {
                pieces.insert(pieces.end(), scratch.pieces[qi].begin(),
                              scratch.pieces[qi].end());
              }
              const IntervalSet inside_union(pieces);
              IntervalSet required = time_ok;
              IntervalSet covered = required.Intersect(inside_union);
              any = !required.empty();
              ok = covered.TotalLength() >= required.TotalLength() - 1e-9 &&
                   covered.size() == required.size();
            } else {
              for (const Sample& s : span) {
                ++chunk->stats.samples_scanned;
                if (!when.Matches(db_->time_dimension(), s.t)) {
                  continue;
                }
                any = true;
                bool inside = false;
                for (const geometry::Polygon* pg : wanted.polys) {
                  ++chunk->stats.point_tests;
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
              chunk->out.push_back(oid);
            }
            return Status::OK();
            });
      },
      [&](IdChunk&& chunk) {
        stats_ += chunk.stats;
        if (failed.ok() && !chunk.status.ok()) {
          failed = chunk.status;
        }
        if (failed.ok()) {
          out.insert(out.end(), chunk.out.begin(), chunk.out.end());
        }
      });
  if (!failed.ok()) {
    return failed;
  }
  query_obs.set_rows_matched(out.size());
  return out;
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
  auto qualifying = QualifyingGeometries(layer, pred);
  if (!qualifying.ok()) {
    return std::nullopt;
  }
  // Dense wanted bitmap over polygon-resolvable qualifying ids — the same
  // membership MakeLocateContext computes for the scan paths.
  std::vector<uint8_t> wanted(lay.ValueOrDie()->size(), 0);
  for (GeometryId id : qualifying.ValueOrDie()) {
    if (lay.ValueOrDie()->GetPolygon(id).ok()) {
      wanted[static_cast<size_t>(id)] = 1;
    }
  }
  auto entry = db_->AggCache(moft, layer);
  if (!entry.ok()) {
    return std::nullopt;
  }
  return std::make_pair(entry.ValueOrDie(), std::move(wanted));
}

namespace {

/// Flushes one serve's decomposition counters and mirrors the exact work
/// into the engine's per-call stats.
void FlushAggServe(const aggcache::AggServeStats& st, EngineStats* stats) {
  stats->samples_scanned = st.rows_refined + st.fringe_rows;
  stats->point_tests = st.point_tests;
  stats->legs_tested = 0;
  if (!obs::Enabled()) {
    return;
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("pietql.aggcache.served").Add(1);
  registry.GetCounter("pietql.aggcache.cells_interior")
      .Add(static_cast<int64_t>(st.interior_cells));
  registry.GetCounter("pietql.aggcache.cells_boundary")
      .Add(static_cast<int64_t>(st.boundary_cells));
  registry.GetCounter("pietql.aggcache.cells_skipped")
      .Add(static_cast<int64_t>(st.skipped_cells));
  registry.GetCounter("pietql.aggcache.groups_from_partials")
      .Add(static_cast<int64_t>(st.groups_from_partials));
  registry.GetCounter("pietql.aggcache.rows_refined")
      .Add(static_cast<int64_t>(st.rows_refined));
  registry.GetCounter("pietql.aggcache.fringe_rows")
      .Add(static_cast<int64_t>(st.fringe_rows));
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
