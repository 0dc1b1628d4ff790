#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/queries.h"
#include "workload/city.h"
#include "workload/scenario.h"
#include "workload/trajectories.h"

namespace piet::bench {

using core::GeometryPredicate;
using core::QueryEngine;
using core::Strategy;
using core::TimePredicate;
using core::pietql::Evaluator;
using core::pietql::QueryResult;
using moving::Moft;
using moving::Sample;
using temporal::Interval;
using temporal::TimePoint;
namespace queries = core::queries;

std::string_view ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kWindow: return "window";
    case QueryClass::kRegion: return "region";
    case QueryClass::kTrajectory: return "trajectory";
    case QueryClass::kProximity: return "proximity";
    case QueryClass::kGeo: return "geo";
  }
  return "?";
}

Result<QueryResult> Exec::PietQl(const Evaluator& evaluator,
                                 const std::string& text) {
  if (rec_ == nullptr) {
    const int64_t t0 = NowNs();
    Result<QueryResult> result = evaluator.EvaluateString(text);
    call_ns_ += NowNs() - t0;
    return result;
  }
  SpanRecorder::Scope scope(rec_, "core.pietql:EvaluateStringProfiled");
  const int64_t start = rec_->NowRel();
  const int64_t t0 = NowNs();
  Result<core::pietql::ProfiledResult> result =
      evaluator.EvaluateStringProfiled(text);
  call_ns_ += NowNs() - t0;
  if (!result.ok()) {
    return result.status();
  }
  core::pietql::ProfiledResult& profiled = result.ValueOrDie();
  ++work_->pietql_calls;
  if (const obs::SpanNode* mi = profiled.profile.Find("moft_intersect")) {
    auto attr = [&](std::string_view key) -> int64_t {
      const std::string_view v = mi->Attr(key);
      return v.empty() ? 0 : std::stoll(std::string(v));
    };
    work_->pietql_rows_scanned += attr("rows_scanned");
    work_->pietql_tuples += attr("tuples");
    work_->pietql_blocks += attr("blocks");
    work_->pietql_blocks_skipped += attr("blocks_skipped");
  }
  rec_->Graft(std::move(profiled.profile), start);
  return std::move(profiled.result);
}

Result<Moft> LoadMoft(const std::vector<Sample>& samples,
                      const moving::BlockOptions& options, SpanRecorder* rec,
                      LoadTimes* times) {
  Moft moft;
  moft.SetBlockOptions(options);
  times->samples += static_cast<int64_t>(samples.size());
  int64_t rss0 = 0;
  if (times->measure_rss) {
    TrimHeap();  // Freed pages would otherwise hide the load's growth.
    rss0 = RssBytes();
  }
  const int64_t t0 = NowNs();
  {
    SpanRecorder::Scope span(rec, "moving:Add");
    // Per-chunk costs: the chunk median resists the allocator's and the
    // machine's bursts better than one whole-loop time.
    constexpr size_t kChunk = 16384;
    int64_t chunk_start = t0;
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      PIET_RETURN_NOT_OK(moft.Add(s.oid, s.t, s.pos));
      if ((i + 1) % kChunk == 0) {
        const int64_t now = NowNs();
        times->add_chunk_ns.push_back(static_cast<double>(now - chunk_start) /
                                      kChunk);
        chunk_start = now;
      }
    }
  }
  const int64_t t1 = NowNs();
  {
    SpanRecorder::Scope span(rec, "moving:Seal");
    (void)moft.Scan();
  }
  const int64_t t2 = NowNs();
  times->add_ns += t1 - t0;
  times->seal_ns += t2 - t1;
  if (times->measure_rss) {
    times->rss_growth += RssBytes() - rss0;
  }
  return moft;
}

std::vector<Sample> ExtractSamples(const Moft& moft) {
  const moving::MoftColumns& cols = moft.Columns();
  std::vector<Sample> out;
  out.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out.push_back(cols.at(i));
  }
  return out;
}

namespace {

constexpr double kHour = 3600.0;

/// One write: `batch` through Moft::Add and the seal, then registered as
/// partition `name` of `db`; timed into `times`.
Status IngestPartition(core::GeoOlapDatabase* db, const std::string& name,
                       const std::vector<Sample>& batch, SpanRecorder* rec,
                       LoadTimes* times) {
  PIET_ASSIGN_OR_RETURN(
      Moft moft, LoadMoft(batch, moving::BlockOptions::FromEnv(), rec, times));
  const int64_t t0 = NowNs();
  {
    SpanRecorder::Scope span(rec, "core.database:AddMoft");
    PIET_RETURN_NOT_OK(db->AddMoft(name, std::move(moft)));
  }
  times->add_moft_ns += NowNs() - t0;
  return Status::OK();
}
constexpr uint64_t kCitySeed = 4242;

// ---------------------------------------------------------------------------
// Canonical answer renderings: every value's exact bits go into the
// fingerprint, so a change in the last ulp is a mismatch.

void AppendRaw(const void* p, size_t n, std::string* out) {
  out->append(static_cast<const char*>(p), n);
}

void AppendValue(const Value& v, std::string* out) {
  const char tag = static_cast<char>(v.type());
  out->push_back(tag);
  if (v.is_int()) {
    const int64_t x = v.AsIntUnchecked();
    AppendRaw(&x, sizeof(x), out);
  } else if (v.is_double()) {
    const double x = v.AsDoubleUnchecked();
    AppendRaw(&x, sizeof(x), out);
  } else if (v.is_string()) {
    out->append(v.AsStringUnchecked());
    out->push_back('\0');
  } else if (v.is_bool()) {
    out->push_back(v.AsBoolUnchecked() ? '1' : '0');
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Digest(const olap::FactTable& table) {
  std::string bytes;
  for (const olap::Row& row : table.rows()) {
    for (const Value& v : row) {
      AppendValue(v, &bytes);
    }
  }
  return "rows=" + std::to_string(table.num_rows()) + " fp=" +
         Hex(Fingerprint(bytes));
}

template <typename T>
std::string DigestIds(const std::vector<T>& ids) {
  std::string bytes;
  for (const T& id : ids) {
    const int64_t x = static_cast<int64_t>(id);
    AppendRaw(&x, sizeof(x), &bytes);
  }
  return "ids=" + std::to_string(ids.size()) + " fp=" +
         Hex(Fingerprint(bytes));
}

std::string Render(const queries::PerHourResult& r) {
  return "tuples=" + std::to_string(r.tuple_count) +
         " hours=" + std::to_string(r.hour_count) +
         " per_hour=" + FormatDouble(r.per_hour);
}

std::string Render(const queries::StayResult& r) {
  return "total=" + FormatDouble(r.total_seconds) +
         " longest=" + FormatDouble(r.longest_stay_seconds) +
         " visits=" + std::to_string(r.visits);
}

std::string Render(const queries::DensityResult& r) {
  std::string bytes;
  AppendValue(r.street, &bytes);
  AppendValue(r.instant, &bytes);
  return "density=" + FormatDouble(r.density) + " at=" +
         Hex(Fingerprint(bytes));
}

/// QueryResult::ToString() plus the scalar's exact digits (the printer
/// rounds doubles) and a fingerprint of the full table (the printer shows
/// only the first rows).
std::string Render(const QueryResult& r) {
  std::string out = r.ToString();
  if (r.scalar) {
    std::string bytes;
    AppendValue(*r.scalar, &bytes);
    out += "\nscalar_fp=" + Hex(Fingerprint(bytes));
    if (r.scalar->is_numeric()) {
      out += "\nscalar=" + FormatDouble(r.scalar->AsNumeric().ValueOr(0.0));
    }
  }
  if (r.table) {
    out += "\n" + Digest(*r.table);
  }
  return out;
}

// Wraps a typed Result into the canonical answer string. Rendering and
// freeing the answer are the runner's work: they are traced as their own
// span and never timed as latency.
template <typename T, typename RenderFn>
Result<std::string> Answer(Exec& e, Result<T> r, RenderFn&& render) {
  if (!r.ok()) {
    return r.status();
  }
  SpanRecorder::Scope span(e.recorder(), "bench:render");
  const T value = std::move(r).ValueOrDie();  // Freed inside the span.
  return render(value);
}

Result<std::string> Answer(Exec& e, Result<int64_t> r) {
  return Answer(e, std::move(r),
                [](int64_t n) { return "count=" + std::to_string(n); });
}

Result<std::string> AnswerTable(Exec& e, Result<olap::FactTable> r) {
  return Answer(e, std::move(r),
                [](const olap::FactTable& t) { return Digest(t); });
}

Result<std::string> AnswerQl(Exec& e, Result<QueryResult> r) {
  return Answer(e, std::move(r),
                [](const QueryResult& q) { return Render(q); });
}

/// Remark 1: the headline rate is exactly 4/3 on the Figure 1 instance at
/// every replication.
Status CheckFourThirds(const std::string& answer) {
  const std::string want = FormatDouble(4.0 / 3.0);
  const size_t at = answer.find("per_hour=");
  const size_t at_ql = answer.find("scalar=");
  std::string got;
  if (at != std::string::npos) {
    got = answer.substr(at + 9);
  } else if (at_ql != std::string::npos) {
    got = answer.substr(at_ql + 7);
    got = got.substr(0, got.find('\n'));
  }
  if (got != want) {
    return Status::Internal("Remark 1 must be exactly 4/3, got '" + got +
                            "'");
  }
  return Status::OK();
}

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

int Scaled(double base, double scale) {
  return std::max(2, static_cast<int>(std::lround(base * scale)));
}

Result<workload::City> MakeCity(uint64_t seed, int grid,
                                double nonconvex_fraction) {
  workload::CityConfig config;
  config.seed = seed;
  config.grid_cols = grid;
  config.grid_rows = grid;
  config.nonconvex_fraction = nonconvex_fraction;
  PIET_ASSIGN_OR_RETURN(workload::City city, workload::GenerateCity(config));
  // Query 7 addresses a stop through α, like the neighborhoods.
  PIET_ASSIGN_OR_RETURN(const gis::Layer* stops,
                        city.db->gis().GetLayer(city.stops_layer));
  PIET_RETURN_NOT_OK(city.db->mutable_gis().BindAlpha(
      "stop", Value("B0"), stops->ids().front()));
  return city;
}

/// The first low-income neighborhood's α member ("N<id>").
Result<Value> LowIncomeMember(const workload::City& city) {
  PIET_ASSIGN_OR_RETURN(const gis::Layer* nb,
                        city.db->gis().GetLayer(city.neighborhoods_layer));
  for (gis::GeometryId id : nb->ids()) {
    auto income = nb->GetAttribute(id, "income");
    if (income.ok() &&
        income.ValueOrDie().AsNumeric().ValueOr(1e9) < city.income_threshold) {
      return Value("N" + std::to_string(id));
    }
  }
  return Status::NotFound("city has no low-income neighborhood");
}

// ---------------------------------------------------------------------------
// Shared shape: K pre-generated copies of a synthetic city (one per load,
// so every load pays for the same cold layer indexes), one main table.

class CityWorkload : public Workload {
 public:
  core::GeoOlapDatabase& db() override { return *db_; }
  const std::string& main_moft() const override { return main_; }
  const std::string& region_layer() const override {
    return city_names_.neighborhoods_layer;
  }
  const std::vector<Sample>& main_samples() const override {
    return samples_;
  }

  /// paper_mix and cold_window: the latest hour, as a new partition.
  Result<int> IngestCycle(SpanRecorder* rec, LoadTimes* times) override {
    latest_partition_ = "cars_latest" + std::to_string(++latest_writes_);
    PIET_RETURN_NOT_OK(
        IngestPartition(db_.get(), latest_partition_, latest_, rec, times));
    return 0;
  }

  void Unload() override {
    evaluator_.reset();
    serial_engine_.reset();
    engine_.reset();
    db_.reset();
  }

 protected:
  /// The city is part of the workload's definition, not of its seeded
  /// inputs: a seeded city would swing every region's cost with the
  /// low-income share, and the benchmark's medians with it.
  Status GenerateCities(const Options& options, int grid,
                        double nonconvex_fraction) {
    options_ = options;
    cities_.clear();
    for (int k = 0; k < kSetups; ++k) {
      PIET_ASSIGN_OR_RETURN(workload::City city,
                            MakeCity(kCitySeed, grid, nonconvex_fraction));
      cities_.push_back(std::move(city));
    }
    city_names_.neighborhoods_layer = cities_.front().neighborhoods_layer;
    city_names_.streets_layer = cities_.front().streets_layer;
    city_names_.schools_layer = cities_.front().schools_layer;
    city_names_.stops_layer = cities_.front().stops_layer;
    city_names_.rivers_layer = cities_.front().rivers_layer;
    city_names_.extent = cities_.front().extent;
    PIET_ASSIGN_OR_RETURN(member_, LowIncomeMember(cities_.front()));
    gis_template_ = std::make_unique<gis::GisDimensionInstance>(
        cities_.front().db->gis());
    next_city_ = 0;
    return Status::OK();
  }

  /// Takes the next unused city database and loads `samples` into it as
  /// `main_`, then builds the overlay.
  Status LoadCity(SpanRecorder* rec, LoadTimes* times, bool convex,
                  const moving::BlockOptions& block_options) {
    if (next_city_ >= cities_.size()) {
      return Status::OutOfRange("more loads than generated inputs");
    }
    db_ = std::move(cities_[next_city_++].db);
    db_->set_num_threads(options_.threads);
    // The overlay depends only on the layers: build it first, so the
    // table's load-to-first-answer interval holds only the write path.
    int64_t t0 = NowNs();
    {
      SpanRecorder::Scope span(rec, "core.database:BuildOverlay");
      PIET_RETURN_NOT_OK(
          db_->BuildOverlay({city_names_.neighborhoods_layer}, convex));
    }
    times->overlay_ns += NowNs() - t0;
    PIET_ASSIGN_OR_RETURN(Moft moft,
                          LoadMoft(samples_, block_options, rec, times));
    t0 = NowNs();
    {
      SpanRecorder::Scope span(rec, "core.database:AddMoft");
      PIET_RETURN_NOT_OK(db_->AddMoft(main_, std::move(moft)));
    }
    times->add_moft_ns += NowNs() - t0;
    MakeFrontEnds();
    return Status::OK();
  }

  /// One hour of a `cars`-strong fleet starting at `start`: a write
  /// cycle's batch.
  Result<std::vector<Sample>> HourBatch(uint64_t seed, int cars, double start,
                                        double speed) const {
    workload::TrajectoryConfig hour;
    hour.seed = seed;
    hour.num_objects = cars;
    hour.start = TimePoint(start);
    hour.duration = kHour - 30.0;
    hour.sample_period = 30.0;
    hour.speed = speed;
    PIET_ASSIGN_OR_RETURN(Moft batch,
                          workload::GenerateTrajectories(cities_.front(), hour));
    return ExtractSamples(batch);
  }

  void MakeFrontEnds() {
    engine_ = std::make_unique<QueryEngine>(db_.get());
    engine_->set_num_threads(options_.threads);
    serial_engine_ = std::make_unique<QueryEngine>(db_.get());
    serial_engine_->set_num_threads(1);
    evaluator_ = std::make_unique<Evaluator>(db_.get());
    evaluator_->set_num_threads(options_.threads);
  }

  /// "SELECT layer.<nb>; FROM SimCity; [WHERE <geo>] | <mo>".
  std::string Ql(const std::string& geo_where, const std::string& mo) const {
    std::string text =
        "SELECT layer." + city_names_.neighborhoods_layer + "; FROM SimCity; ";
    if (!geo_where.empty()) {
      text += "WHERE " + geo_where + " ";
    }
    if (!mo.empty()) {
      text += "| " + mo;
    }
    return text;
  }
  std::string LowIncomeQl() const {
    return "ATTR(layer." + city_names_.neighborhoods_layer +
           ", income) < 1500";
  }

  /// The common engine-query shapes, bound to this workload's front ends.
  Query EngineQuery(std::string name, QueryClass cls,
                    std::function<Result<std::string>(Exec&,
                                                      const QueryEngine&)>
                        call,
                    bool naive_reference) {
    Query q;
    q.name = std::move(name);
    q.cls = cls;
    QueryEngine* engine = engine_.get();
    QueryEngine* serial = serial_engine_.get();
    q.run = [call, engine](Exec& e) { return call(e, *engine); };
    if (!naive_reference) {
      q.reference = [call, serial](Exec& e) { return call(e, *serial); };
    }
    return q;
  }

  Options options_;
  std::vector<workload::City> cities_;
  size_t next_city_ = 0;
  workload::City city_names_;  ///< Layer names and extent only (no db).
  Value member_;               ///< A low-income neighborhood's α member.
  /// The city's GIS instance, for databases built after the copies run out.
  std::unique_ptr<gis::GisDimensionInstance> gis_template_;
  std::string main_ = "cars";
  std::vector<Sample> samples_;
  /// paper_mix and cold_window: the hour that arrives after the loaded
  /// history, ingested as a new partition by each set-up write cycle.
  std::vector<Sample> latest_;
  std::string latest_partition_;  ///< The last one written.
  int latest_writes_ = 0;
  std::unique_ptr<core::GeoOlapDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<QueryEngine> serial_engine_;
  std::unique_ptr<Evaluator> evaluator_;
};

TimePredicate Morning() {
  TimePredicate when;
  when.RollupEquals("timeOfDay", Value("Morning"));
  return when;
}

TimePredicate WindowOf(double t0, double t1) {
  TimePredicate when;
  when.Window(Interval(TimePoint(t0), TimePoint(t1)));
  return when;
}

GeometryPredicate LowIncome() {
  return GeometryPredicate::AttributeLess("income", 1500.0);
}

// ---------------------------------------------------------------------------
// paper_mix: the paper's own queries on warm in-memory data.

class PaperMix : public CityWorkload {
 public:
  Status Generate(const Options& options) override {
    PIET_RETURN_NOT_OK(GenerateCities(options, 16, 0.25));
    workload::TrajectoryConfig traj;
    traj.seed = options.seed * 7919 + 1;
    traj.num_objects = Scaled(400, options.scale);
    traj.model = workload::MovementModel::kCommuter;
    traj.start = TimePoint(kStart);
    traj.duration = 8 * kHour;
    traj.sample_period = 30.0;
    traj.speed = 14.0;
    PIET_ASSIGN_OR_RETURN(Moft moft,
                          workload::GenerateTrajectories(cities_.front(), traj));
    samples_ = ExtractSamples(moft);
    PIET_ASSIGN_OR_RETURN(latest_,
                          HourBatch(options.seed * 7919 + 101, traj.num_objects,
                                    kStart + 8 * kHour, traj.speed));
    figure1_.clear();
    for (int k = 0; k < kSetups; ++k) {
      PIET_ASSIGN_OR_RETURN(workload::Figure1Scenario fig,
                            workload::BuildFigure1Scenario(FigureDays()));
      figure1_.push_back(std::move(fig));
    }
    next_figure_ = 0;
    return Status::OK();
  }

  Status Load(SpanRecorder* rec, LoadTimes* times) override {
    PIET_RETURN_NOT_OK(LoadCity(rec, times, /*convex=*/false,
                                moving::BlockOptions::FromEnv()));
    if (next_figure_ >= figure1_.size()) {
      return Status::OutOfRange("more loads than generated inputs");
    }
    fig_ = std::move(figure1_[next_figure_++]);
    fig_.db->set_num_threads(options_.threads);
    {
      SpanRecorder::Scope span(rec, "core.database:BuildOverlay");
      PIET_RETURN_NOT_OK(fig_.db->BuildOverlay({fig_.neighborhoods_layer}));
    }
    fig_engine_ = std::make_unique<QueryEngine>(fig_.db.get());
    fig_engine_->set_num_threads(options_.threads);
    fig_evaluator_ = std::make_unique<Evaluator>(fig_.db.get());
    fig_evaluator_->set_num_threads(options_.threads);
    return Status::OK();
  }

  void Unload() override {
    fig_evaluator_.reset();
    fig_engine_.reset();
    fig_.db.reset();
    CityWorkload::Unload();
  }

  temporal::Interval probe_window() const override {
    return Interval(TimePoint(kStart + 2 * kHour), TimePoint(kStart + 3 * kHour));
  }

  std::vector<Query> Queries() override {
    const std::string nb = city_names_.neighborhoods_layer;
    const std::string cars = main_;
    const Value member = member_;
    const double w0 = kStart + kHour;
    const double w1 = kStart + 3 * kHour;
    const TimePoint mid(kStart + 3.5 * kHour);
    PaperMix* self = this;
    std::vector<Query> out;

    // The latest hour first: its answer ends the write cycle's freshness.
    {
      auto call = [=](Strategy s) {
        return [=](Exec& e) {
          const QueryEngine& en = *self->engine_;
          return Answer(
              e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
                return queries::CountPerHourInRegion(
                    en, self->latest_partition_, nb, LowIncome(),
                    TimePredicate(), s);
              }),
              [](const queries::PerHourResult& r) { return Render(r); });
        };
      };
      Query q;
      q.name = "latest_region";
      q.cls = QueryClass::kRegion;
      q.run = call(Strategy::kOverlay);
      q.reference = call(Strategy::kNaive);
      q.fresh = true;
      out.push_back(std::move(q));
    }

    // Query 1 (type 4): distinct cars in one low-income neighborhood.
    {
      Query q = EngineQuery(
          "q1_objects_in_region", QueryClass::kRegion,
          [=](Exec& e, const QueryEngine& en) {
            return Answer(e, e.Engine("core.queries:CountObjectsInRegion", en, [&] {
              return queries::CountObjectsInRegion(en, cars, nb, "neighborhood",
                                                   member, Morning(),
                                                   Strategy::kOverlay);
            }));
          },
          /*naive_reference=*/true);
      QueryEngine* engine = engine_.get();
      q.reference = [=](Exec& e) {
        return Answer(e, e.Engine("core.queries:CountObjectsInRegion", *engine, [&] {
          return queries::CountObjectsInRegion(*engine, cars, nb,
                                               "neighborhood", member,
                                               Morning(), Strategy::kNaive);
        }));
      };
      out.push_back(std::move(q));
    }

    // Remark 1 on the replicated Figure 1 instance, both front ends.
    {
      Query q;
      q.name = "remark1";
      q.cls = QueryClass::kRegion;
      const std::string fm = fig_.moft_name;
      const std::string ln = fig_.neighborhoods_layer;
      auto call = [=](Strategy s) {
        return [=](Exec& e) {
          const QueryEngine& en = *self->fig_engine_;
          return Answer(
              e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
                return queries::CountPerHourInRegion(en, fm, ln, LowIncome(),
                                                     Morning(), s);
              }),
              [](const queries::PerHourResult& r) { return Render(r); });
        };
      };
      q.run = call(Strategy::kOverlay);
      q.reference = call(Strategy::kNaive);
      q.exact = CheckFourThirds;
      out.push_back(std::move(q));
    }
    {
      Query q;
      q.name = "remark1_pietql";
      q.cls = QueryClass::kRegion;
      const std::string text =
          "SELECT layer." + fig_.neighborhoods_layer +
          "; FROM PietSchema; WHERE ATTR(layer." + fig_.neighborhoods_layer +
          ", income) < 1500; | SELECT RATE PER HOUR FROM " + fig_.moft_name +
          " WHERE INSIDE RESULT AND TIME.timeOfDay = 'Morning'";
      q.run = [=](Exec& e) {
        return AnswerQl(e, e.PietQl(*self->fig_evaluator_, text));
      };
      q.exact = CheckFourThirds;
      out.push_back(std::move(q));
    }

    // Queries 2-7 (core/queries.h) on the synthetic city.
    const std::string streets = city_names_.streets_layer;
    const std::string schools = city_names_.schools_layer;
    const std::string stops = city_names_.stops_layer;
    out.push_back(EngineQuery(
        "q2_max_street_density", QueryClass::kProximity,
        [=](Exec& e, const QueryEngine& en) {
          return Answer(
              e, e.Engine("core.queries:MaxStreetDensity", en, [&] {
                return queries::MaxStreetDensity(
                    en, cars, streets, 5.0, Morning(),
                    queries::DensityInterpretation::kPerStreet);
              }),
              [](const queries::DensityResult& r) { return Render(r); });
        },
        false));
    for (bool lit : {false, true}) {
      out.push_back(EngineQuery(
          lit ? "q3_completely_within_lit" : "q3_completely_within",
          lit ? QueryClass::kTrajectory : QueryClass::kRegion,
          [=](Exec& e, const QueryEngine& en) {
            return Answer(
                e, e.Engine("core.queries:CountObjectsCompletelyWithin", en, [&] {
                  return queries::CountObjectsCompletelyWithin(
                      en, cars, nb, LowIncome(), TimePredicate(), lit);
                }));
          },
          false));
    }
    out.push_back(EngineQuery(
        "q4_snapshot_count", QueryClass::kTrajectory,
        [=](Exec& e, const QueryEngine& en) {
          return Answer(e, e.Engine("core.queries:SnapshotCountInRegion", en, [&] {
            return queries::SnapshotCountInRegion(en, cars, nb, "neighborhood",
                                                  member, mid);
          }));
        },
        false));
    out.push_back(EngineQuery(
        "q5_time_spent", QueryClass::kTrajectory,
        [=](Exec& e, const QueryEngine& en) {
          return Answer(
              e, e.Engine("core.queries:TimeSpentInRegion", en, [&] {
                return queries::TimeSpentInRegion(en, cars, nb, "neighborhood",
                                                  member, Morning());
              }),
              [](const queries::StayResult& r) { return Render(r); });
        },
        false));
    for (bool lit : {false, true}) {
      out.push_back(EngineQuery(
          lit ? "q6_near_schools_lit" : "q6_near_schools_sampled",
          QueryClass::kProximity,
          [=](Exec& e, const QueryEngine& en) {
            return Answer(
                e, e.Engine("core.queries:CountNearNodesPerHour", en, [&] {
                  return queries::CountNearNodesPerHour(en, cars, schools, 25.0,
                                                        TimePredicate(), lit);
                }),
                [](const queries::PerHourResult& r) { return Render(r); });
          },
          false));
    }
    out.push_back(EngineQuery(
        "q7_waiting_at_stop", QueryClass::kProximity,
        [=](Exec& e, const QueryEngine& en) {
          TimePredicate when;
          when.HourRange(8, 9);
          return AnswerTable(
              e, e.Engine("core.queries:WaitingAtStopPerMinute", en, [&] {
                return queries::WaitingAtStopPerMinute(
                    en, cars, stops, "stop", Value("B0"), 30.0, when);
              }));
        },
        false));

    // One call per QueryEngine query type; type 4 under all three
    // strategies (the E1/E3 ablation), each checked against kNaive.
    out.push_back(EngineQuery(
        "type3_window", QueryClass::kWindow,
        [=](Exec& e, const QueryEngine& en) {
          return AnswerTable(e, e.Engine("core.engine:SamplesMatchingTime", en, [&] {
            return en.SamplesMatchingTime(cars, WindowOf(w0, w0 + kHour));
          }));
        },
        false));
    QueryEngine* engine = engine_.get();
    auto type4 = [=](Strategy s) {
      return [=](Exec& e) {
        TimePredicate when;
        when.HourRange(7, 8);
        return AnswerTable(e, e.Engine("core.engine:SampleRegion", *engine, [&] {
          return engine->SampleRegion(cars, nb, LowIncome(), when, s);
        }));
      };
    };
    for (Strategy s :
         {Strategy::kNaive, Strategy::kIndexed, Strategy::kOverlay}) {
      Query q;
      q.name = "type4_" + std::string(core::StrategyToString(s));
      q.cls = QueryClass::kRegion;
      q.run = type4(s);
      if (s != Strategy::kNaive) {
        q.reference = type4(Strategy::kNaive);
      }
      out.push_back(std::move(q));
    }
    out.push_back(EngineQuery(
        "type6_snapshot", QueryClass::kTrajectory,
        [=](Exec& e, const QueryEngine& en) {
          return AnswerTable(e, e.Engine("core.engine:SnapshotInRegion", en, [&] {
            return en.SnapshotInRegion(cars, nb, LowIncome(), mid);
          }));
        },
        false));
    out.push_back(EngineQuery(
        "type7_trajectory_region", QueryClass::kTrajectory,
        [=](Exec& e, const QueryEngine& en) {
          return AnswerTable(e, e.Engine("core.engine:TrajectoryRegion", en, [&] {
            return en.TrajectoryRegion(cars, nb, LowIncome(),
                                       WindowOf(w0, w1));
          }));
        },
        false));
    out.push_back(EngineQuery(
        "type8_trajectory_aggregates", QueryClass::kTrajectory,
        [=](Exec& e, const QueryEngine& en) {
          return AnswerTable(
              e, e.Engine("core.engine:TrajectoryAggregates", en, [&] {
                return en.TrajectoryAggregates(cars, nb, LowIncome());
              }));
        },
        false));
    out.push_back(EngineQuery(
        "geo_qualifying", QueryClass::kGeo,
        [=](Exec& e, const QueryEngine& en) {
          return Answer(
              e, e.Engine("core.engine:QualifyingGeometries", en,
                       [&] { return en.QualifyingGeometries(nb, LowIncome()); }),
              [](const std::vector<gis::GeometryId>& ids) {
                return DigestIds(ids);
              });
        },
        false));

    // The Piet-QL shapes of the estimator and rewrite micro-benchmarks.
    Evaluator* ev = evaluator_.get();
    auto ql = [&](std::string name, QueryClass cls, std::string text) {
      Query q;
      q.name = std::move(name);
      q.cls = cls;
      q.run = [ev, text](Exec& e) { return AnswerQl(e, e.PietQl(*ev, text)); };
      out.push_back(std::move(q));
    };
    const std::string between = " T BETWEEN " + Num(w0) + " AND " + Num(w1);
    ql("pql_time_window", QueryClass::kWindow,
       Ql("", "SELECT COUNT(*) FROM " + cars + " WHERE" + between));
    ql("pql_inside", QueryClass::kRegion,
       Ql(LowIncomeQl(),
          "SELECT COUNT(*) FROM " + cars + " WHERE INSIDE RESULT"));
    ql("pql_inside_hourly", QueryClass::kRegion,
       Ql("", "SELECT COUNT(*) FROM " + cars +
                  " WHERE INSIDE RESULT AND" + between +
                  " GROUP BY TIME.hour"));
    ql("pql_passes_through", QueryClass::kTrajectory,
       Ql(LowIncomeQl(), "SELECT COUNT(DISTINCT OID) FROM " + cars +
                             " WHERE PASSES THROUGH RESULT"));
    ql("pql_near", QueryClass::kProximity,
       Ql("", "SELECT COUNT(*) FROM " + cars + " WHERE NEAR(layer." +
                  schools + ", 25) AND" + between));
    ql("pql_geo_only", QueryClass::kGeo,
       Ql("INTERSECTION(layer." + nb + ", layer." + city_names_.rivers_layer +
              ") AND " + LowIncomeQl(),
          ""));
    ql("pql_geo_attr", QueryClass::kGeo, Ql(LowIncomeQl(), ""));
    ql("pql_empty_time", QueryClass::kWindow,
       Ql("", "SELECT COUNT(*) FROM " + cars + " WHERE T BETWEEN 100 AND 50"));
    return out;
  }

 private:
  static constexpr double kStart = 5 * kHour;  // 05:00 on day 0.

  int FigureDays() const { return Scaled(50, options_.scale); }

  std::vector<workload::Figure1Scenario> figure1_;
  size_t next_figure_ = 0;
  workload::Figure1Scenario fig_;
  std::unique_ptr<QueryEngine> fig_engine_;
  std::unique_ptr<Evaluator> fig_evaluator_;
};

// ---------------------------------------------------------------------------
// cold_window: narrow time windows over a spilled, staggered table; every
// query starts cold.

class ColdWindow : public CityWorkload {
 public:
  Status Generate(const Options& options) override {
    PIET_RETURN_NOT_OK(GenerateCities(options, 10, 0.0));
    workload::TrajectoryConfig traj;
    traj.seed = options.seed * 7919 + 2;
    traj.num_objects = Scaled(800, options.scale);
    traj.duration = kEraSeconds;
    traj.sample_period = 15.0;
    traj.speed = 12.0;
    PIET_ASSIGN_OR_RETURN(Moft moft,
                          workload::GenerateTrajectories(cities_.front(), traj));
    // Stagger: object rank r lives in era floor(r * kEras / n), so blocks
    // cover distinct time ranges and time zonemaps can discriminate.
    const moving::MoftColumns& cols = moft.Columns();
    samples_.clear();
    samples_.reserve(cols.size());
    for (size_t sp = 0; sp < cols.spans.size(); ++sp) {
      const double offset =
          kEraSeconds *
          static_cast<double>((sp * kEras) / cols.spans.size());
      for (size_t i = cols.spans[sp].begin; i < cols.spans[sp].end; ++i) {
        Sample s = cols.at(i);
        s.t = TimePoint(s.t.seconds + offset);
        samples_.push_back(s);
      }
    }
    // Narrow windows, 3% of the staggered span, each inside its own era.
    // They are part of the workload's definition: a seeded placement would
    // change how many blocks a window admits, and with it every timing.
    const double width = std::floor(0.03 * kEras * kEraSeconds);
    windows_.clear();
    for (int i = 0; i < kEras; ++i) {
      const double begin = ((i * 3 + 1) % kEras) * kEraSeconds + kHour;
      windows_.emplace_back(begin, begin + width);
    }
    // The latest hour, after the archive: it stays hot (never spilled).
    PIET_ASSIGN_OR_RETURN(latest_, HourBatch(options.seed * 7919 + 200,
                                             Scaled(400, options.scale),
                                             kEras * kEraSeconds, traj.speed));
    return Status::OK();
  }

  Status Load(SpanRecorder* rec, LoadTimes* times) override {
    // Default blocks: only the spill directory is set, so enabled() stays
    // false and SpillToDisk picks its own block size.
    moving::BlockOptions block_options = moving::BlockOptions::FromEnv();
    block_options.spill_dir = options_.scratch_dir;
    PIET_RETURN_NOT_OK(LoadCity(rec, times, /*convex=*/true, block_options));
    PIET_ASSIGN_OR_RETURN(const Moft* moft, db_->GetMoft(main_));
    {
      SpanRecorder::Scope span(rec, "moving:SpillToDisk");
      PIET_RETURN_NOT_OK(moft->SpillToDisk());
    }
    cold_ = moft;
    return Status::OK();
  }

  void Unload() override {
    cold_ = nullptr;
    CityWorkload::Unload();
  }


  void BeforeQuery() override {
    if (cold_ != nullptr) {
      cold_->ReleaseHot();
    }
  }

  temporal::Interval probe_window() const override {
    return Interval(TimePoint(windows_[0].first),
                    TimePoint(windows_[0].second));
  }

  std::vector<Query> Queries() override {
    const std::string nb = city_names_.neighborhoods_layer;
    const std::string cars = main_;
    const Value member = member_;
    auto win = [&](size_t i) {
      return WindowOf(windows_[i].first, windows_[i].second);
    };
    auto between = [&](size_t i) {
      return " T BETWEEN " + Num(windows_[i].first) + " AND " +
             Num(windows_[i].second);
    };
    std::vector<Query> out;
    {
      // The latest hour first, probed over its first half hour: its answer
      // ends the write cycle's freshness.
      const TimePredicate when =
          WindowOf(kEras * kEraSeconds, kEras * kEraSeconds + kHour / 2);
      ColdWindow* self = this;
      out.push_back(EngineQuery(
          "cw_latest_window", QueryClass::kWindow,
          [=](Exec& e, const QueryEngine& en) {
            return AnswerTable(
                e, e.Engine("core.engine:SamplesMatchingTime", en, [&] {
                  return en.SamplesMatchingTime(self->latest_partition_, when);
                }));
          },
          false));
      out.back().fresh = true;
    }
    // Most shapes run over two or four of the eras' windows: the query
    // list then has clusters of like-cost queries, so the latency
    // percentiles fall inside a cluster rather than on one query's tail.
    //
    // Type 4 through the block-iterating (indexed) path, which zonemaps
    // can prune; checked against the naive strategy.
    QueryEngine* engine = engine_.get();
    auto type4 = [=](Strategy s, TimePredicate when) {
      return [=](Exec& e) {
        return AnswerTable(e, e.Engine("core.engine:SampleRegion", *engine, [&] {
          return engine->SampleRegion(cars, nb, LowIncome(), when, s);
        }));
      };
    };
    for (size_t w : {1, 5}) {
      Query q;
      q.name = "cw_type4_window_" + std::to_string(w);
      q.cls = QueryClass::kRegion;
      q.run = type4(Strategy::kIndexed, win(w));
      q.reference = type4(Strategy::kNaive, win(w));
      out.push_back(std::move(q));
    }
    for (size_t w : {6, 3}) {
      const TimePredicate when = win(w);
      auto call = [=](Strategy s) {
        return [=](Exec& e) {
          return Answer(
              e, e.Engine("core.queries:CountObjectsInRegion", *engine, [&] {
                return queries::CountObjectsInRegion(
                    *engine, cars, nb, "neighborhood", member, when, s);
              }));
        };
      };
      Query q;
      q.name = "cw_q1_objects_window_" + std::to_string(w);
      q.cls = QueryClass::kRegion;
      q.run = call(Strategy::kIndexed);
      q.reference = call(Strategy::kNaive);
      out.push_back(std::move(q));
    }
    for (size_t w : {0, 4}) {
      const TimePredicate when = win(w);
      out.push_back(EngineQuery(
          "cw_type3_window_" + std::to_string(w), QueryClass::kWindow,
          [=](Exec& e, const QueryEngine& en) {
            return AnswerTable(
                e, e.Engine("core.engine:SamplesMatchingTime", en,
                            [&] { return en.SamplesMatchingTime(cars, when); }));
          },
          false));
    }
    for (size_t w : {2, 7, 1, 6}) {
      const TimePredicate when = win(w);
      out.push_back(EngineQuery(
          "cw_type7_window_" + std::to_string(w), QueryClass::kTrajectory,
          [=](Exec& e, const QueryEngine& en) {
            return AnswerTable(
                e, e.Engine("core.engine:TrajectoryRegion", en, [&] {
                  return en.TrajectoryRegion(cars, nb, LowIncome(), when);
                }));
          },
          false));
    }
    Evaluator* ev = evaluator_.get();
    auto ql = [&](std::string name, QueryClass cls, std::string text) {
      Query q;
      q.name = std::move(name);
      q.cls = cls;
      q.run = [ev, text](Exec& e) { return AnswerQl(e, e.PietQl(*ev, text)); };
      out.push_back(std::move(q));
    };
    for (size_t w : {3, 7}) {
      ql("cw_pql_window_" + std::to_string(w), QueryClass::kWindow,
         Ql("", "SELECT COUNT(*) FROM " + cars + " WHERE" + between(w)));
    }
    ql("cw_pql_inside_hourly", QueryClass::kRegion,
       Ql(LowIncomeQl(), "SELECT COUNT(*) FROM " + cars +
                             " WHERE INSIDE RESULT AND" + between(4) +
                             " GROUP BY TIME.hour"));
    ql("cw_pql_near", QueryClass::kProximity,
       Ql("", "SELECT COUNT(*) FROM " + cars + " WHERE NEAR(layer." +
                  city_names_.stops_layer + ", 40) AND" + between(5)));
    ql("cw_pql_geo", QueryClass::kGeo,
       Ql("INTERSECTION(layer." + nb + ", layer." + city_names_.rivers_layer +
              ") AND " + LowIncomeQl(),
          ""));
    return out;
  }

 private:
  static constexpr int kEras = 8;
  static constexpr double kEraSeconds = 4 * kHour;

  std::vector<std::pair<double, double>> windows_;
  const Moft* cold_ = nullptr;
};

// ---------------------------------------------------------------------------
// ingest_refresh: hourly partitions ingested beside region queries.

class IngestRefresh : public CityWorkload {
 public:
  Status Generate(const Options& options) override {
    PIET_RETURN_NOT_OK(GenerateCities(options, 16, 0.25));
    main_ = "base";
    const int cars = Scaled(400, options.scale);
    workload::TrajectoryConfig day;
    day.seed = options.seed * 7919 + 3;
    day.num_objects = cars;
    day.model = workload::MovementModel::kCommuter;
    day.start = TimePoint(kStart);
    day.duration = 8 * kHour;
    day.sample_period = 30.0;
    day.speed = 14.0;
    PIET_ASSIGN_OR_RETURN(Moft base,
                          workload::GenerateTrajectories(cities_.front(), day));
    samples_ = ExtractSamples(base);
    // One hour of the fleet per batch, after the base day.
    batches_.clear();
    for (int b = 0; b < kBatches; ++b) {
      PIET_ASSIGN_OR_RETURN(
          std::vector<Sample> batch,
          HourBatch(options.seed * 7919 + 100 + static_cast<uint64_t>(b), cars,
                    kStart + (8 + b) * kHour, day.speed));
      batches_.push_back(std::move(batch));
    }
    return Status::OK();
  }

  Status Load(SpanRecorder* rec, LoadTimes* times) override {
    partitions_ = 0;
    current_.clear();
    return LoadCity(rec, times, /*convex=*/false,
                    moving::BlockOptions::FromEnv());
  }

  bool WritesEveryRound() const override { return true; }
  int CycleBatches() const override { return kBatches; }

  Status PrepareCycle(SpanRecorder* rec) override {
    if (partitions_ < kMaxPartitions) {
      return Status::OK();
    }
    // Bound memory: restart from the base day in a fresh database.
    SpanRecorder::Scope span(rec, "bench.untimed:reset");
    Unload();
    db_ = std::make_unique<core::GeoOlapDatabase>(
        gis::GisDimensionInstance(*gis_template_));
    db_->set_num_threads(options_.threads);
    LoadTimes ignored;
    PIET_ASSIGN_OR_RETURN(
        Moft moft,
        LoadMoft(samples_, moving::BlockOptions::FromEnv(), nullptr, &ignored));
    PIET_RETURN_NOT_OK(db_->AddMoft(main_, std::move(moft)));
    PIET_RETURN_NOT_OK(
        db_->BuildOverlay({city_names_.neighborhoods_layer}, false));
    MakeFrontEnds();
    partitions_ = 0;
    return Status::OK();
  }

  Result<int> IngestCycle(SpanRecorder* rec, LoadTimes* times) override {
    const int batch = cycles_ % kBatches;
    ++cycles_;
    const std::string name = "p" + std::to_string(cycles_);
    PIET_RETURN_NOT_OK(IngestPartition(
        db_.get(), name, batches_[static_cast<size_t>(batch)], rec, times));
    current_ = name;
    current_batch_ = batch;
    ++partitions_;
    return batch;
  }

  temporal::Interval probe_window() const override {
    return Interval(TimePoint(kStart + 2 * kHour),
                    TimePoint(kStart + 3 * kHour));
  }

  std::vector<Query> Queries() override {
    const std::string nb = city_names_.neighborhoods_layer;
    const std::string base = main_;
    const std::string* current = &current_;
    const int* batch = &current_batch_;
    IngestRefresh* self = this;
    std::vector<Query> out;
    // Engine queries resolve the front ends at call time: a reset replaces
    // them between cycles.
    auto engine_query = [&](std::string name, QueryClass cls,
                            std::function<Result<std::string>(
                                Exec&, const QueryEngine&)>
                                call) {
      Query q;
      q.name = std::move(name);
      q.cls = cls;
      q.run = [self, call](Exec& e) { return call(e, *self->engine_); };
      q.reference = [self, call](Exec& e) {
        return call(e, *self->serial_engine_);
      };
      return q;
    };
    {
      Query q = engine_query(
          "ir_region_new", QueryClass::kRegion,
          [current, nb](Exec& e, const QueryEngine& en) {
            return Answer(
                e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
                  return queries::CountPerHourInRegion(
                      en, *current, nb, LowIncome(),
                      TimePredicate(), Strategy::kOverlay);
                }),
                [](const queries::PerHourResult& r) { return Render(r); });
          });
      q.reference = [self, current, nb](Exec& e) {
        const QueryEngine& en = *self->engine_;
        return Answer(
            e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
              return queries::CountPerHourInRegion(
                  en, *current, nb, LowIncome(), TimePredicate(),
                  Strategy::kNaive);
            }),
            [](const queries::PerHourResult& r) { return Render(r); });
      };
      q.fresh = true;
      out.push_back(std::move(q));
    }
    auto ql = [&](std::string name, QueryClass cls,
                  std::function<std::string()> text) {
      Query q;
      q.name = std::move(name);
      q.cls = cls;
      q.run = [self, text](Exec& e) {
        return AnswerQl(e, e.PietQl(*self->evaluator_, text()));
      };
      out.push_back(std::move(q));
    };
    const std::string low = LowIncomeQl();
    const std::string head =
        "SELECT layer." + nb + "; FROM SimCity; ";
    const std::string schools = city_names_.schools_layer;
    const std::string rivers = city_names_.rivers_layer;
    ql("ir_pql_inside_new", QueryClass::kRegion, [=] {
      return head + "WHERE " + low + " | SELECT COUNT(*) FROM " + *current +
             " WHERE INSIDE RESULT";
    });
    ql("ir_pql_window_new", QueryClass::kWindow, [=] {
      const double t0 = kStart + (8 + *batch) * kHour;
      return head + "| SELECT COUNT(*) FROM " + *current + " WHERE T BETWEEN " +
             Num(t0) + " AND " + Num(t0 + kHour / 2);
    });
    out.push_back(engine_query(
        "ir_trajectory_new", QueryClass::kTrajectory,
        [current, nb](Exec& e, const QueryEngine& en) {
          return AnswerTable(e, e.Engine("core.engine:TrajectoryRegion", en, [&] {
            return en.TrajectoryRegion(*current, nb, LowIncome(),
                                       TimePredicate());
          }));
        }));
    ql("ir_pql_near_new", QueryClass::kProximity, [=] {
      return head + "| SELECT COUNT(*) FROM " + *current + " WHERE NEAR(layer." +
             schools + ", 25)";
    });
    ql("ir_pql_geo", QueryClass::kGeo, [=] {
      return head + "WHERE INTERSECTION(layer." + nb + ", layer." + rivers +
             ") AND " + low;
    });
    {
      Query q = engine_query(
          "ir_region_base", QueryClass::kRegion,
          [base, nb](Exec& e, const QueryEngine& en) {
            return Answer(
                e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
                  return queries::CountPerHourInRegion(
                      en, base, nb, LowIncome(), Morning(), Strategy::kOverlay);
                }),
                [](const queries::PerHourResult& r) { return Render(r); });
          });
      q.reference = [self, base, nb](Exec& e) {
        const QueryEngine& en = *self->engine_;
        return Answer(
            e, e.Engine("core.queries:CountPerHourInRegion", en, [&] {
              return queries::CountPerHourInRegion(
                  en, base, nb, LowIncome(), Morning(), Strategy::kNaive);
            }),
            [](const queries::PerHourResult& r) { return Render(r); });
      };
      out.push_back(std::move(q));
    }
    return out;
  }

 private:
  static constexpr double kStart = 5 * kHour;
  static constexpr int kBatches = 4;
  static constexpr int kMaxPartitions = 12;

  std::vector<std::vector<Sample>> batches_;
  int cycles_ = 0;
  int partitions_ = 0;
  std::string current_;
  int current_batch_ = 0;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_mix", "cold_window", "ingest_refresh"};
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "paper_mix") {
    return std::make_unique<PaperMix>();
  }
  if (name == "cold_window") {
    return std::make_unique<ColdWindow>();
  }
  if (name == "ingest_refresh") {
    return std::make_unique<IngestRefresh>();
  }
  return nullptr;
}

}  // namespace piet::bench
