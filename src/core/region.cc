#include "core/region.h"

#include <algorithm>
#include <limits>
#include <map>

#include "geometry/distance.h"

namespace piet::core {

GeometryPredicate GeometryPredicate::All() { return GeometryPredicate(); }

GeometryPredicate GeometryPredicate::AttributeLess(std::string attr,
                                                   double threshold) {
  return GeometryPredicate(
      [attr = std::move(attr), threshold](const gis::Layer& layer,
                                          gis::GeometryId id) {
        auto v = layer.GetAttribute(id, attr);
        if (!v.ok()) {
          return false;
        }
        auto num = v.ValueOrDie().AsNumeric();
        return num.ok() && num.ValueOrDie() < threshold;
      });
}

GeometryPredicate GeometryPredicate::AttributeGreater(std::string attr,
                                                      double threshold) {
  return GeometryPredicate(
      [attr = std::move(attr), threshold](const gis::Layer& layer,
                                          gis::GeometryId id) {
        auto v = layer.GetAttribute(id, attr);
        if (!v.ok()) {
          return false;
        }
        auto num = v.ValueOrDie().AsNumeric();
        return num.ok() && num.ValueOrDie() > threshold;
      });
}

GeometryPredicate GeometryPredicate::AttributeGreaterEq(std::string attr,
                                                        double threshold) {
  return GeometryPredicate(
      [attr = std::move(attr), threshold](const gis::Layer& layer,
                                          gis::GeometryId id) {
        auto v = layer.GetAttribute(id, attr);
        if (!v.ok()) {
          return false;
        }
        auto num = v.ValueOrDie().AsNumeric();
        return num.ok() && num.ValueOrDie() >= threshold;
      });
}

GeometryPredicate GeometryPredicate::AttributeEquals(std::string attr,
                                                     Value value) {
  return GeometryPredicate(
      [attr = std::move(attr), value = std::move(value)](
          const gis::Layer& layer, gis::GeometryId id) {
        auto v = layer.GetAttribute(id, attr);
        return v.ok() && v.ValueOrDie() == value;
      });
}

GeometryPredicate GeometryPredicate::AlphaEquals(
    const gis::GisDimensionInstance* gis, std::string attribute, Value member) {
  return GeometryPredicate(
      [gis, attribute = std::move(attribute),
       member = std::move(member)](const gis::Layer&, gis::GeometryId id) {
        auto bound = gis->Alpha(attribute, member);
        return bound.ok() && bound.ValueOrDie() == id;
      });
}

GeometryPredicate GeometryPredicate::WithinDistanceOfLayer(
    const gis::GisDimensionInstance* gis, std::string layer,
    double distance) {
  auto cache = std::make_shared<std::map<gis::GeometryId, bool>>();
  return GeometryPredicate(
      [gis, layer = std::move(layer), distance, cache](
          const gis::Layer& subject, gis::GeometryId id) {
        auto it = cache->find(id);
        if (it != cache->end()) {
          return it->second;
        }
        bool hit = false;
        auto other_r = gis->GetLayer(layer);
        auto pg_r = subject.GetPolygon(id);
        if (other_r.ok() && pg_r.ok()) {
          const gis::Layer& other = *other_r.ValueOrDie();
          const geometry::Polygon& pg = *pg_r.ValueOrDie();
          geometry::BoundingBox probe = pg.Bounds();
          geometry::BoundingBox expanded(
              probe.min_x - distance, probe.min_y - distance,
              probe.max_x + distance, probe.max_y + distance);
          for (gis::GeometryId cand : other.CandidatesInBox(expanded)) {
            double d = std::numeric_limits<double>::infinity();
            switch (other.kind()) {
              case gis::GeometryKind::kPoint:
              case gis::GeometryKind::kNode: {
                auto pt = other.GetPoint(cand);
                if (pt.ok()) {
                  d = geometry::DistanceToPolygon(pt.ValueOrDie(), pg);
                }
                break;
              }
              case gis::GeometryKind::kLine:
              case gis::GeometryKind::kPolyline: {
                auto line = other.GetPolyline(cand);
                if (line.ok()) {
                  d = geometry::PolylinePolygonDistance(*line.ValueOrDie(),
                                                        pg);
                }
                break;
              }
              case gis::GeometryKind::kPolygon: {
                auto opg = other.GetPolygon(cand);
                if (opg.ok()) {
                  d = geometry::PolygonDistance(*opg.ValueOrDie(), pg);
                }
                break;
              }
              case gis::GeometryKind::kAll:
                break;
            }
            if (d <= distance) {
              hit = true;
              break;
            }
          }
        }
        (*cache)[id] = hit;
        return hit;
      });
}

GeometryPredicate GeometryPredicate::DensityMassGreater(
    std::shared_ptr<const gis::DensityField> field, double threshold) {
  // Memoize the (expensive) integral per geometry id. The cache is shared
  // by all copies of this predicate.
  auto cache = std::make_shared<std::map<gis::GeometryId, double>>();
  return GeometryPredicate(
      [field = std::move(field), threshold, cache](const gis::Layer& layer,
                                                   gis::GeometryId id) {
        auto it = cache->find(id);
        double mass;
        if (it != cache->end()) {
          mass = it->second;
        } else {
          auto pg = layer.GetPolygon(id);
          if (!pg.ok()) {
            return false;
          }
          mass = field->IntegrateOverPolygon(*pg.ValueOrDie());
          (*cache)[id] = mass;
        }
        return mass > threshold;
      });
}

GeometryPredicate GeometryPredicate::And(GeometryPredicate other) const {
  Fn self = fn_;
  return GeometryPredicate(
      [self, other = std::move(other)](const gis::Layer& layer,
                                       gis::GeometryId id) {
        return self(layer, id) && other(layer, id);
      });
}

GeometryPredicate GeometryPredicate::Or(GeometryPredicate other) const {
  Fn self = fn_;
  return GeometryPredicate(
      [self, other = std::move(other)](const gis::Layer& layer,
                                       gis::GeometryId id) {
        return self(layer, id) || other(layer, id);
      });
}

GeometryPredicate GeometryPredicate::Not() const {
  Fn self = fn_;
  return GeometryPredicate(
      [self](const gis::Layer& layer, gis::GeometryId id) {
        return !self(layer, id);
      });
}

TimePredicate& TimePredicate::RollupEquals(std::string level, Value member) {
  rollup_equals_.emplace_back(std::move(level), std::move(member));
  return *this;
}

TimePredicate& TimePredicate::Window(temporal::Interval window) {
  if (window_) {
    window = temporal::Interval(
        std::max(window_->begin, window.begin),
        std::min(window_->end, window.end));
  }
  window_ = window;
  return *this;
}

TimePredicate& TimePredicate::HourRange(int h0, int h1) {
  hour_range_ = {h0, h1};
  return *this;
}

Result<temporal::IntervalSet> TimePredicate::MatchingIntervals(
    const temporal::TimeDimension& dim,
    const temporal::Interval& domain) const {
  if (unconstrained()) {
    return temporal::IntervalSet({domain});
  }
  for (const auto& [level, member] : rollup_equals_) {
    if (temporal::IsSubHourLevel(level)) {
      return Status::InvalidArgument(
          "MatchingIntervals requires hour-or-coarser rollup constraints; "
          "got '" +
          level + "'");
    }
  }
  // Cut the domain at every hour boundary plus the window endpoints; the
  // predicate is constant inside each piece, so one midpoint probe per
  // piece is exact. A matching cut between unmatched pieces (a point
  // window, a window touching a domain end) is kept as [c, c].
  std::vector<double> cuts = {domain.begin.seconds, domain.end.seconds};
  double first_hour =
      (temporal::StartOfHour(domain.begin) + temporal::kHour).seconds;
  for (double h = first_hour; h < domain.end.seconds; h += temporal::kHour) {
    cuts.push_back(h);
  }
  if (window_) {
    for (double w : {window_->begin.seconds, window_->end.seconds}) {
      if (w > domain.begin.seconds && w < domain.end.seconds) {
        cuts.push_back(w);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<temporal::Interval> pieces;
  bool prev_matched = false;
  for (size_t i = 0; i < cuts.size(); ++i) {
    const temporal::TimePoint c(cuts[i]);
    const bool next_matched =
        i + 1 < cuts.size() &&
        Matches(dim, temporal::TimePoint((cuts[i] + cuts[i + 1]) / 2.0));
    if (next_matched) {
      pieces.emplace_back(c, temporal::TimePoint(cuts[i + 1]));
    } else if (!prev_matched && Matches(dim, c)) {
      pieces.emplace_back(c, c);
    }
    prev_matched = next_matched;
  }
  return temporal::IntervalSet(std::move(pieces));
}

bool TimePredicate::Matches(const temporal::TimeDimension& dim,
                            temporal::TimePoint t) const {
  if (window_ && !window_->Contains(t)) {
    return false;
  }
  if (hour_range_) {
    int h = temporal::GetHourOfDay(t);
    if (h < hour_range_->first || h > hour_range_->second) {
      return false;
    }
  }
  for (const auto& [level, member] : rollup_equals_) {
    auto rolled = dim.Rollup(level, t);
    if (!rolled.ok() || !(rolled.ValueOrDie() == member)) {
      return false;
    }
  }
  return true;
}

bool TimePredicate::MatchesIgnoringWindow(const temporal::TimeDimension& dim,
                                          temporal::TimePoint t) const {
  if (hour_range_) {
    int h = temporal::GetHourOfDay(t);
    if (h < hour_range_->first || h > hour_range_->second) {
      return false;
    }
  }
  for (const auto& [level, member] : rollup_equals_) {
    auto rolled = dim.Rollup(level, t);
    if (!rolled.ok() || !(rolled.ValueOrDie() == member)) {
      return false;
    }
  }
  return true;
}

bool TimePredicate::has_sub_hour_rollup() const {
  return !sub_hour_rollup_level().empty();
}

const std::string& TimePredicate::sub_hour_rollup_level() const {
  static const std::string kNone;
  for (const auto& entry : rollup_equals_) {
    if (temporal::IsSubHourLevel(entry.first)) {
      return entry.first;
    }
  }
  return kNone;
}

moving::ZoneFilter ScanZoneFilter(
    const TimePredicate& when,
    const std::vector<const geometry::Polygon*>* polys) {
  moving::ZoneFilter filter;
  filter.window = when.window();
  if (polys != nullptr) {
    geometry::BoundingBox box;
    for (const geometry::Polygon* p : *polys) {
      box.ExtendWith(p->Bounds());
    }
    filter.bbox = box;
  }
  return filter;
}

std::vector<uint8_t> ResolvedPolygons::Bitmap(size_t layer_size) const {
  std::vector<uint8_t> out(layer_size, 0);
  for (gis::GeometryId id : ids) {
    out[static_cast<size_t>(id)] = 1;
  }
  return out;
}

ResolvedPolygons ResolvePolygons(const gis::Layer& layer,
                                 const std::vector<gis::GeometryId>& ids) {
  std::vector<gis::GeometryId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  ResolvedPolygons out;
  out.ids.reserve(sorted.size());
  out.polys.reserve(sorted.size());
  for (gis::GeometryId id : sorted) {
    auto pg = layer.GetPolygon(id);
    if (pg.ok()) {
      out.ids.push_back(id);
      out.polys.push_back(pg.ValueOrDie());
    }
  }
  return out;
}

}  // namespace piet::core
