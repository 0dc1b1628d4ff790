#ifndef PIET_ANALYSIS_MODEL_CHECK_H_
#define PIET_ANALYSIS_MODEL_CHECK_H_

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "geometry/polygon.h"
#include "gis/instance.h"
#include "gis/overlay.h"
#include "moving/moft.h"
#include "moving/trajectory.h"

namespace piet::analysis {

/// Tunables of the model checker.
struct ModelCheckOptions {
  /// Maximum plausible object speed (distance units per second) for the
  /// `traj-speed-bound` sanity check; <= 0 disables the check.
  double max_speed = 0.0;

  /// Relative tolerance for the overlay area-conservation check.
  double area_epsilon = 1e-6;
};

/// A borrowed, non-owning view of the pieces of a GeoOlapDatabase the model
/// checker validates. Kept decoupled from core so the analysis library stays
/// below core in the dependency order (core wires the checker into its load
/// paths and evaluator).
struct DatabaseView {
  const gis::GisDimensionInstance* gis = nullptr;
  std::vector<std::pair<std::string, const moving::Moft*>> mofts;
  const gis::OverlayDb* overlay = nullptr;  ///< Optional.
};

/// Validates that a database instance satisfies the paper's well-formedness
/// preconditions — the static-analysis half that makes aggregation
/// trustworthy. The schema lattice of Defs. 1-3 (H(L) shape, Att, stored
/// rollups, α, fact-table totality) is proven by lint::LintSchema, whose
/// lint-* findings CheckInstance reports (DESIGN.md §11). Check-ID catalog
/// of the rest (stable, kebab-case; see DESIGN.md §6):
///
///   instance-layer-missing    a schema layer has no registered instance
///   schema-dim-consistent     application dimension schema/instance broken
///   moft-time-monotonic       per-Oid timestamps not strictly increasing
///   moft-duplicate-sample     duplicate (Oid, t) observation
///   moft-finite-coords        NaN/infinite coordinate or timestamp
///   moft-block-decode         a stored block fails to decode
///   traj-continuity           LIT(S) undefined: non-increasing leg times
///   traj-speed-bound          a leg exceeds options.max_speed
///   overlay-partition         two overlay cells overlap in their interiors
///   overlay-area-conservation cell areas do not sum to the covered area
class ModelChecker {
 public:
  explicit ModelChecker(ModelCheckOptions options = {})
      : options_(options) {}

  const ModelCheckOptions& options() const { return options_; }

  /// Defs. 1-2: lint::LintSchema over SchemaModel::FromInstance(instance),
  /// plus what the raw model cannot express: every schema layer has an
  /// instance, application dimension schemas and instances are consistent.
  void CheckInstance(const gis::GisDimensionInstance& instance,
                     DiagnosticList* out) const;

  /// Sec. 4 checks over a raw observation stream: strictly increasing
  /// timestamps per Oid, no duplicate (Oid, t), finite coordinates. The
  /// stream need not be grouped; per-Oid order is checked in stream order
  /// within each Oid.
  void CheckSamples(const std::string& entity,
                    const std::vector<moving::Sample>& samples,
                    DiagnosticList* out) const;

  /// CheckSamples over a registered MOFT plus per-object trajectory checks,
  /// walking its blocks span by span (Moft::Blocks): a released or opened
  /// table is decoded a block at a time and its hot tier is left as it
  /// was. A block that fails to decode is a moft-block-decode error.
  void CheckMoft(const std::string& name, const moving::Moft& moft,
                 DiagnosticList* out) const;

  /// LIT(S) well-definedness over raw timed points: strictly increasing
  /// times (non-negative elapsed), finite positions, optional speed bound.
  void CheckTrajectory(const std::string& entity,
                       const std::vector<moving::TimedPoint>& points,
                       DiagnosticList* out) const;

  /// Sec. 5 partition checks over raw cells: pairwise interior-disjoint
  /// (convex cells only; non-convex pairs are skipped), and — when
  /// `expected_area` >= 0 — conservation of total area within
  /// options.area_epsilon (relative).
  void CheckOverlayCells(const std::string& entity,
                         const std::vector<geometry::Polygon>& cells,
                         double expected_area, DiagnosticList* out) const;

  /// Partition checks over a built overlay: cells pairwise
  /// interior-disjoint; in quadtree mode the leaves must tile the domain
  /// box, in convex mode each covering label's cells must sum to its
  /// polygon's area.
  void CheckOverlay(const gis::OverlayDb& overlay, DiagnosticList* out) const;

  /// Runs every applicable check over the view.
  DiagnosticList CheckAll(const DatabaseView& view) const;

 private:
  ModelCheckOptions options_;
};

}  // namespace piet::analysis

#endif  // PIET_ANALYSIS_MODEL_CHECK_H_
