#ifndef PIET_OLAP_DIMENSION_H_
#define PIET_OLAP_DIMENSION_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace piet::olap {

/// A dimension schema in the sense of Hurtado–Mendelzon–Vaisman [7] as used
/// by the paper (Def. 1, application part): a name, a set of levels, and a
/// partial order (child -> parent edges) with distinguished bottom level and
/// implicit top level "All".
class DimensionSchema {
 public:
  DimensionSchema() = default;
  DimensionSchema(std::string name, std::string bottom_level);

  /// Adds a level (idempotent).
  void AddLevel(const std::string& level);

  /// Declares `fine` rolls up to `coarse` (adds both levels if absent).
  Status AddEdge(const std::string& fine, const std::string& coarse);

  const std::string& name() const { return name_; }
  const std::string& bottom_level() const { return bottom_; }
  const std::vector<std::string>& levels() const { return levels_; }

  bool HasLevel(const std::string& level) const;

  /// Direct parents of `level`.
  std::vector<std::string> ParentsOf(const std::string& level) const;

  /// True if `coarse` is reachable from `fine` (reflexive).
  bool RollsUp(const std::string& fine, const std::string& coarse) const;

  /// A shortest edge path fine -> ... -> coarse, empty when unreachable.
  std::vector<std::string> PathBetween(const std::string& fine,
                                       const std::string& coarse) const;

  /// Validates the schema graph: acyclic and every level reaches "All".
  Status Validate() const;

  /// The distinguished top level name.
  static constexpr const char* kAll = "All";

 private:
  std::string name_;
  std::string bottom_;
  std::vector<std::string> levels_;
  // Adjacency: level -> direct coarser levels.
  std::unordered_map<std::string, std::vector<std::string>> up_edges_;
};

/// A dimension instance: members per level plus rollup *functions* between
/// adjacent levels (Def. 2's RUP set). Rollups must be total on the members
/// of the fine level; CheckConsistency verifies totality and that composed
/// paths agree (the classic summarizability precondition).
class DimensionInstance {
 public:
  DimensionInstance() = default;
  explicit DimensionInstance(DimensionSchema schema);

  const DimensionSchema& schema() const { return schema_; }

  /// Registers a member at a level.
  Status AddMember(const std::string& level, const Value& member);

  /// Declares RUP: member (at `fine`) rolls up to `parent` (at `coarse`).
  /// Both members are added to their levels if absent. `fine`->`coarse`
  /// must be a schema edge.
  Status AddRollup(const std::string& fine, const Value& member,
                   const std::string& coarse, const Value& parent);

  /// Members registered at a level. The "All" level implicitly holds the
  /// single member "all".
  Result<std::vector<Value>> Members(const std::string& level) const;

  bool HasMember(const std::string& level, const Value& member) const;

  /// Applies the composed rollup function from `fine` to `coarse` to
  /// `member`, following a shortest schema path. Everything rolls up to
  /// Value("all") at level "All".
  Result<Value> RollupValue(const std::string& fine, const Value& member,
                            const std::string& coarse) const;

  /// All members of `fine` that (transitively) roll up to `parent` at
  /// `coarse` — the "drill-down" inverse image.
  Result<std::vector<Value>> MembersUnder(const std::string& fine,
                                          const std::string& coarse,
                                          const Value& parent) const;

  /// Checks that every adjacent-level rollup is total on the fine level's
  /// members and that alternative paths to the same level compose to the
  /// same value.
  Status CheckConsistency() const;

 private:
  using ValueMap = std::unordered_map<Value, Value, ValueHash>;

  // Key for the rollup map of one schema edge.
  static std::string EdgeKey(const std::string& fine,
                             const std::string& coarse) {
    return fine + "\x1f" + coarse;
  }

  /// The members of one level: in insertion order (outputs read it),
  /// plus a hash index so adding a member is O(1).
  struct LevelMembers {
    std::vector<Value> list;
    std::unordered_set<Value, ValueHash> index;
  };

  DimensionSchema schema_;
  std::unordered_map<std::string, LevelMembers> members_;
  std::unordered_map<std::string, ValueMap> rollups_;
};

}  // namespace piet::olap

#endif  // PIET_OLAP_DIMENSION_H_
