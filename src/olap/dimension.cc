#include "olap/dimension.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace piet::olap {

DimensionSchema::DimensionSchema(std::string name, std::string bottom_level)
    : name_(std::move(name)), bottom_(std::move(bottom_level)) {
  AddLevel(bottom_);
  AddLevel(kAll);
}

void DimensionSchema::AddLevel(const std::string& level) {
  if (!HasLevel(level)) {
    levels_.push_back(level);
    up_edges_.emplace(level, std::vector<std::string>{});
  }
}

Status DimensionSchema::AddEdge(const std::string& fine,
                                const std::string& coarse) {
  if (fine == coarse) {
    return Status::InvalidArgument("self-loop on level '" + fine + "'");
  }
  if (coarse == bottom_) {
    return Status::InvalidArgument("cannot roll up into the bottom level");
  }
  AddLevel(fine);
  AddLevel(coarse);
  // Reject edges that would create a cycle.
  if (RollsUp(coarse, fine)) {
    return Status::InvalidArgument("edge " + fine + "->" + coarse +
                                   " would create a cycle");
  }
  auto& ups = up_edges_[fine];
  if (std::find(ups.begin(), ups.end(), coarse) == ups.end()) {
    ups.push_back(coarse);
  }
  return Status::OK();
}

bool DimensionSchema::HasLevel(const std::string& level) const {
  return up_edges_.count(level) > 0;
}

std::vector<std::string> DimensionSchema::ParentsOf(
    const std::string& level) const {
  auto it = up_edges_.find(level);
  if (it == up_edges_.end()) {
    return {};
  }
  return it->second;
}

bool DimensionSchema::RollsUp(const std::string& fine,
                              const std::string& coarse) const {
  return !PathBetween(fine, coarse).empty();
}

std::vector<std::string> DimensionSchema::PathBetween(
    const std::string& fine, const std::string& coarse) const {
  if (!HasLevel(fine) || !HasLevel(coarse)) {
    return {};
  }
  if (fine == coarse) {
    return {fine};
  }
  // BFS for a shortest path.
  std::deque<std::string> queue = {fine};
  std::unordered_map<std::string, std::string> parent;
  parent[fine] = fine;
  while (!queue.empty()) {
    std::string cur = queue.front();
    queue.pop_front();
    for (const std::string& up : ParentsOf(cur)) {
      if (parent.count(up)) {
        continue;
      }
      parent[up] = cur;
      if (up == coarse) {
        std::vector<std::string> path = {coarse};
        std::string node = coarse;
        while (node != fine) {
          node = parent[node];
          path.push_back(node);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(up);
    }
  }
  return {};
}

Status DimensionSchema::Validate() const {
  for (const std::string& level : levels_) {
    if (level == kAll) {
      continue;
    }
    if (!RollsUp(level, kAll)) {
      return Status::InvalidArgument("level '" + level +
                                     "' does not reach All in dimension '" +
                                     name_ + "'");
    }
  }
  return Status::OK();
}

DimensionInstance::DimensionInstance(DimensionSchema schema)
    : schema_(std::move(schema)) {}

Status DimensionInstance::AddMember(const std::string& level,
                                    const Value& member) {
  if (!schema_.HasLevel(level)) {
    return Status::NotFound("no level '" + level + "' in dimension '" +
                            schema_.name() + "'");
  }
  LevelMembers& members = members_[level];
  if (members.index.insert(member).second) {
    members.list.push_back(member);
  }
  return Status::OK();
}

Status DimensionInstance::AddRollup(const std::string& fine,
                                    const Value& member,
                                    const std::string& coarse,
                                    const Value& parent) {
  const auto parents = schema_.ParentsOf(fine);
  if (std::find(parents.begin(), parents.end(), coarse) == parents.end()) {
    return Status::InvalidArgument("no schema edge " + fine + "->" + coarse +
                                   " in dimension '" + schema_.name() + "'");
  }
  PIET_RETURN_NOT_OK(AddMember(fine, member));
  PIET_RETURN_NOT_OK(AddMember(coarse, parent));
  auto& map = rollups_[EdgeKey(fine, coarse)];
  auto it = map.find(member);
  if (it != map.end() && !(it->second == parent)) {
    return Status::AlreadyExists("member " + member.ToString() + " at level " +
                                 fine + " already rolls up to " +
                                 it->second.ToString());
  }
  map[member] = parent;
  return Status::OK();
}

Result<std::vector<Value>> DimensionInstance::Members(
    const std::string& level) const {
  if (!schema_.HasLevel(level)) {
    return Status::NotFound("no level '" + level + "' in dimension '" +
                            schema_.name() + "'");
  }
  if (level == DimensionSchema::kAll) {
    return std::vector<Value>{Value("all")};
  }
  auto it = members_.find(level);
  if (it == members_.end()) {
    return std::vector<Value>{};
  }
  return it->second.list;
}

bool DimensionInstance::HasMember(const std::string& level,
                                  const Value& member) const {
  if (level == DimensionSchema::kAll) {
    return member == Value("all");
  }
  auto it = members_.find(level);
  if (it == members_.end()) {
    return false;
  }
  return it->second.index.count(member) > 0;
}

Result<Value> DimensionInstance::RollupValue(const std::string& fine,
                                             const Value& member,
                                             const std::string& coarse) const {
  if (coarse == DimensionSchema::kAll) {
    return Value("all");
  }
  std::vector<std::string> path = schema_.PathBetween(fine, coarse);
  if (path.empty()) {
    return Status::InvalidArgument("level '" + coarse +
                                   "' not reachable from '" + fine + "'");
  }
  Value current = member;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    auto map_it = rollups_.find(EdgeKey(path[i], path[i + 1]));
    if (map_it == rollups_.end()) {
      return Status::NotFound("no rollup data for edge " + path[i] + "->" +
                              path[i + 1]);
    }
    auto val_it = map_it->second.find(current);
    if (val_it == map_it->second.end()) {
      return Status::NotFound("member " + current.ToString() +
                              " has no rollup along " + path[i] + "->" +
                              path[i + 1]);
    }
    current = val_it->second;
  }
  return current;
}

Result<std::vector<Value>> DimensionInstance::MembersUnder(
    const std::string& fine, const std::string& coarse,
    const Value& parent) const {
  PIET_ASSIGN_OR_RETURN(std::vector<Value> candidates, Members(fine));
  std::vector<Value> out;
  for (const Value& m : candidates) {
    Result<Value> up = RollupValue(fine, m, coarse);
    if (up.ok() && up.ValueOrDie() == parent) {
      out.push_back(m);
    }
  }
  return out;
}

Status DimensionInstance::CheckConsistency() const {
  PIET_RETURN_NOT_OK(schema_.Validate());
  // Totality of each populated edge over the fine level's members.
  for (const std::string& level : schema_.levels()) {
    auto mem_it = members_.find(level);
    if (mem_it == members_.end()) {
      continue;
    }
    for (const std::string& up : schema_.ParentsOf(level)) {
      if (up == DimensionSchema::kAll) {
        continue;  // Implicit rollup to "all".
      }
      auto map_it = rollups_.find(EdgeKey(level, up));
      for (const Value& m : mem_it->second.list) {
        if (map_it == rollups_.end() || !map_it->second.count(m)) {
          return Status::InvalidArgument(
              "rollup " + level + "->" + up + " undefined for member " +
              m.ToString() + " in dimension '" + schema_.name() + "'");
        }
      }
    }
  }
  // Path independence: all paths from a level to any reachable level agree.
  // We check pairwise via parents: for each level L with parents P1, P2 and
  // common ancestor A, composing through P1 and P2 must coincide.
  for (const std::string& level : schema_.levels()) {
    auto mem_it = members_.find(level);
    if (mem_it == members_.end()) {
      continue;
    }
    std::vector<std::string> parents = schema_.ParentsOf(level);
    for (size_t i = 0; i < parents.size(); ++i) {
      for (size_t j = i + 1; j < parents.size(); ++j) {
        for (const std::string& target : schema_.levels()) {
          if (target == DimensionSchema::kAll) {
            continue;
          }
          if (!schema_.RollsUp(parents[i], target) ||
              !schema_.RollsUp(parents[j], target)) {
            continue;
          }
          for (const Value& m : mem_it->second.list) {
            Result<Value> via_i = RollupValue(level, m, parents[i]);
            Result<Value> via_j = RollupValue(level, m, parents[j]);
            if (!via_i.ok() || !via_j.ok()) {
              continue;  // Totality failure already reported above.
            }
            Result<Value> a =
                RollupValue(parents[i], via_i.ValueOrDie(), target);
            Result<Value> b =
                RollupValue(parents[j], via_j.ValueOrDie(), target);
            if (a.ok() && b.ok() && !(a.ValueOrDie() == b.ValueOrDie())) {
              return Status::InvalidArgument(
                  "inconsistent rollup paths for member " + m.ToString() +
                  " from level " + level + " to " + target);
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace piet::olap
