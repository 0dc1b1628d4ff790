#include "analysis/diagnostic.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

namespace piet::analysis {

std::string_view SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string_view CheckModeToString(CheckMode mode) {
  switch (mode) {
    case CheckMode::kOff:
      return "off";
    case CheckMode::kWarn:
      return "warn";
    case CheckMode::kStrict:
      return "strict";
  }
  return "unknown";
}

namespace {

void AppendJsonString(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << SeverityToString(severity) << " [" << check_id << "] " << entity
     << ": " << message;
  if (!fixit.empty()) {
    os << " (fix: " << fixit << ")";
  }
  return os.str();
}

std::string Diagnostic::ToJson() const {
  std::ostringstream os;
  os << "{\"severity\":";
  AppendJsonString(os, SeverityToString(severity));
  os << ",\"check_id\":";
  AppendJsonString(os, check_id);
  os << ",\"entity\":";
  AppendJsonString(os, entity);
  os << ",\"message\":";
  AppendJsonString(os, message);
  if (!fixit.empty()) {
    os << ",\"fixit\":";
    AppendJsonString(os, fixit);
  }
  os << "}";
  return os.str();
}

void DiagnosticList::Add(Severity severity, std::string check_id,
                         std::string entity, std::string message,
                         std::string fixit) {
  const std::hash<std::string_view> hash;
  size_t key = hash(check_id);
  for (std::string_view part : {std::string_view(entity),
                                std::string_view(message)}) {
    key ^= hash(part) + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
  }
  const auto [first, last] = index_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    const Diagnostic& d = diagnostics_[it->second];
    if (d.check_id == check_id && d.entity == entity && d.message == message) {
      return;
    }
  }
  index_.emplace(key, diagnostics_.size());
  diagnostics_.push_back(Diagnostic{severity, std::move(check_id),
                                    std::move(entity), std::move(message),
                                    std::move(fixit)});
}

void DiagnosticList::Merge(const DiagnosticList& other) {
  for (const Diagnostic& d : other.diagnostics_) {
    Add(d.severity, d.check_id, d.entity, d.message, d.fixit);
  }
}

void DiagnosticList::DowngradeErrorsToWarnings() {
  for (Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) {
      d.severity = Severity::kWarning;
    }
  }
}

bool DiagnosticList::HasErrors() const { return NumErrors() > 0; }

size_t DiagnosticList::NumErrors() const {
  return static_cast<size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

bool DiagnosticList::Has(std::string_view check_id) const {
  return std::any_of(
      diagnostics_.begin(), diagnostics_.end(),
      [check_id](const Diagnostic& d) { return d.check_id == check_id; });
}

std::vector<std::string> DiagnosticList::CheckIds() const {
  std::vector<std::string> ids;
  ids.reserve(diagnostics_.size());
  for (const Diagnostic& d : diagnostics_) {
    ids.push_back(d.check_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::string DiagnosticList::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    if (i > 0) {
      os << "\n";
    }
    os << diagnostics_[i].ToString();
  }
  return os.str();
}

std::string DiagnosticList::ToJson() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    if (i > 0) {
      os << ",";
    }
    os << diagnostics_[i].ToJson();
  }
  os << "]";
  return os.str();
}

Status DiagnosticList::ToStatus() const {
  if (!HasErrors()) {
    return Status::OK();
  }
  std::ostringstream os;
  os << NumErrors() << " model/query check error(s):";
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::kError) {
      os << "\n  " << d.ToString();
    }
  }
  return Status::InvalidArgument(os.str());
}

}  // namespace piet::analysis
