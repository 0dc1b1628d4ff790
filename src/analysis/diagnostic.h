#ifndef PIET_ANALYSIS_DIAGNOSTIC_H_
#define PIET_ANALYSIS_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace piet::analysis {

/// Severity of a diagnostic. Errors are well-formedness violations that make
/// aggregates untrustworthy (the summability preconditions of Defs. 1-3 and
/// Sec. 4/5); warnings are suspicious but evaluable; notes are informational.
enum class Severity {
  kNote = 0,
  kWarning,
  kError,
};

std::string_view SeverityToString(Severity severity);

/// How checkers are wired into evaluation and load paths:
///  * kOff    — no checks run; behavior is byte-identical to the unchecked
///              code paths.
///  * kWarn   — checks run; error diagnostics are downgraded to warnings and
///              surfaced alongside the result, evaluation proceeds.
///  * kStrict — checks run; any error diagnostic rejects the operation with
///              an InvalidArgument status naming the offending entity.
enum class CheckMode {
  kOff = 0,
  kWarn,
  kStrict,
};

std::string_view CheckModeToString(CheckMode mode);

/// One finding of a checker: a severity, a stable kebab-case check ID (the
/// catalog lives in DESIGN.md), the entity it attributes to (layer, MOFT row,
/// query clause, ...), and a human-readable message.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string check_id;  ///< e.g. "moft-time-monotonic"
  std::string entity;    ///< e.g. "moft 'FMbus' oid 3" or "WHERE clause 2"
  std::string message;
  /// Optional machine-applicable replacement for the offending construct,
  /// e.g. "T BETWEEN 189493200 AND 189496800" — empty when no rewrite is
  /// known. Rendered as a trailing "(fix: ...)" by ToString.
  std::string fixit;

  /// "error [moft-time-monotonic] moft 'FMbus' oid 3: ..." with an optional
  /// " (fix: ...)" suffix when a fix-it is attached.
  std::string ToString() const;

  /// One JSON object {"severity","check_id","entity","message"[,"fixit"]}
  /// with all strings escaped; "fixit" is omitted when empty.
  std::string ToJson() const;
};

/// An append-only collection of diagnostics with the queries checkers and
/// their callers need: error presence, per-ID lookup, and rendering either as
/// text or as a Status for strict-mode gates.
class DiagnosticList {
 public:
  DiagnosticList() = default;

  /// Appends a finding unless an identical (check_id, entity, message)
  /// triple is already present — repeated analyze calls over the same input
  /// (e.g. CheckAll reaching a schema both directly and via its instance)
  /// must not duplicate findings. Distinct messages on a shared entity are
  /// distinct findings and are all kept. An empty `fixit` attaches no
  /// rewrite.
  void Add(Severity severity, std::string check_id, std::string entity,
           std::string message, std::string fixit = std::string());
  void AddError(std::string check_id, std::string entity, std::string message,
                std::string fixit = std::string()) {
    Add(Severity::kError, std::move(check_id), std::move(entity),
        std::move(message), std::move(fixit));
  }
  void AddWarning(std::string check_id, std::string entity,
                  std::string message, std::string fixit = std::string()) {
    Add(Severity::kWarning, std::move(check_id), std::move(entity),
        std::move(message), std::move(fixit));
  }
  void AddNote(std::string check_id, std::string entity, std::string message,
               std::string fixit = std::string()) {
    Add(Severity::kNote, std::move(check_id), std::move(entity),
        std::move(message), std::move(fixit));
  }

  /// Appends every diagnostic of `other`.
  void Merge(const DiagnosticList& other);

  /// Re-labels every error as a warning (the kWarn downgrade).
  void DowngradeErrorsToWarnings();

  bool empty() const { return diagnostics_.empty(); }
  size_t size() const { return diagnostics_.size(); }
  const Diagnostic& operator[](size_t i) const { return diagnostics_[i]; }
  std::vector<Diagnostic>::const_iterator begin() const {
    return diagnostics_.begin();
  }
  std::vector<Diagnostic>::const_iterator end() const {
    return diagnostics_.end();
  }
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  bool HasErrors() const;
  size_t NumErrors() const;

  /// True if any diagnostic carries `check_id`.
  bool Has(std::string_view check_id) const;

  /// Distinct check IDs present, sorted.
  std::vector<std::string> CheckIds() const;

  /// One diagnostic per line.
  std::string ToString() const;

  /// JSON array of Diagnostic::ToJson objects, one per finding.
  std::string ToJson() const;

  /// OK when no error diagnostics are present; otherwise InvalidArgument
  /// whose message lists every error (the strict-mode rejection).
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  /// Hash of each finding's (check_id, entity, message) -> its index in
  /// `diagnostics_`, so Add dedupes in O(1) expected time.
  std::unordered_multimap<size_t, size_t> index_;
};

}  // namespace piet::analysis

#endif  // PIET_ANALYSIS_DIAGNOSTIC_H_
