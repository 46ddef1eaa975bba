// Report core shared by the two static analyzers.
//
// The netlist linter (analysis/lint.hpp) and the tape verifier
// (analysis/tape_verify.hpp) both produce a list of findings, each tagged
// with the check that raised it and the severity that check assigns, and
// both render that list as human text or JSON.  This header is the shared
// part: the diagnostic list with its counts and verdict, the Emitter the
// checks report through, and one renderer for each format.  Severities are
// fixed per check by the analyzer; nothing can demote a failing check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sysdp::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] const char* to_string(Severity s) noexcept;

/// One finding, tagged with the check that produced it and the module /
/// storage (netlist) or site / slot (tape) it is anchored to.
struct Diagnostic {
  std::string check;
  Severity severity = Severity::kError;
  std::string module;   ///< primary anchor: module name or tape site
  std::string storage;  ///< storage label, empty if not port-anchored
  std::string message;
};

/// The diagnostics of one analyzer run over one design.
struct Report {
  std::string design;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] std::size_t errors() const noexcept {
    return count(Severity::kError);
  }
  [[nodiscard]] std::size_t warnings() const noexcept {
    return count(Severity::kWarning);
  }
  /// True if no diagnostic at or above `fail_at` was produced.
  [[nodiscard]] bool clean(Severity fail_at = Severity::kError) const noexcept;

 protected:
  /// The count header line, then `summary` (analyzer-specific lines, each
  /// ending in '\n'), then one line per diagnostic.
  [[nodiscard]] std::string render_text(std::string_view summary) const;
  /// {"design": ..., <fields>"counts": {...}, "diagnostics": [...]}, where
  /// `fields` is empty or analyzer-specific members ending in ", " and
  /// each diagnostic's anchor is keyed `anchor_key`.
  [[nodiscard]] std::string render_json(std::string_view fields,
                                        std::string_view anchor_key) const;
};

/// One check's reporting handle: findings land in `report` tagged with
/// the check and its severity, unless a finding names its own (a check
/// that reports both errors and lesser findings).
class Emitter {
 public:
  Emitter(std::string_view check, Severity severity, Report& report)
      : check_(check), severity_(severity), report_(report) {}

  void operator()(const std::string& anchor, const std::string& storage,
                  std::string message, Severity severity) const;
  void operator()(const std::string& anchor, const std::string& storage,
                  std::string message) const {
    (*this)(anchor, storage, std::move(message), severity_);
  }

 private:
  std::string_view check_;
  Severity severity_;
  Report& report_;
};

}  // namespace sysdp::analysis
