#include "analysis/report.hpp"

#include <sstream>
#include <utility>

#include "obs/json_util.hpp"

namespace sysdp::analysis {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "error";
}

std::size_t Report::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

bool Report::clean(Severity fail_at) const noexcept {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= fail_at) return false;
  }
  return true;
}

std::string Report::render_text(std::string_view summary) const {
  std::ostringstream out;
  out << design << ": " << errors() << " error(s), " << warnings()
      << " warning(s), " << count(Severity::kNote) << " note(s)\n"
      << summary;
  for (const Diagnostic& d : diagnostics) {
    out << "  [" << to_string(d.severity) << "] " << d.check << " @ "
        << d.module;
    if (!d.storage.empty()) out << " '" << d.storage << "'";
    out << ": " << d.message << "\n";
  }
  return out.str();
}

std::string Report::render_json(std::string_view fields,
                                 std::string_view anchor_key) const {
  std::ostringstream out;
  out << "{\"design\": \"" << obs::json_escape(design) << "\", " << fields
      << "\"counts\": {\"errors\": " << errors()
      << ", \"warnings\": " << warnings()
      << ", \"notes\": " << count(Severity::kNote) << "}, \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out << ", ";
    out << "{\"check\": \"" << obs::json_escape(d.check)
        << "\", \"severity\": \"" << to_string(d.severity) << "\", \""
        << anchor_key << "\": \"" << obs::json_escape(d.module)
        << "\", \"storage\": \"" << obs::json_escape(d.storage)
        << "\", \"message\": \"" << obs::json_escape(d.message) << "\"}";
  }
  out << "]}";
  return out.str();
}

void Emitter::operator()(const std::string& anchor, const std::string& storage,
                         std::string message, Severity severity) const {
  report_.diagnostics.push_back(Diagnostic{std::string(check_), severity,
                                           anchor, storage,
                                           std::move(message)});
}

}  // namespace sysdp::analysis
