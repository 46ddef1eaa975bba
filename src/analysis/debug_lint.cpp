#include "analysis/debug_lint.hpp"

#include <stdexcept>

#include "analysis/lint.hpp"

namespace sysdp::analysis {

void DebugLint::on_elaborated(const sim::Engine& engine) {
  const LintReport report = Linter().run(capture(engine, opts_), "debug-lint");
  if (!report.clean()) {
    throw std::logic_error("elaboration lint failed:\n" + report.to_text());
  }
}

}  // namespace sysdp::analysis
