// Opt-in elaboration-time linting: fail fast before cycle 0.
//
// DebugLint is an engine observer that captures the netlist and runs the
// full Linter from on_elaborated — at the first step(), after every
// add()/add_wakeup(), before any module evaluates.  Any error-severity
// finding aborts the run with the rendered report, so a mis-wired array
// dies with "missing wakeup edge host -> pe0" instead of silently
// diverging a thousand cycles later under Gating::kSparse.
#pragma once

#include <utility>

#include "analysis/netlist.hpp"
#include "sim/observer.hpp"

namespace sysdp::analysis {

class DebugLint : public sim::EngineObserver {
 public:
  /// `opts` is forwarded to capture() — pass the design's environment
  /// taps so testbench-observed ports don't count as dangling.
  explicit DebugLint(CaptureOptions opts = {}) : opts_(std::move(opts)) {}

  /// Lint the captured netlist; throws std::logic_error (message = the
  /// text report) if any diagnostic is an error.
  void on_elaborated(const sim::Engine& engine) override;

 private:
  CaptureOptions opts_;
};

}  // namespace sysdp::analysis
