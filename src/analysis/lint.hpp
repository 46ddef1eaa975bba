// Static checker framework over captured netlists.
//
// The linter turns the systolic correctness arguments the simulator used
// to take on faith into machine-checked structural properties.  Six
// built-in checks:
//
//   multiple-drivers  — a register written, or a bus driven, by more than
//                       one module: last-write-wins would depend on eval
//                       order, and real buses forbid it outright.  Also
//                       flags a key declared both register and signal.
//   comb-hazard       — same-phase read-after-write hazards: a signal
//                       driven by a module not marked combinational() (the
//                       gated engine would not order it first), a listener
//                       registered before its driver (it reads last
//                       cycle's value), and combinational cycles.
//   dangling-port     — a read port no module or environment tap ever
//                       drives (warning: the reader sees only the initial
//                       value), and a written port nothing reads (note).
//   orphan-module     — a module the design constructed but never
//                       registered with the Engine: it would simply not be
//                       simulated.
//   wakeup-coverage   — the PR 2 quiescence contract: every dataflow edge
//                       into a module that sleeps and reactivates
//                       (SleepMode::kWakeable) must be covered by a
//                       declared wakeup edge.  A combinational signal that
//                       derives() from a register may instead be covered
//                       by an edge from that register's writer — the
//                       retiming argument (Leiserson & Saxe) made
//                       checkable.  Declared edges may be a superset;
//                       missing ones are errors, because Gating::kSparse
//                       silently diverges from dense execution without
//                       them.
//   probe-coverage    — a storage some module writes but no writing port
//                       covers with a telemetry sampler (note): the VCD
//                       layer (src/obs) cannot observe it, so waveforms of
//                       this design silently omit the lane.
//
// Severities are fixed per check: dangling-port findings are warnings
// (a written port nothing reads, a note), probe-coverage findings notes,
// and the other four checks report errors.  Reports render as human text
// or JSON (schema sysdp-lint-v1).
#pragma once

#include <string>
#include <string_view>

#include "analysis/netlist.hpp"
#include "analysis/report.hpp"

namespace sysdp::analysis {

struct LintReport : Report {
  [[nodiscard]] std::string to_text() const { return render_text(""); }
  /// One JSON object: {"design": ..., "counts": ..., "diagnostics": [...]}.
  [[nodiscard]] std::string to_json() const {
    return render_json("", "module");
  }
};

class Linter {
 public:
  static constexpr std::string_view kMultipleDrivers = "multiple-drivers";
  static constexpr std::string_view kCombHazard = "comb-hazard";
  static constexpr std::string_view kDanglingPort = "dangling-port";
  static constexpr std::string_view kOrphanModule = "orphan-module";
  static constexpr std::string_view kWakeupCoverage = "wakeup-coverage";
  static constexpr std::string_view kProbeCoverage = "probe-coverage";

  /// Run all six checks.
  [[nodiscard]] LintReport run(const Netlist& net,
                               std::string design_name) const;
};

}  // namespace sysdp::analysis
