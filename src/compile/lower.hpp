// Trace-based lowering: modular design -> CompiledNetlist.
//
// lower_array() runs the design once on a serial, dense oracle engine with
// a Recorder attached.  The array models narrate every semiring op and
// register write (sim/record.hpp); the recorder shadow-executes the
// narration and emits the flat tape.  Why this is sound for the paper's
// designs: their control — which PE fires, with which weight, into which
// register, on which cycle — is a function of tags, counters and validity
// bits only, never of the cost values flowing through.  One concrete run
// therefore fixes the complete schedule for the instance, and the tape
// replays it bit-identically, cycle for cycle.
//
// Lanes are named where they are born: each array declares the writer
// module and port label of every storage key it narrates
// (sim::OpRecorder::declare_lane, from elaborate()), and the recorder joins
// those declarations to its lanes when the tape is sealed.  Lowering never
// captures the analysis netlist or calls describe_ports /
// describe_environment; the names still equal what a capture of the same
// engine would resolve, because each family derives both from one label
// helper.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "compile/compact.hpp"
#include "compile/optimize.hpp"
#include "compile/program.hpp"
#include "compile/recorder.hpp"
#include "sim/engine.hpp"

namespace sysdp::compile {

struct LowerOptions {
  /// Name lanes from the array's declare_lane() declarations
  /// (Provenance, TapeStats::named_lanes).  The field keeps its historical
  /// name; lowering captures no netlist either way.  Off, every lane stays
  /// "lane<N>" and the tape is otherwise identical.
  bool capture_netlist = true;
  /// Rename slots by live-range reuse after lowering (compile/compact.hpp):
  /// the recorder's SSA slot file scales with the op count, compaction
  /// shrinks it to the peak live count so replays — above all the B-lane
  /// batched replay, whose slot traffic is multiplied by the lane count —
  /// stay cache-resident.  Off only for tape-structure forensics.
  bool compact = true;
  /// Emit the parameter plane: weight-parameter indices on every op plus
  /// the oracle's weight table (CompiledNetlist::params), so engines can
  /// bind() per-instance weight tables and one lowering of a family shape
  /// serves any weight assignment.  Same-shape instances lower to
  /// structurally identical tapes (the designs' control depends on tags
  /// and counters, never on cost values), so their parameter planes align
  /// index for index.
  bool parameterise = false;
  /// Tape optimizer level (compile/optimize.hpp): 0 leaves the recorded
  /// schedule untouched, 1 runs the conservative pipeline (dead-op
  /// elimination, edge-free level fusion, kind-major reordering), 2 also
  /// fuses across same-kind chain edges.  Runs after the oracle
  /// cross-checks — the recorded tape is validated, then rewritten — and
  /// before compaction, which requires the SSA slot file.  Replay stays
  /// bit-identical at every level; an optimized tape's now() counts
  /// fused dependency levels, not oracle cycles.
  int optimize = 0;
};

struct Lowered {
  CompiledNetlist net;
  /// The oracle run's own reported cycle count (`cycles` or
  /// `stats.cycles` of the family's result): the array's latency, counted
  /// the way its analytic witness counts it.  Not the tape's level count,
  /// which follows the cycles the oracle engine stepped (one more for the
  /// triangles, which report the root's completion cycle) and which the
  /// optimizer then fuses.
  sim::Cycle oracle_cycles = 0;
};

namespace detail {

/// Busy-step count of a run result, whatever shape the family returns.
template <typename R>
[[nodiscard]] std::uint64_t busy_steps_of(const R& r) {
  if constexpr (requires { r.busy_steps; }) {
    return static_cast<std::uint64_t>(r.busy_steps);
  } else if constexpr (requires { r.stats.busy_steps; }) {
    return static_cast<std::uint64_t>(r.stats.busy_steps);
  } else {
    return 0;
  }
}

/// Reported cycle count of a run result, read like busy_steps_of.
template <typename R>
[[nodiscard]] sim::Cycle cycles_of(const R& r) {
  if constexpr (requires { r.cycles; }) {
    return static_cast<sim::Cycle>(r.cycles);
  } else {
    return static_cast<sim::Cycle>(r.stats.cycles);
  }
}

}  // namespace detail

/// Lower `arr` by oracle run.  The array must be fresh (never run); the
/// oracle engine is internal and serial+dense, the canonical program
/// order.  Throws std::logic_error if the narration is inconsistent with
/// the oracle's live values or the busy-step invariant fails — lowering
/// bugs die here, not in a diverging replay.
template <typename Array>
[[nodiscard]] Lowered lower_array(Array& arr, const LowerOptions& opt = {}) {
  sim::Engine oracle;
  Recorder rec(opt.capture_netlist);
  oracle.set_recorder(&rec);
  oracle.add_observer(&rec);

  const auto result = arr.run(oracle);

  Lowered out;
  out.oracle_cycles = detail::cycles_of(result);
  out.net = rec.finish(opt.parameterise);
  out.net.stats.oracle_active_evals = oracle.active_evals();
  out.net.stats.oracle_dense_evals = oracle.dense_evals();
  out.net.stats.oracle_busy_steps = detail::busy_steps_of(result);
  if (out.net.cycles() != oracle.now()) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.cycles()) +
        " dependency levels but the oracle ran " +
        std::to_string(oracle.now()) + " cycles");
  }
  // Every paper design marks exactly one busy step per semiring op, so a
  // mismatch means a narration site is missing or duplicated.
  if (out.net.num_ops() != out.net.stats.oracle_busy_steps) {
    throw std::logic_error(
        "compile::lower_array: tape has " + std::to_string(out.net.num_ops()) +
        " ops but the oracle counted " +
        std::to_string(out.net.stats.oracle_busy_steps) +
        " busy steps — a narration site is missing or duplicated");
  }
  if (opt.optimize > 0) {
    OptimizeOptions oo;
    oo.level = opt.optimize;
    optimize_tape(out.net, oo);
  }
  if (opt.compact) compact_slots(out.net);
  return out;
}

}  // namespace sysdp::compile
