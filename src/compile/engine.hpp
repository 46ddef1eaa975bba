// Executor for compiled flat-netlist programs.
//
// CompiledEngine replays a CompiledNetlist's op tape level by level over B
// lanes (instances) at once.  It is the second engine mode next to the
// interpreter: the same cycle semantics (now() advances one dependency
// level per step, and a value changes on exactly the cycle it changed in
// the modular oracle), but the per-cycle work is a tight loop over packed
// 32-byte ops and one flat value array — no virtual eval/commit dispatch,
// no module state, no two-phase staging (lowering already resolved it into
// SSA slots).  B = 1 (the default) is the single-instance replay.
//
// The slot file is lane-major (`slots[slot*B + lane]`, 64-byte aligned), so
// executing an op is a loop over B contiguous, independent int64 elements —
// the shape auto-vectorisers turn into SIMD without a single intrinsic.
// Two structural facts make one tape serve every lane:
//
//   * the designs' control is value-independent (tags, counters, validity
//     bits), so every lane follows the identical schedule — there is no
//     divergence to mask; and
//   * lowering is SSA (every op's destination is a fresh slot, and
//     compact_slots reuses an index only in a strictly later level), so a
//     destination row never aliases a source row within a level and the
//     lane loops carry no loop-carried dependence.
//
// At load time each dependency level is split, in tape order, into runs at
// kind boundaries so the kernels stay monomorphic.  Tape order is always a
// legal execution order; grouping a level kind-major, which makes its runs
// long, is the optimizer's job (reorder_levels, compile/optimize.hpp).  The
// kernel is instantiated for widths 1, 8, 16 and any: width 1 uses the
// scalar sat_add, the wider ones the branchless lane forms of
// compile/lane_math.hpp, bit-identical to it.
//
// Lanes bind weight tables independently on parameterised tapes
// (compile/lower.hpp, LowerOptions::parameterise): one lowering of a family
// shape serves B weight assignments per replay, and any number across
// replays.  `step_checked` additionally compares every op result with the
// oracle's recorded value, which the differential suite runs on every
// design instance.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compile/aligned.hpp"
#include "compile/program.hpp"
#include "compile/replay_observer.hpp"
#include "semiring/cost.hpp"
#include "sim/module.hpp"

namespace sysdp::compile {

/// First divergence found by a checked replay (op-level) or output
/// verification; index is an op index or output index respectively.
/// Checked replay additionally attributes the diverging op through the
/// tape's provenance tables (module instance + declared port label), so a
/// failing differential test names the design signal, not just a flat op
/// index; both strings stay empty when the tape carries no op_lane plane
/// or the op is an unnamed intermediate.
struct Divergence {
  bool found = false;
  std::uint64_t index = 0;
  Cost got = 0;
  Cost expected = 0;
  std::string module;
  std::string label;
};

/// One homogeneous span of a level: tape ops [lo, hi) are all of `kind`,
/// executed back to back by one monomorphic kernel.  Namespace-scope
/// because the kernels are free functions compiled per ISA via function
/// multiversioning (engine.cpp) and need to name the type.
struct KindRun {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  OpKind kind = OpKind::kMac;
};

class CompiledEngine {
 public:
  /// Borrows `net`, which must outlive the engine.  `lanes` is the batch
  /// width B; every lane starts oracle-bound.  Throws std::invalid_argument
  /// if `lanes` is zero.
  explicit CompiledEngine(const CompiledNetlist& net, std::uint32_t lanes = 1);

  [[nodiscard]] std::uint32_t lanes() const noexcept { return lanes_; }

  /// Rewind every lane to cycle 0 and restore the initial slot image.
  /// Op-destination slots keep stale values from a previous run — harmless,
  /// since SSA guarantees every one is rewritten before any op or output
  /// reads it.  Weight bindings survive: a rebound lane replays its
  /// instance again, exactly like an oracle-bound one replays the oracle's.
  void reset();

  /// Execute one dependency level (one oracle cycle) on every lane.  No-op
  /// past the end of the tape (the oracle's drained tail cycles are empty
  /// levels too).
  void step();

  /// Execute `n` levels.
  void run(sim::Cycle n);

  /// Execute the whole tape.
  void run_all();

  [[nodiscard]] sim::Cycle now() const noexcept { return now_; }
  [[nodiscard]] sim::Cycle cycles() const noexcept { return net_->cycles(); }

  /// Lane `lane`'s value of `slot`.  The hot accessor: neither argument is
  /// range-checked (output() and verify_outputs() are).
  [[nodiscard]] Cost value(sim::SlotId slot, std::uint32_t lane = 0) const {
    return slots_[std::size_t{slot} * lanes_ + lane];
  }

  /// Op-lane executions retired (ops per level × lanes).
  [[nodiscard]] std::uint64_t ops_executed() const noexcept {
    return (kind_ops_[0] + kind_ops_[1] + kind_ops_[2]) * lanes_;
  }
  /// Empty dependency levels bypassed by run()/run_all() through the
  /// precomputed skip-list (gated tapes are mostly empty levels); step()
  /// still visits every level, so stepping callers see 0 here.
  [[nodiscard]] std::uint64_t levels_skipped() const noexcept {
    return levels_skipped_;
  }
  /// Single-kind runs the tape was split into at load time.
  [[nodiscard]] std::uint64_t kind_runs() const noexcept {
    return runs_.size();
  }
  [[nodiscard]] const CompiledNetlist& program() const noexcept {
    return *net_;
  }

  /// Activity accounting so far, in op-lane executions (ops × lanes) like
  /// ops_executed(), matching the interpreted RunResult fields bench_all
  /// reads.
  [[nodiscard]] ReplayResult result() const noexcept {
    return {now_, lanes_, ops_executed(), levels_executed_, levels_skipped_,
            kind_ops_[0] * lanes_, kind_ops_[1] * lanes_,
            kind_ops_[2] * lanes_};
  }

  /// Attach a replay observer (borrowed; must outlive the engine).  Only
  /// legal at cycle 0 — reset() first — mirroring sim::Engine's contract;
  /// fires on_replay_begin immediately and again on every reset().  While
  /// any observer is attached, run()/run_all() visit every level instead
  /// of walking the non-empty skip-list, because provenance bind events
  /// land on empty levels too; the detached path is unchanged.  The slot
  /// image observers see is lane-major.
  void add_observer(ReplayObserver* obs);

  /// Install a per-instance weight table on lane `lane` of a parameterised
  /// tape: op `i` replays with `weights[ops[i].param]` instead of the baked
  /// immediate.  The schedule, slots and outputs' *locations* are unchanged
  /// — only the values flowing through them.  Throws std::invalid_argument
  /// if the tape is not parameterised, the lane is out of range or the
  /// table length is not num_params().
  void bind(const std::vector<Cost>& weights, std::uint32_t lane = 0);

  /// Restore lane `lane` to the weight binding the oracle ran with (the
  /// default).  Throws std::invalid_argument for a lane out of range.
  void bind_oracle(std::uint32_t lane = 0);

  /// True while lane `lane` replays the oracle's own weight binding — the
  /// only binding the tape's recorded expectations describe.  Throws
  /// std::out_of_range for a lane out of range.
  [[nodiscard]] bool oracle_bound(std::uint32_t lane = 0) const;

  /// Checked variant of step(): the level runs through the same kernel as
  /// step(), then every op result on every lane is compared against the
  /// oracle value recorded at lowering time.  Returns the first divergence
  /// in tape order, if any — a non-divergent full replay is the op-level
  /// proof of cycle-exact bit-identity with the modular engine.  Throws
  /// std::logic_error unless every lane is oracle-bound: the recorded
  /// expectations describe the oracle's weights only.
  Divergence step_checked();

  /// run_all + step_checked: replay the whole tape, stop after the level
  /// holding the first op-level divergence.
  Divergence run_all_checked();

  /// Compare lane `lane`'s declared outputs with the oracle's observed
  /// values.  Throws std::out_of_range for a lane out of range and
  /// std::logic_error if the lane is not oracle-bound.
  [[nodiscard]] Divergence verify_outputs(std::uint32_t lane = 0) const;

  /// Lane `lane`'s value of output `tag[index]`; throws std::out_of_range
  /// if the output is absent or the lane is out of range.
  [[nodiscard]] Cost output(std::string_view tag, std::uint64_t index,
                            std::uint32_t lane = 0) const;

 private:
  /// Run level `t` (a no-op when empty) on every lane and account for it.
  void exec_level(sim::Cycle t);
  /// Run kind runs [rlo, rhi) on every lane.
  void exec_runs(std::uint32_t rlo, std::uint32_t rhi);
  /// Add runs [rlo, rhi), spanning `levels` executed levels, to the
  /// activity counts.
  void account(std::uint32_t rlo, std::uint32_t rhi, std::uint64_t levels);
  /// First op of ops [lo, hi) whose destination differs from `expected`
  /// on any lane, attributed through the tape's provenance plane.
  [[nodiscard]] Divergence check_level(std::uint32_t lo,
                                       std::uint32_t hi) const;
  void require_lane(std::uint32_t lane, const char* site) const;
  void store_weights(const std::vector<Cost>& weights, std::uint32_t lane);
  void set_oracle_bound(std::uint32_t lane, bool bound);
  void notify_level(sim::Cycle t);
  void notify_end();

  const CompiledNetlist* net_;
  std::uint32_t lanes_;
  /// Lane-major slot file: `slots_[slot*lanes_ + lane]`.
  AlignedVec<Cost> slots_;
  /// Lane-major weight tables on parameterised tapes,
  /// `weights_[param*lanes_ + lane]`; allocated by the first bind().
  AlignedVec<Cost> weights_;
  std::vector<std::uint8_t> oracle_bound_;
  /// Lanes whose binding differs from the oracle's.  While zero, execution
  /// takes the baked-immediate path and never streams `weights_` — the
  /// table is bit-identical to the immediates then, and skipping it keeps
  /// oracle-bound replays compute-bound instead of bandwidth-bound.
  std::uint32_t rebound_lanes_ = 0;
  std::vector<KindRun> runs_;
  /// Ops of each kind in runs [0, r), so accounting for any span of runs
  /// is three subtractions.
  std::vector<std::array<std::uint64_t, 3>> run_kind_prefix_;
  /// CSR over levels into `runs_`: level t executes runs
  /// [level_run_off_[t], level_run_off_[t+1]).
  std::vector<std::uint32_t> level_run_off_;
  /// Skip-list of non-empty dependency levels: run()/run_all() iterate
  /// this instead of paying a per-level comparison on gated tapes' long
  /// empty stretches.
  std::vector<std::uint32_t> live_levels_;
  std::vector<ReplayObserver*> observers_;
  sim::Cycle now_ = 0;
  std::uint64_t levels_executed_ = 0;
  std::uint64_t levels_skipped_ = 0;
  /// Ops executed per lane, by kind, indexed by OpKind (mac, fold, relax).
  std::array<std::uint64_t, 3> kind_ops_{};
};

}  // namespace sysdp::compile
