// Concrete OpRecorder: turns one oracle run's narration into a
// CompiledNetlist.
//
// The recorder is both halves of the lowering contract:
//
//   * as sim::OpRecorder it receives the narration — lane reads, register
//     binds, semiring ops — from the array models while the serial dense
//     oracle steps;
//   * as sim::EngineObserver it hears the clock: on_cycle closes a
//     dependency level (cycle_off boundary) and applies the two-phase
//     staged binds, exactly when the oracle's commit edge made those
//     values visible.
//
// It shadow-executes everything: each slot carries the concrete value the
// oracle produced for it, every lane() / pending() / output() call is
// verified against the live value the caller just observed, and every op's
// result is recorded as the tape's expected value.  A mis-narrated model
// therefore fails loudly at lowering time with the first inconsistent
// site, instead of producing a tape that silently diverges.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compile/program.hpp"
#include "semiring/cost.hpp"
#include "sim/observer.hpp"
#include "sim/record.hpp"

namespace sysdp::compile {

class Recorder final : public sim::OpRecorder, public sim::EngineObserver {
 public:
  Recorder() = default;

  // --- sim::OpRecorder ----------------------------------------------------
  sim::SlotId constant(std::int64_t value) override;
  sim::SlotId constant_pair(std::int64_t value, std::int64_t arg) override;
  sim::SlotId lane(const void* key, std::int64_t live) override;
  sim::SlotId lane_pair(const void* key, std::int64_t live,
                        std::int64_t arg) override;
  sim::SlotId pending(const void* key, std::int64_t live) override;
  void bind_now(const void* key, sim::SlotId slot) override;
  void bind_staged(const void* key, sim::SlotId slot) override;
  sim::SlotId mac(sim::SlotId base, std::int64_t w, sim::SlotId x) override;
  sim::SlotId fold(sim::SlotId best, sim::SlotId left, sim::SlotId right,
                   std::int64_t local) override;
  sim::SlotId relax(sim::SlotId pair, sim::SlotId kh, std::int64_t edge,
                    std::int64_t station) override;
  void output(std::string_view tag, std::uint64_t index, sim::SlotId slot,
              std::int64_t observed) override;
  void output_arg(std::string_view tag, std::uint64_t index, sim::SlotId pair,
                  std::int64_t observed) override;

  // --- sim::EngineObserver ------------------------------------------------
  /// Clock edge: apply staged binds, close the current dependency level.
  void on_cycle(const sim::Engine& engine, sim::Cycle t) override;

  /// Storage key per provenance lane, indexed by lane id.  Valid after
  /// finish() too — lowering resolves lane names against the captured
  /// netlist once the tape is sealed, one storage-index probe per lane.
  [[nodiscard]] const std::vector<const void*>& lane_key_table() const {
    return lane_key_of_;
  }

  /// Seal the tape.  Call after the oracle run completes; the recorder is
  /// spent afterwards.  With `parameterise`, the tape additionally carries
  /// its parameter plane (one weight parameter per op, initialised to the
  /// oracle binding) so executors can rebind per-instance weight tables.
  [[nodiscard]] CompiledNetlist finish(bool parameterise = false);

 private:
  sim::SlotId alloc(Cost concrete);
  [[nodiscard]] Cost concrete(sim::SlotId slot, const char* site) const;
  void check_live(sim::SlotId slot, std::int64_t live, const char* site) const;
  /// Intern a key seen for the first time; returns its lane id.
  std::uint32_t new_lane(const void* key);
  /// Provenance: one bind event of `lane` at `stamp`, and first-bind-wins
  /// op attribution via the bound slot's defining op.
  void record_bind(std::uint32_t lane, sim::SlotId slot, std::uint32_t stamp);
  /// Point `key`'s lane at `slot` (bind_now and the commit edge), counting
  /// an elided copy when the lane already held a different slot.
  void rebind(const void* key, sim::SlotId slot, std::uint32_t stamp);

  std::vector<Cost> concrete_;          ///< shadow value per slot
  std::vector<std::uint8_t> pair_head_; ///< slot is the value half of a pair
  std::vector<std::pair<const void*, sim::SlotId>> staged_;
  std::unordered_map<std::int64_t, sim::SlotId> const_cache_;
  std::map<std::pair<std::int64_t, std::int64_t>, sim::SlotId>
      const_pair_cache_;
  std::vector<SlotInit> init_;
  AlignedVec<Op> ops_;
  std::vector<Cost> expected_;
  std::vector<std::uint32_t> cycle_off_{0};
  std::vector<Output> outputs_;
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> output_index_;
  std::uint64_t copies_elided_ = 0;
  std::uint64_t consts_interned_ = 0;
  // Lane map and provenance plane: one hash probe per narrated key gives
  // its lane id, and lane_slot_ holds the slot the lane is bound to — the
  // only binding table.  Bind events in narration order, split by stamp:
  // stamp 0 = reset (first touches, interleaved with the run) and stamp
  // t+1 = committed at end of cycle t (nondecreasing).  Then the defining
  // op of each slot, and the lane each op's dst first bound to.
  std::unordered_map<const void*, std::uint32_t> lane_id_;
  std::vector<const void*> lane_key_of_;
  std::vector<std::uint32_t> lane_slot_;  ///< bound slot per lane
  std::vector<ProvenanceBind> reset_binds_;
  std::vector<ProvenanceBind> binds_;
  std::vector<std::uint32_t> slot_op_;  ///< defining op per slot, or kNone
  std::vector<std::uint32_t> op_lane_;  ///< parallel to ops_
  bool finished_ = false;
};

}  // namespace sysdp::compile
