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
// oracle produced for it, every lane() / output() call is verified against
// the live value the caller just observed, and every op's result becomes
// the tape's expected value (gathered from the destination slots at
// finish(): on an SSA tape they are the same numbers).  A mis-narrated
// model therefore fails loudly at lowering time with the first
// inconsistent site, instead of producing a tape that silently diverges.
//
// Buffers are sized once: the array's reserve_ops() announcement reserves
// the op tape, the per-slot records and the bind log, so a run with an
// exact announcement never regrows them.  Storage keys
// map to lanes through a flat open-addressing table (one probe per
// narrated key, no node allocation).
//
// Lanes are named from the arrays' declare_lane() declarations, joined to
// the lanes in lane order at finish(): one hash probe per lane, no
// netlist.
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
  /// With `name_lanes` false, declare_lane() is ignored and every lane
  /// stays unnamed ("lane<N>").
  explicit Recorder(bool name_lanes = true);

  // --- sim::OpRecorder ----------------------------------------------------
  void reserve_ops(std::uint64_t ops) override;
  void declare_lane(const void* key, std::string_view module,
                    std::string_view label) override;
  sim::SlotId constant(std::int64_t value) override;
  sim::SlotId constant_pair(std::int64_t value, std::int64_t arg) override;
  sim::SlotId lane(const void* key, std::int64_t live) override;
  sim::SlotId lane_pair(const void* key, std::int64_t live,
                        std::int64_t arg) override;
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

  /// Seal the tape.  Call after the oracle run completes; the recorder is
  /// spent afterwards.  With `parameterise`, the tape additionally carries
  /// its parameter plane (one weight parameter per op, initialised to the
  /// oracle binding) so executors can rebind per-instance weight tables.
  /// Each lane whose key was declared takes the declaration's module and
  /// label; module names are interned in first-seen lane order, so lanes
  /// whose writers share a name share one module id.
  [[nodiscard]] CompiledNetlist finish(bool parameterise = false);

 private:
  /// One cell of the SSA slot file as the recorder shadows it.
  struct SlotRecord {
    Cost value = 0;  ///< concrete oracle value
    /// Lane the slot was first bound to, or kNone.  For an op's dst this
    /// is the op's provenance attribution, gathered at finish().
    std::uint32_t lane = Provenance::kNone;
    std::uint8_t pair_head = 0;  ///< value half of a (value, arg) pair
  };
  /// A declared writer module and port label (declare_lane).
  struct LaneName {
    std::string module;
    std::string label;
  };
  /// One lane-table entry: a storage key, its lane id and the slot the
  /// lane is bound to (kNone until the first bind).  key == nullptr marks
  /// an empty entry.
  struct LaneEntry {
    const void* key = nullptr;
    std::uint32_t lane = 0;
    sim::SlotId slot = Provenance::kNone;
  };

  sim::SlotId alloc(Cost concrete);
  [[nodiscard]] Cost concrete(sim::SlotId slot, const char* site) const;
  void check_live(sim::SlotId slot, std::int64_t live, const char* site) const;
  /// Entry for `key`, interning it as a fresh lane (slot kNone) if it was
  /// never narrated before.
  LaneEntry& lane_entry(const void* key);
  /// Intern `key` as the next lane, doubling the table first if it would
  /// pass 3/4 full.
  LaneEntry& add_lane(const void* key);
  /// The empty entry `key`'s probe sequence ends at.
  LaneEntry& free_entry(const void* key);
  /// Append `op` (its dst freshly allocated) as the next tape op; returns
  /// the dst.
  sim::SlotId push_op(Op op);
  /// Provenance: one bind event of `lane` at `stamp`, and first-bind-wins
  /// attribution of the bound slot (and so of the op defining it).
  void record_bind(LaneEntry& lane, sim::SlotId slot, std::uint32_t stamp);
  /// Point `key`'s lane at `slot` (bind_now and the commit edge), counting
  /// an elided copy when the lane already held a different slot.
  void rebind(const void* key, sim::SlotId slot, std::uint32_t stamp);
  /// Join the declared names to the lanes (finish); returns the number of
  /// lanes named.
  std::uint64_t join_names(Provenance& prov);

  std::vector<SlotRecord> slots_;
  std::vector<std::pair<const void*, sim::SlotId>> staged_;
  std::unordered_map<std::int64_t, sim::SlotId> const_cache_;
  std::map<std::pair<std::int64_t, std::int64_t>, sim::SlotId>
      const_pair_cache_;
  std::vector<SlotInit> init_;
  AlignedVec<Op> ops_;
  std::vector<std::uint32_t> cycle_off_{0};
  std::vector<Output> outputs_;
  /// Declared-output index: per distinct tag (a handful per design, in
  /// first-seen order), the position in outputs_ of each declared index.
  std::vector<std::pair<std::string,
                        std::unordered_map<std::uint64_t, std::size_t>>>
      output_index_;
  std::uint64_t copies_elided_ = 0;
  std::uint64_t consts_interned_ = 0;
  // Lane map and provenance plane: a power-of-two open-addressing table
  // (linear probing, at most 3/4 full) gives each narrated key its lane
  // id and bound slot — the only binding table.  Bind events in narration
  // order, split by stamp: stamp 0 = reset (first touches, interleaved
  // with the run) and stamp t+1 = committed at end of cycle t
  // (nondecreasing).
  std::vector<LaneEntry> lane_table_;
  unsigned lane_shift_ = 0;  ///< 64 - log2(table size)
  std::vector<const void*> lane_key_of_;  ///< storage key per lane id
  std::vector<ProvenanceBind> reset_binds_;
  std::vector<ProvenanceBind> binds_;
  /// Declared names by storage key (first declaration wins).
  std::unordered_map<const void*, LaneName> lane_names_;
  bool name_lanes_ = true;
  bool finished_ = false;
};

}  // namespace sysdp::compile
