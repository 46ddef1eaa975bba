// Slot-group liveness over a compiled tape — the analysis half of
// live-range compaction (compile/compact.cpp), exported so other passes
// can consume the same facts.
//
// Two consumers share this header:
//
//   * compact_slots() drives its linear-scan allocator off the group
//     structure and last-touch levels computed here;
//   * analysis::TapeVerifier cross-checks its own per-definition liveness
//     scan against this group-level summary, so the compaction pass and
//     the verifier cannot drift apart silently — a disagreement between
//     the two is itself a finding.
//
// Everything is header-only on purpose: src/analysis does not link
// against sysdp_compile, so the shared analysis must live entirely in
// inline code over compile/program.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "compile/program.hpp"

namespace sysdp::compile {

/// Group-level liveness facts for one tape.  kRelax ops address slot
/// pairs (dst/dst+1, a/a+1), so paired slots form one *group* that lives
/// and dies together; scalar slots are singleton groups.
struct TapeLiveness {
  /// Sentinel for `last`: the group is pinned (a declared output lives in
  /// it) and must survive to the end of the tape.
  static constexpr std::uint32_t kPinned = 0xffffffffu;

  /// base[s] — first slot of the group containing slot s.
  std::vector<std::uint32_t> base;
  /// extent[g] — group size in slots; meaningful only where base[g] == g.
  std::vector<std::uint32_t> extent;
  /// last[g] — last dependency level that reads or writes any slot of
  /// group g, or kPinned; meaningful only where base[g] == g.  A group
  /// nothing ever touches keeps 0 — indistinguishable from "last touched
  /// at level 0" by design, exactly as the compaction pass treats it.
  std::vector<std::uint32_t> last;
};

/// Compute the group structure and last-touch level of every slot group,
/// exactly as compact_slots() sees them.  Safe on any tape whose slot
/// references are in range (callers validating untrusted tapes must bound
/// -check first).
[[nodiscard]] inline TapeLiveness compute_liveness(const CompiledNetlist& net) {
  TapeLiveness lv;
  const std::uint32_t n = net.num_slots;
  lv.base.resize(n);
  lv.extent.assign(n, 0);
  lv.last.assign(n, 0);
  if (n == 0) return lv;

  // Grouping: kRelax addresses dst/dst+1 and a/a+1 as pairs, so those
  // slots must stay contiguous.  joined[s] means s and s+1 share a group;
  // groups are the maximal runs of joined slots.
  std::vector<std::uint8_t> joined(n, 0);
  for (const Op& op : net.ops) {
    if (op.kind == OpKind::kRelax) {
      joined[op.dst] = 1;
      joined[op.a] = 1;
    }
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    lv.base[s] = (s > 0 && joined[s - 1] != 0) ? lv.base[s - 1] : s;
    ++lv.extent[lv.base[s]];
  }

  // Last touch: the latest dependency level that reads or writes any slot
  // of the group.  Output slots are pinned (verify_outputs reads them
  // after the run).
  const auto touch = [&](sim::SlotId s, std::uint32_t lvl) {
    std::uint32_t& l = lv.last[lv.base[s]];
    if (l < lvl) l = lvl;
  };
  const auto cycles = static_cast<std::uint32_t>(net.cycles());
  for (std::uint32_t t = 0; t < cycles; ++t) {
    for (std::uint32_t i = net.cycle_off[t]; i < net.cycle_off[t + 1]; ++i) {
      const Op& op = net.ops[i];
      touch(op.dst, t);  // dst+1 / a+1 share the dst / a group
      touch(op.a, t);
      touch(op.b, t);
      if (op.kind == OpKind::kFold) touch(op.c, t);
    }
  }
  for (const Output& o : net.outputs) {
    lv.last[lv.base[o.slot]] = TapeLiveness::kPinned;
  }
  return lv;
}

}  // namespace sysdp::compile
