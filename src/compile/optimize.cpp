#include "compile/optimize.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

namespace sysdp::compile {

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

void require_uncompacted(const CompiledNetlist& net, const char* pass) {
  if (net.compacted()) {
    throw std::logic_error(std::string("compile::") + pass +
                           ": tape is compacted — slot reuse breaks the SSA "
                           "reasoning; optimize before compact_slots()");
  }
}

/// Visit every slot op `i` reads (mac: a,b; fold: a,b,c; relax: a,a+1,b).
template <typename Fn>
void for_each_read(const Op& op, Fn&& fn) {
  fn(op.a);
  if (op.kind == OpKind::kRelax) fn(op.a + 1);
  fn(op.b);
  if (op.kind == OpKind::kFold) fn(op.c);
}

/// Visit every slot op `i` writes (relax writes the pair half too).
template <typename Fn>
void for_each_write(const Op& op, Fn&& fn) {
  fn(op.dst);
  if (op.kind == OpKind::kRelax) fn(op.dst + 1);
}

}  // namespace

std::uint64_t prune_dead_ops(CompiledNetlist& net) {
  require_uncompacted(net, "prune_dead_ops");
  const std::uint64_t nops = net.ops.size();
  if (nops == 0) return 0;
  const std::uint32_t n = net.num_slots;

  // SSA: at most one defining op per slot (init entries carry no op).
  constexpr std::int64_t kNoDef = -1;
  std::vector<std::int64_t> def_op(n, kNoDef);
  for (std::uint64_t i = 0; i < nops; ++i) {
    for_each_write(net.ops[i], [&](sim::SlotId s) {
      if (s < n) def_op[s] = static_cast<std::int64_t>(i);
    });
  }

  // Roots: outputs and provenance-bound slots — everything the replay's
  // consumers (verify_outputs and the waveform adapters) can observe.
  std::vector<std::uint8_t> live(nops, 0);
  std::vector<std::uint64_t> work;
  const auto root = [&](sim::SlotId s) {
    if (s >= n || def_op[s] < 0) return;
    const auto d = static_cast<std::uint64_t>(def_op[s]);
    if (live[d] == 0) {
      live[d] = 1;
      work.push_back(d);
    }
  };
  for (const Output& o : net.outputs) root(o.slot);
  for (const ProvenanceBind& b : net.provenance.binds) root(b.slot);
  while (!work.empty()) {
    const std::uint64_t i = work.back();
    work.pop_back();
    for_each_read(net.ops[i], root);
  }

  std::uint64_t dead = 0;
  for (std::uint64_t i = 0; i < nops; ++i) {
    if (live[i] == 0) ++dead;
  }
  if (dead == 0) return 0;

  // Filter the op tape and every parallel plane, rebuilding the CSR level
  // index level by level so op order inside a level is untouched.
  const bool has_exp = net.expected.size() == nops;
  const bool has_lane = net.provenance.op_lane.size() == nops;
  AlignedVec<Op> ops2;
  ops2.reserve(nops - dead);
  std::vector<Cost> exp2;
  std::vector<std::uint32_t> lane2;
  if (has_exp) exp2.reserve(nops - dead);
  if (has_lane) lane2.reserve(nops - dead);
  std::vector<std::uint32_t> off2(net.cycle_off.size(), 0);
  for (std::size_t t = 0; t + 1 < net.cycle_off.size(); ++t) {
    for (std::uint32_t i = net.cycle_off[t]; i < net.cycle_off[t + 1]; ++i) {
      if (live[i] == 0) continue;
      ops2.push_back(net.ops[i]);
      if (has_exp) exp2.push_back(net.expected[i]);
      if (has_lane) lane2.push_back(net.provenance.op_lane[i]);
    }
    off2[t + 1] = static_cast<std::uint32_t>(ops2.size());
  }
  net.ops = std::move(ops2);
  net.cycle_off = std::move(off2);
  if (has_exp) net.expected = std::move(exp2);
  if (has_lane) net.provenance.op_lane = std::move(lane2);
  return dead;
}

std::uint64_t fuse_levels(CompiledNetlist& net, bool allow_chain_edges) {
  require_uncompacted(net, "fuse_levels");
  const std::uint64_t cycles = net.cycles();
  if (cycles <= 1) return 0;
  const std::uint32_t n = net.num_slots;

  // One forward walk: a level joins the current fused group unless an op
  // in it reads a value the group defines through a disallowed edge, or
  // the group would outgrow the cap.  def_group/def_kind track, per slot,
  // which group (and kind) last defined it — SSA makes "last" unique.
  std::vector<std::uint32_t> def_group(n, kNone);
  std::vector<std::uint8_t> def_kind(n, 0);
  std::vector<std::uint32_t> new_of(cycles, 0);
  std::uint32_t group = 0;
  std::uint32_t group_ops = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    const std::uint32_t width = hi - lo;
    bool split = false;
    if (t > 0 && width > 0) {
      if (group_ops > 0 && group_ops + width > kMaxFusedOps) {
        split = true;
      } else {
        for (std::uint32_t i = lo; i < hi && !split; ++i) {
          const Op& op = net.ops[i];
          for_each_read(op, [&](sim::SlotId s) {
            if (s < n && def_group[s] == group &&
                (!allow_chain_edges ||
                 def_kind[s] != static_cast<std::uint8_t>(op.kind))) {
              split = true;
            }
          });
        }
      }
    }
    if (split) {
      ++group;
      group_ops = 0;
    }
    new_of[t] = group;
    group_ops += width;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Op& op = net.ops[i];
      for_each_write(op, [&](sim::SlotId s) {
        if (s < n) {
          def_group[s] = group;
          def_kind[s] = static_cast<std::uint8_t>(op.kind);
        }
      });
    }
  }

  const std::uint64_t new_cycles = group + 1;
  if (new_cycles == cycles) return 0;

  // Levels concatenate in order, so the fused CSR end offset of group g is
  // the last member level's end offset; the op array itself is untouched.
  std::vector<std::uint32_t> off2(new_cycles + 1, 0);
  for (std::uint64_t t = 0; t < cycles; ++t) {
    off2[new_of[t] + 1] = net.cycle_off[t + 1];
  }
  net.cycle_off = std::move(off2);

  // Bind stamps: stamp t+1 samples the end of old level t, which now ends
  // (at the latest) with fused level new_of[t] — same value under SSA, the
  // slot's one definition is at or before the sample either way.
  for (ProvenanceBind& b : net.provenance.binds) {
    if (b.stamp == 0) continue;
    const std::uint64_t t =
        std::min<std::uint64_t>(b.stamp - 1, cycles - 1);
    b.stamp = new_of[t] + 1;
  }
  return cycles - new_cycles;
}

std::uint64_t reorder_levels(CompiledNetlist& net) {
  require_uncompacted(net, "reorder_levels");
  const std::uint64_t cycles = net.cycles();
  const std::uint32_t n = net.num_slots;
  const bool has_exp = net.expected.size() == net.ops.size();
  const bool has_lane = net.provenance.op_lane.size() == net.ops.size();

  // Per-level scratch, allocated once: in-level def position per slot,
  // reset via the touched list instead of a full clear.
  std::vector<std::uint32_t> def_pos(n, kNone);
  std::vector<sim::SlotId> touched;
  std::vector<std::uint32_t> perm;
  AlignedVec<Op> ops_tmp;
  std::vector<Cost> exp_tmp;
  std::vector<std::uint32_t> lane_tmp;

  std::uint64_t changed_levels = 0;
  for (std::uint64_t t = 0; t < cycles; ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    const std::uint32_t width = hi - lo;
    if (width < 2) continue;

    touched.clear();
    for (std::uint32_t i = lo; i < hi; ++i) {
      for_each_write(net.ops[i], [&](sim::SlotId s) {
        if (s < n && def_pos[s] == kNone) touched.push_back(s);
        if (s < n) def_pos[s] = i;
      });
    }
    // In-level edges: which kinds participate in a chain, and whether any
    // edge crosses kinds (then order is semantic and the level must stay
    // exactly as recorded).
    std::array<bool, 3> kind_chained{false, false, false};
    bool cross_kind = false;
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Op& op = net.ops[i];
      for_each_read(op, [&](sim::SlotId s) {
        if (s >= n || def_pos[s] == kNone) return;
        const Op& def = net.ops[def_pos[s]];
        if (def.kind != op.kind) cross_kind = true;
        kind_chained[static_cast<std::size_t>(def.kind)] = true;
        kind_chained[static_cast<std::size_t>(op.kind)] = true;
      });
    }
    for (const sim::SlotId s : touched) def_pos[s] = kNone;
    if (cross_kind) continue;

    // Kind-major stable partition (legal: in-level chains join same-kind
    // ops only, and their relative order survives a stable partition),
    // then slot-ascending order inside runs free of chain endpoints.
    perm.resize(width);
    std::uint32_t next = 0;
    for (std::uint8_t k = 0; k < 3; ++k) {
      const std::uint32_t run_lo = next;
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (static_cast<std::uint8_t>(net.ops[i].kind) == k) {
          perm[next++] = i;
        }
      }
      if (!kind_chained[k]) {
        std::stable_sort(perm.begin() + run_lo, perm.begin() + next,
                         [&](std::uint32_t a, std::uint32_t b) {
                           return net.ops[a].dst < net.ops[b].dst;
                         });
      }
    }
    bool identity = true;
    for (std::uint32_t j = 0; j < width && identity; ++j) {
      identity = perm[j] == lo + j;
    }
    if (identity) continue;

    ops_tmp.assign(width, Op{});
    if (has_exp) exp_tmp.resize(width);
    if (has_lane) lane_tmp.resize(width);
    for (std::uint32_t j = 0; j < width; ++j) {
      ops_tmp[j] = net.ops[perm[j]];
      if (has_exp) exp_tmp[j] = net.expected[perm[j]];
      if (has_lane) lane_tmp[j] = net.provenance.op_lane[perm[j]];
    }
    std::copy(ops_tmp.begin(), ops_tmp.end(), net.ops.begin() + lo);
    if (has_exp) {
      std::copy(exp_tmp.begin(), exp_tmp.end(), net.expected.begin() + lo);
    }
    if (has_lane) {
      std::copy(lane_tmp.begin(), lane_tmp.end(),
                net.provenance.op_lane.begin() + lo);
    }
    ++changed_levels;
  }
  return changed_levels;
}

OptimizeStats optimize_tape(CompiledNetlist& net, const OptimizeOptions& opt) {
  OptimizeStats st;
  st.level = opt.level;
  st.ops_before = net.num_ops();
  st.levels_before = net.cycles();
  if (opt.level > 0) {
    require_uncompacted(net, "optimize_tape");
    st.ops_pruned = prune_dead_ops(net);
    st.levels_fused = fuse_levels(net, opt.level >= 2);
    st.levels_reordered = reorder_levels(net);
    net.stats.opt_level = static_cast<std::uint8_t>(opt.level);
    net.stats.ops_pruned = st.ops_pruned;
    net.stats.levels_fused = st.levels_fused;
  }
  st.ops_after = net.num_ops();
  st.levels_after = net.cycles();
  return st;
}

}  // namespace sysdp::compile
