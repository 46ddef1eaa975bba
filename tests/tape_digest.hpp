// All-field tape digest shared by the golden-tape tests.
//
// Lowering changes may reorganise how a tape is recorded, verified or
// compacted; the tapes themselves may not change, byte for byte.  Golden
// tests pin that down with a digest of every field of a lowered
// compile::CompiledNetlist, computed once on a known-good build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "compile/program.hpp"

namespace sysdp::golden {

// FNV-1a over every field of a lowered tape: ops, levels, slot inits,
// oracle values, outputs, the parameter plane, the provenance plane and
// the lowering statistics.  Fields are hashed one by one (never raw
// struct bytes, which would include padding).
class TapeHasher {
 public:
  template <typename T>
  void add(const T& x) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&x);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char ch : s) add(ch);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// With `names` false the digest skips the lane names — the module table,
/// each lane's module, label, module id and named flag, and
/// TapeStats::named_lanes — and still hashes everything else, the lane
/// count, bind events and op attribution included: two tapes with equal
/// name-blind digests differ at most in how their lanes are named.
inline std::uint64_t tape_digest(const compile::CompiledNetlist& net,
                                 bool names = true) {
  TapeHasher h;
  // One constant byte where tapes once carried a semiring tag, so the
  // recorded golden digests keep their values.
  h.add(std::uint8_t{0});
  h.add(net.num_slots);
  h.add(net.init.size());
  for (const auto& in : net.init) {
    h.add(in.slot);
    h.add(in.value);
  }
  h.add(net.ops.size());
  for (const auto& op : net.ops) {
    h.add(op.dst);
    h.add(op.a);
    h.add(op.b);
    h.add(op.c);
    h.add(op.w);
    h.add(op.kind);
    h.add(op.param);
  }
  h.add(net.cycle_off.size());
  for (const auto off : net.cycle_off) h.add(off);
  h.add(net.expected.size());
  for (const auto v : net.expected) h.add(v);
  h.add(net.outputs.size());
  for (const auto& out : net.outputs) {
    h.add(out.tag);
    h.add(out.index);
    h.add(out.slot);
    h.add(out.expected);
  }
  h.add(net.parameterised);
  h.add(net.params.size());
  for (const auto p : net.params) h.add(p);
  const auto& prov = net.provenance;
  if (names) {
    h.add(prov.modules.size());
    for (const auto& m : prov.modules) h.add(m);
  }
  h.add(prov.lanes.size());
  if (names) {
    for (const auto& lane : prov.lanes) {
      h.add(lane.module);
      h.add(lane.label);
      h.add(lane.module_id);
      h.add(lane.named);
    }
  }
  h.add(prov.binds.size());
  for (const auto& b : prov.binds) {
    h.add(b.stamp);
    h.add(b.lane);
    h.add(b.slot);
  }
  h.add(prov.op_lane.size());
  for (const auto l : prov.op_lane) h.add(l);
  const auto& st = net.stats;
  for (const std::uint64_t x :
       {st.copies_elided, st.consts_interned, st.lanes_bound,
        names ? st.named_lanes : 0, st.oracle_active_evals,
        st.oracle_dense_evals, st.oracle_busy_steps, st.slots_uncompacted,
        st.ops_pruned, st.levels_fused}) {
    h.add(x);
  }
  h.add(st.compacted);
  h.add(st.opt_level);
  return h.value();
}

}  // namespace sysdp::golden
