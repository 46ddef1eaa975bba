#include "compile/recorder.hpp"

#include <limits>
#include <stdexcept>

#include "semiring/closed_semiring.hpp"
#include "semiring/kernels.hpp"

namespace sysdp::compile {

namespace {

[[noreturn]] void bail(const char* site, const std::string& what) {
  throw std::logic_error(std::string("compile::Recorder::") + site + ": " +
                         what);
}

}  // namespace

sim::SlotId Recorder::alloc(Cost value) {
  if (concrete_.size() >= std::numeric_limits<sim::SlotId>::max() - 1) {
    bail("alloc", "slot file exceeds 32-bit index space");
  }
  concrete_.push_back(value);
  pair_head_.push_back(0);
  slot_op_.push_back(Provenance::kNone);
  return static_cast<sim::SlotId>(concrete_.size() - 1);
}

std::uint32_t Recorder::new_lane(const void* key) {
  const auto lane = static_cast<std::uint32_t>(lane_key_of_.size());
  lane_id_.emplace(key, lane);
  lane_key_of_.push_back(key);
  lane_slot_.push_back(Provenance::kNone);
  return lane;
}

void Recorder::record_bind(std::uint32_t lane, sim::SlotId slot,
                           std::uint32_t stamp) {
  // Rebinding a lane to the slot it already points at carries no waveform
  // information — skip the event, mirroring the copy-elision dedup.
  if (lane_slot_[lane] == slot) return;
  lane_slot_[lane] = slot;
  if (stamp == 0) {
    reset_binds_.push_back({stamp, lane, slot});
  } else {
    // Nonzero stamps come from the cycle index, which only grows, so the
    // committed log stays sorted by construction.
    if (!binds_.empty() && binds_.back().stamp > stamp) {
      bail("record_bind", "bind stamp went backwards");
    }
    binds_.push_back({stamp, lane, slot});
  }
  // First-bind-wins op attribution: the op that defined this slot belongs
  // to the module whose register first captures its result.
  const std::uint32_t def = slot_op_[slot];
  if (def != Provenance::kNone && op_lane_[def] == Provenance::kNone) {
    op_lane_[def] = lane;
  }
}

void Recorder::rebind(const void* key, sim::SlotId slot, std::uint32_t stamp) {
  const auto it = lane_id_.find(key);
  if (it == lane_id_.end()) {
    record_bind(new_lane(key), slot, stamp);
    return;
  }
  if (lane_slot_[it->second] != slot) ++copies_elided_;
  record_bind(it->second, slot, stamp);
}

Cost Recorder::concrete(sim::SlotId slot, const char* site) const {
  if (slot >= concrete_.size()) bail(site, "slot id out of range");
  return concrete_[slot];
}

void Recorder::check_live(sim::SlotId slot, std::int64_t live,
                          const char* site) const {
  if (concrete(slot, site) != live) {
    bail(site,
         "narrated binding disagrees with the oracle's live value (slot "
         "holds " +
             std::to_string(concrete_[slot]) + ", oracle observed " +
             std::to_string(live) + ") — a model mis-narrated a write");
  }
}

sim::SlotId Recorder::constant(std::int64_t value) {
  const auto it = const_cache_.find(value);
  if (it != const_cache_.end()) {
    ++consts_interned_;
    return it->second;
  }
  const sim::SlotId s = alloc(value);
  init_.push_back({s, value});
  const_cache_.emplace(value, s);
  return s;
}

sim::SlotId Recorder::constant_pair(std::int64_t value, std::int64_t arg) {
  const auto key = std::make_pair(value, arg);
  const auto it = const_pair_cache_.find(key);
  if (it != const_pair_cache_.end()) {
    ++consts_interned_;
    return it->second;
  }
  const sim::SlotId s = alloc(value);  // arg must land at s + 1
  const sim::SlotId a = alloc(arg);
  pair_head_[s] = 1;
  init_.push_back({s, value});
  init_.push_back({a, arg});
  const_pair_cache_.emplace(key, s);
  return s;
}

sim::SlotId Recorder::lane(const void* key, std::int64_t live) {
  const auto it = lane_id_.find(key);
  if (it != lane_id_.end()) {
    const sim::SlotId s = lane_slot_[it->second];
    check_live(s, live, "lane");
    return s;
  }
  // First touch: the oracle observed this lane's reset value — intern it,
  // so initial state is captured without any per-array bookkeeping.  The
  // bind carries stamp 0: the register has held this value since reset.
  const sim::SlotId s = constant(live);
  record_bind(new_lane(key), s, 0);
  return s;
}

sim::SlotId Recorder::lane_pair(const void* key, std::int64_t live,
                                std::int64_t arg) {
  const auto it = lane_id_.find(key);
  if (it != lane_id_.end()) {
    const sim::SlotId s = lane_slot_[it->second];
    if (pair_head_[s] == 0) {
      bail("lane_pair", "lane is bound to a scalar slot");
    }
    check_live(s, live, "lane_pair");
    check_live(s + 1, arg, "lane_pair(arg)");
    return s;
  }
  const sim::SlotId s = constant_pair(live, arg);
  record_bind(new_lane(key), s, 0);
  return s;
}

sim::SlotId Recorder::pending(const void* key, std::int64_t live) {
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->first == key) {
      check_live(it->second, live, "pending");
      return it->second;
    }
  }
  return lane(key, live);
}

void Recorder::bind_now(const void* key, sim::SlotId slot) {
  (void)concrete(slot, "bind_now");
  // During cycle t the cycle index holds t+1 entries, so this stamp is
  // t+1 — the VCD time at which the interpreted run reports the change.
  rebind(key, slot, static_cast<std::uint32_t>(cycle_off_.size()));
}

void Recorder::bind_staged(const void* key, sim::SlotId slot) {
  (void)concrete(slot, "bind_staged");
  staged_.emplace_back(key, slot);
}

sim::SlotId Recorder::mac(sim::SlotId base, std::int64_t w, sim::SlotId x) {
  const Cost result =
      kern::mac<MinPlus>(concrete(base, "mac"), w, concrete(x, "mac"));
  const sim::SlotId dst = alloc(result);
  ops_.push_back({dst, base, x, 0, w, OpKind::kMac,
                  static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(result);
  slot_op_[dst] = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

sim::SlotId Recorder::fold(sim::SlotId best, sim::SlotId left,
                           sim::SlotId right, std::int64_t local) {
  const Cost cand = kern::interval_candidate(
      concrete(left, "fold"), concrete(right, "fold"), local);
  const Cost prev = concrete(best, "fold");
  const Cost result = cand < prev ? cand : prev;
  const sim::SlotId dst = alloc(result);
  ops_.push_back({dst, best, left, right, local, OpKind::kFold,
                  static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(result);
  slot_op_[dst] = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

sim::SlotId Recorder::relax(sim::SlotId pair, sim::SlotId kh,
                            std::int64_t edge, std::int64_t station) {
  if (pair_head_[pair] == 0) bail("relax", "source is not a pair slot");
  const Cost cand = sat_add(concrete(kh, "relax"), edge);
  const Cost prev = concrete(pair, "relax");
  const bool better = cand < prev;
  const sim::SlotId dst = alloc(better ? cand : prev);
  const sim::SlotId darg =
      alloc(better ? station : concrete(pair + 1, "relax(arg)"));
  (void)darg;  // adjacency is guaranteed by consecutive alloc calls
  pair_head_[dst] = 1;
  ops_.push_back({dst, pair, kh, static_cast<sim::SlotId>(station), edge,
                  OpKind::kRelax, static_cast<std::uint32_t>(ops_.size())});
  expected_.push_back(concrete_[dst]);
  slot_op_[dst] = static_cast<std::uint32_t>(ops_.size() - 1);
  op_lane_.push_back(Provenance::kNone);
  return dst;
}

void Recorder::output(std::string_view tag, std::uint64_t index,
                      sim::SlotId slot, std::int64_t observed) {
  check_live(slot, observed, "output");
  const auto key = std::make_pair(std::string(tag), index);
  const auto it = output_index_.find(key);
  if (it != output_index_.end()) {
    outputs_[it->second].slot = slot;
    outputs_[it->second].expected = observed;
    return;
  }
  output_index_.emplace(key, outputs_.size());
  outputs_.push_back({key.first, index, slot, observed});
}

void Recorder::output_arg(std::string_view tag, std::uint64_t index,
                          sim::SlotId pair, std::int64_t observed) {
  if (pair_head_[pair] == 0) bail("output_arg", "slot is not a pair head");
  output(tag, index, pair + 1, observed);
}

void Recorder::on_cycle(const sim::Engine& engine, sim::Cycle t) {
  (void)engine;
  (void)t;
  // The commit edge: staged rebinds become visible, in narration order
  // (each lane is staged at most once per cycle by two-phase discipline).
  // Bind stamps are taken before the level closes, so a commit during
  // cycle t lands at stamp t+1 like the bind_now path.
  for (const auto& [key, slot] : staged_) {
    rebind(key, slot, static_cast<std::uint32_t>(cycle_off_.size()));
  }
  staged_.clear();
  cycle_off_.push_back(static_cast<std::uint32_t>(ops_.size()));
}

CompiledNetlist Recorder::finish(bool parameterise) {
  if (finished_) bail("finish", "recorder already finished");
  finished_ = true;
  if (!staged_.empty()) {
    bail("finish", "staged binds left dangling — oracle stopped mid-cycle");
  }
  if (ops_.size() != expected_.size() ||
      cycle_off_.back() != ops_.size()) {
    bail("finish", "op tape and cycle index disagree");
  }
  CompiledNetlist net;
  net.semiring = TapeSemiring::kMinPlus;
  net.num_slots = static_cast<std::uint32_t>(concrete_.size());
  net.init = std::move(init_);
  net.ops = std::move(ops_);
  net.cycle_off = std::move(cycle_off_);
  net.expected = std::move(expected_);
  net.outputs = std::move(outputs_);
  if (parameterise) {
    // The oracle binding: one parameter per op, holding the weight the
    // oracle ran with.  op.param already names each op's parameter.
    net.parameterised = true;
    net.params.reserve(net.ops.size());
    for (const Op& op : net.ops) net.params.push_back(op.w);
  }
  // Provenance plane: unresolved lane records (lowering resolves names
  // against the captured netlist once the oracle run is sealed), bind
  // events sorted by stamp with narration order kept within one stamp —
  // the stamp-0 first-touch events, then the committed ones, each log
  // already in that order — and the per-op lane attribution.
  net.provenance.lanes.resize(lane_key_of_.size());
  for (std::size_t i = 0; i < net.provenance.lanes.size(); ++i) {
    net.provenance.lanes[i].label = "lane" + std::to_string(i);
  }
  net.provenance.binds = std::move(reset_binds_);
  net.provenance.binds.insert(net.provenance.binds.end(), binds_.begin(),
                              binds_.end());
  net.provenance.op_lane = std::move(op_lane_);
  net.stats.copies_elided = copies_elided_;
  net.stats.consts_interned = consts_interned_;
  net.stats.lanes_bound = lane_key_of_.size();
  return net;
}

}  // namespace sysdp::compile
