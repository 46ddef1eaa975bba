#include "compile/recorder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "semiring/closed_semiring.hpp"
#include "semiring/kernels.hpp"

namespace sysdp::compile {

namespace {

[[noreturn]] void bail(const char* site, const std::string& what) {
  throw std::logic_error(std::string("compile::Recorder::") + site + ": " +
                         what);
}

[[noreturn]] void live_mismatch(const char* site, Cost held,
                                std::int64_t live) {
  bail(site,
       "narrated binding disagrees with the oracle's live value (slot "
       "holds " +
           std::to_string(held) + ", oracle observed " +
           std::to_string(live) + ") — a model mis-narrated a write");
}

constexpr unsigned kInitialLaneBits = 10;  ///< initial table: 2^10 entries

/// Fibonacci hashing: storage keys are strided addresses inside module
/// arenas, the multiply spreads them and the top bits index the table.
std::size_t lane_hash(const void* key, unsigned shift) {
  return static_cast<std::size_t>(
      (reinterpret_cast<std::uintptr_t>(key) * 0x9E3779B97F4A7C15ull) >>
      shift);
}

}  // namespace

Recorder::Recorder(bool name_lanes)
    : lane_table_(std::size_t{1} << kInitialLaneBits),
      lane_shift_(64 - kInitialLaneBits),
      name_lanes_(name_lanes) {}

void Recorder::reserve_ops(std::uint64_t ops) {
  if (ops >= std::numeric_limits<sim::SlotId>::max()) {
    bail("reserve_ops", "announced op count exceeds the 32-bit slot space");
  }
  const auto n = static_cast<std::size_t>(ops);
  // Every op defines one slot (two for a relax pair) and its result is
  // bound to a lane about once (up to ~1.5 times on Design 1), so these
  // bounds hold every shipped family without regrowth.
  ops_.reserve(n);
  slots_.reserve(slots_.size() + 2 * n);
  binds_.reserve(2 * n);
}

void Recorder::declare_lane(const void* key, std::string_view module,
                            std::string_view label) {
  if (key == nullptr) bail("declare_lane", "null storage key");
  if (label.empty()) bail("declare_lane", "empty port label");
  if (!name_lanes_) return;
  lane_names_.try_emplace(key, LaneName{std::string(module),
                                        std::string(label)});
}

// The per-narration helpers (alloc, push_op, lane_entry, record_bind,
// rebind, concrete, check_live) run several times per recorded op.  Their
// error paths make the compiler keep them out of line; they are forced
// inline instead, which measurably shortens every narration call.

[[gnu::always_inline]] inline sim::SlotId Recorder::alloc(Cost value) {
  if (slots_.size() >= std::numeric_limits<sim::SlotId>::max() - 1) {
    bail("alloc", "slot file exceeds 32-bit index space");
  }
  slots_.push_back({value, Provenance::kNone, 0});
  return static_cast<sim::SlotId>(slots_.size() - 1);
}

[[gnu::always_inline]] inline sim::SlotId Recorder::push_op(Op op) {
  const auto i = static_cast<std::uint32_t>(ops_.size());
  op.param = i;
  ops_.push_back(op);
  return op.dst;
}

[[gnu::always_inline]] inline Recorder::LaneEntry& Recorder::lane_entry(
    const void* key) {
  if (key == nullptr) bail("lane", "null storage key");
  const std::size_t mask = lane_table_.size() - 1;
  for (std::size_t i = lane_hash(key, lane_shift_);; i = (i + 1) & mask) {
    LaneEntry& e = lane_table_[i];
    if (e.key == key) return e;
    if (e.key == nullptr) return add_lane(key);
  }
}

Recorder::LaneEntry& Recorder::add_lane(const void* key) {
  // Keep the table at most 3/4 full: probe runs stay short and the table
  // small enough to stay cache-resident next to the oracle's own state.
  if (4 * (lane_key_of_.size() + 1) > 3 * lane_table_.size()) {
    std::vector<LaneEntry> old(2 * lane_table_.size());
    old.swap(lane_table_);
    --lane_shift_;
    for (const LaneEntry& e : old) {
      if (e.key != nullptr) free_entry(e.key) = e;
    }
  }
  LaneEntry& e = free_entry(key);
  e.key = key;
  e.lane = static_cast<std::uint32_t>(lane_key_of_.size());
  lane_key_of_.push_back(key);
  return e;
}

Recorder::LaneEntry& Recorder::free_entry(const void* key) {
  const std::size_t mask = lane_table_.size() - 1;
  std::size_t i = lane_hash(key, lane_shift_);
  while (lane_table_[i].key != nullptr) i = (i + 1) & mask;
  return lane_table_[i];
}

[[gnu::always_inline]] inline void Recorder::record_bind(
    LaneEntry& lane, sim::SlotId slot, std::uint32_t stamp) {
  // Rebinding a lane to the slot it already points at carries no waveform
  // information — skip the event, mirroring the copy-elision dedup.
  if (lane.slot == slot) return;
  lane.slot = slot;
  if (stamp == 0) {
    reset_binds_.push_back({stamp, lane.lane, slot});
  } else {
    // Nonzero stamps come from the cycle index, which only grows, so the
    // committed log stays sorted by construction.
    if (!binds_.empty() && binds_.back().stamp > stamp) {
      bail("record_bind", "bind stamp went backwards");
    }
    binds_.push_back({stamp, lane.lane, slot});
  }
  // First-bind-wins attribution: the op that defined this slot belongs to
  // the module whose register first captures its result.
  SlotRecord& rec = slots_[slot];
  if (rec.lane == Provenance::kNone) rec.lane = lane.lane;
}

[[gnu::always_inline]] inline void Recorder::rebind(const void* key,
                                                    sim::SlotId slot,
                                                    std::uint32_t stamp) {
  LaneEntry& lane = lane_entry(key);
  // A fresh lane (slot kNone) has no previous value to elide a copy of.
  if (lane.slot != Provenance::kNone && lane.slot != slot) ++copies_elided_;
  record_bind(lane, slot, stamp);
}

[[gnu::always_inline]] inline Cost Recorder::concrete(sim::SlotId slot,
                                                      const char* site) const {
  if (slot >= slots_.size()) bail(site, "slot id out of range");
  return slots_[slot].value;
}

[[gnu::always_inline]] inline void Recorder::check_live(
    sim::SlotId slot, std::int64_t live, const char* site) const {
  if (concrete(slot, site) != live) {
    live_mismatch(site, slots_[slot].value, live);
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
  slots_[s].pair_head = 1;
  init_.push_back({s, value});
  init_.push_back({a, arg});
  const_pair_cache_.emplace(key, s);
  return s;
}

sim::SlotId Recorder::lane(const void* key, std::int64_t live) {
  LaneEntry& lane = lane_entry(key);
  if (lane.slot != Provenance::kNone) {
    check_live(lane.slot, live, "lane");
    return lane.slot;
  }
  // First touch: the oracle observed this lane's reset value — intern it,
  // so initial state is captured without any per-array bookkeeping.  The
  // bind carries stamp 0: the register has held this value since reset.
  const sim::SlotId s = constant(live);
  record_bind(lane, s, 0);
  return s;
}

sim::SlotId Recorder::lane_pair(const void* key, std::int64_t live,
                                std::int64_t arg) {
  LaneEntry& lane = lane_entry(key);
  if (lane.slot != Provenance::kNone) {
    const sim::SlotId s = lane.slot;
    if (slots_[s].pair_head == 0) {
      bail("lane_pair", "lane is bound to a scalar slot");
    }
    check_live(s, live, "lane_pair");
    check_live(s + 1, arg, "lane_pair(arg)");
    return s;
  }
  const sim::SlotId s = constant_pair(live, arg);
  record_bind(lane, s, 0);
  return s;
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
  return push_op({alloc(result), base, x, 0, w, OpKind::kMac, 0});
}

sim::SlotId Recorder::fold(sim::SlotId best, sim::SlotId left,
                           sim::SlotId right, std::int64_t local) {
  const Cost cand = kern::interval_candidate(
      concrete(left, "fold"), concrete(right, "fold"), local);
  const Cost prev = concrete(best, "fold");
  const Cost result = cand < prev ? cand : prev;
  return push_op({alloc(result), best, left, right, local, OpKind::kFold, 0});
}

sim::SlotId Recorder::relax(sim::SlotId pair, sim::SlotId kh,
                            std::int64_t edge, std::int64_t station) {
  const Cost prev = concrete(pair, "relax");
  if (slots_[pair].pair_head == 0) bail("relax", "source is not a pair slot");
  const Cost cand = sat_add(concrete(kh, "relax"), edge);
  const Cost prev_arg = concrete(pair + 1, "relax(arg)");
  const bool better = cand < prev;
  // Consecutive allocs keep the arg half adjacent to the value half.
  const sim::SlotId dst = alloc(better ? cand : prev);
  alloc(better ? station : prev_arg);
  slots_[dst].pair_head = 1;
  return push_op({dst, pair, kh, static_cast<sim::SlotId>(station), edge,
                  OpKind::kRelax, 0});
}

void Recorder::output(std::string_view tag, std::uint64_t index,
                      sim::SlotId slot, std::int64_t observed) {
  check_live(slot, observed, "output");
  auto tag_it = std::find_if(output_index_.begin(), output_index_.end(),
                             [&](const auto& t) { return t.first == tag; });
  if (tag_it == output_index_.end()) {
    tag_it = output_index_.emplace(output_index_.end(), std::string(tag),
                                   std::unordered_map<std::uint64_t,
                                                      std::size_t>{});
  }
  const auto [it, fresh] = tag_it->second.try_emplace(index, outputs_.size());
  if (!fresh) {
    outputs_[it->second].slot = slot;
    outputs_[it->second].expected = observed;
    return;
  }
  outputs_.push_back({tag_it->first, index, slot, observed});
}

void Recorder::output_arg(std::string_view tag, std::uint64_t index,
                          sim::SlotId pair, std::int64_t observed) {
  (void)concrete(pair, "output_arg");
  if (slots_[pair].pair_head == 0) {
    bail("output_arg", "slot is not a pair head");
  }
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
  if (cycle_off_.back() != ops_.size()) {
    bail("finish", "op tape and cycle index disagree");
  }
  CompiledNetlist net;
  net.num_slots = static_cast<std::uint32_t>(slots_.size());
  net.init = std::move(init_);
  net.ops = std::move(ops_);
  net.cycle_off = std::move(cycle_off_);
  // One sweep over the tape gathers each op's oracle value and provenance
  // lane from its destination slot: on the SSA tape that slot holds
  // exactly the value the oracle computed for the op, and its first bind.
  net.expected.resize(net.ops.size());
  net.provenance.op_lane.resize(net.ops.size());
  for (std::size_t i = 0; i < net.ops.size(); ++i) {
    const SlotRecord& rec = slots_[net.ops[i].dst];
    net.expected[i] = rec.value;
    net.provenance.op_lane[i] = rec.lane;
  }
  net.outputs = std::move(outputs_);
  if (parameterise) {
    // The oracle binding: one parameter per op, holding the weight the
    // oracle ran with.  op.param already names each op's parameter.
    net.parameterised = true;
    net.params.reserve(net.ops.size());
    for (const Op& op : net.ops) net.params.push_back(op.w);
  }
  // Provenance plane: lanes named from the declarations, bind events
  // sorted by stamp with narration order kept within one stamp — the
  // stamp-0 first-touch events, then the committed ones, each log already
  // in that order.
  net.stats.named_lanes = join_names(net.provenance);
  net.provenance.binds = std::move(binds_);
  net.provenance.binds.insert(net.provenance.binds.begin(),
                              reset_binds_.begin(), reset_binds_.end());
  net.stats.copies_elided = copies_elided_;
  net.stats.consts_interned = consts_interned_;
  net.stats.lanes_bound = lane_key_of_.size();
  return net;
}

std::uint64_t Recorder::join_names(Provenance& prov) {
  prov.lanes.resize(lane_key_of_.size());
  // Keyed by views of the lanes' own module strings: prov.lanes is not
  // resized again, so the views stay valid for the whole join.
  std::unordered_map<std::string_view, std::uint32_t> module_id;
  module_id.reserve(lane_names_.size());
  std::uint64_t named = 0;
  for (std::size_t i = 0; i < prov.lanes.size(); ++i) {
    ProvenanceLane& lane = prov.lanes[i];
    const auto it = lane_names_.find(lane_key_of_[i]);
    if (it == lane_names_.end()) {
      lane.label = "lane" + std::to_string(i);
      continue;
    }
    // Each key is one lane, so its declaration can be moved out.
    lane.module = std::move(it->second.module);
    lane.label = std::move(it->second.label);
    const auto [id, fresh] = module_id.try_emplace(
        lane.module, static_cast<std::uint32_t>(prov.modules.size()));
    if (fresh) prov.modules.push_back(lane.module);
    lane.module_id = id->second;
    lane.named = true;
    ++named;
  }
  return named;
}

}  // namespace sysdp::compile
