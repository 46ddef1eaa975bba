#include "compile/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "compile/lane_math.hpp"
#include "semiring/closed_semiring.hpp"
#include "semiring/kernels.hpp"

namespace sysdp::compile {

CompiledEngine::CompiledEngine(const CompiledNetlist& net, std::uint32_t lanes)
    : net_(&net), lanes_(lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("CompiledEngine: zero lanes");
  }
  slots_.resize(std::size_t{net.num_slots} * lanes, 0);
  oracle_bound_.assign(lanes, 1);

  // Split each level into runs at kind boundaries, in tape order (see the
  // header comment), and list the non-empty levels: gated tapes spend most
  // of their cycles in empty levels (fill/drain, quiesced phases), and
  // run()/run_all() jump straight between the levels that carry ops.
  level_run_off_.reserve(net.cycle_off.size());
  level_run_off_.push_back(0);
  for (std::uint32_t t = 0; t < net.cycles(); ++t) {
    const std::uint32_t lo = net.cycle_off[t];
    const std::uint32_t hi = net.cycle_off[t + 1];
    if (hi > lo) live_levels_.push_back(t);
    for (std::uint32_t i = lo; i < hi; ++i) {
      if (i == lo || net.ops[i].kind != net.ops[i - 1].kind) {
        runs_.push_back({i, i, net.ops[i].kind});
      }
      runs_.back().hi = i + 1;
    }
    level_run_off_.push_back(static_cast<std::uint32_t>(runs_.size()));
  }
  run_kind_prefix_.assign(runs_.size() + 1, {0, 0, 0});
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    run_kind_prefix_[r + 1] = run_kind_prefix_[r];
    run_kind_prefix_[r + 1][static_cast<std::size_t>(runs_[r].kind)] +=
        runs_[r].hi - runs_[r].lo;
  }
  reset();
}

void CompiledEngine::reset() {
  for (const SlotInit& in : net_->init) {
    std::fill_n(slots_.data() + std::size_t{in.slot} * lanes_, lanes_,
                in.value);
  }
  now_ = 0;
  levels_executed_ = 0;
  levels_skipped_ = 0;
  kind_ops_ = {0, 0, 0};
  for (ReplayObserver* obs : observers_) {
    obs->on_replay_begin(*net_, slots_.data(), lanes_);
  }
}

void CompiledEngine::add_observer(ReplayObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument("CompiledEngine::add_observer: null observer");
  }
  if (now_ != 0) {
    throw std::logic_error(
        "CompiledEngine::add_observer: observers attach at cycle 0 only — "
        "reset() first");
  }
  observers_.push_back(obs);
  obs->on_replay_begin(*net_, slots_.data(), lanes_);
}

void CompiledEngine::notify_level(sim::Cycle t) {
  const std::uint32_t lo = net_->cycle_off[t];
  const std::uint32_t hi = net_->cycle_off[t + 1];
  for (ReplayObserver* obs : observers_) {
    obs->on_level(*net_, t, lo, hi, slots_.data(), lanes_);
  }
}

void CompiledEngine::notify_end() {
  if (observers_.empty() || now_ < cycles()) return;
  for (ReplayObserver* obs : observers_) obs->on_replay_end(*net_);
}

void CompiledEngine::require_lane(std::uint32_t lane, const char* site) const {
  if (lane >= lanes_) {
    throw std::out_of_range(std::string("CompiledEngine::") + site +
                            ": lane " + std::to_string(lane) +
                            " past the batch width " + std::to_string(lanes_));
  }
}

bool CompiledEngine::oracle_bound(std::uint32_t lane) const {
  require_lane(lane, "oracle_bound");
  return oracle_bound_[lane] != 0;
}

void CompiledEngine::bind(const std::vector<Cost>& weights,
                          std::uint32_t lane) {
  if (!net_->parameterised) {
    throw std::invalid_argument(
        "CompiledEngine::bind: tape was lowered without a parameter plane "
        "(LowerOptions::parameterise)");
  }
  if (lane >= lanes_) {
    throw std::invalid_argument("CompiledEngine::bind: lane " +
                                std::to_string(lane) + " out of range");
  }
  if (weights.size() != net_->params.size()) {
    throw std::invalid_argument(
        "CompiledEngine::bind: weight table has " +
        std::to_string(weights.size()) + " entries, tape has " +
        std::to_string(net_->params.size()) + " parameters");
  }
  if (weights_.empty()) {
    // First rebind: every other lane keeps replaying the oracle binding,
    // which the parameter path then reads from the table.
    weights_.resize(net_->params.size() * lanes_);
    if (lanes_ > 1) {
      for (std::uint32_t l = 0; l < lanes_; ++l) store_weights(net_->params, l);
    }
  }
  store_weights(weights, lane);
  set_oracle_bound(lane, weights == net_->params);
}

void CompiledEngine::bind_oracle(std::uint32_t lane) {
  if (lane >= lanes_) {
    throw std::invalid_argument("CompiledEngine::bind_oracle: lane " +
                                std::to_string(lane) + " out of range");
  }
  if (!weights_.empty()) store_weights(net_->params, lane);
  set_oracle_bound(lane, true);
}

void CompiledEngine::store_weights(const std::vector<Cost>& weights,
                                   std::uint32_t lane) {
  // One lane is a contiguous copy; the strided loop costs a pass per
  // element on the width-1 rebind path.
  if (lanes_ == 1) {
    std::copy(weights.begin(), weights.end(), weights_.begin());
    return;
  }
  for (std::size_t p = 0; p < weights.size(); ++p) {
    weights_[p * lanes_ + lane] = weights[p];
  }
}

void CompiledEngine::set_oracle_bound(std::uint32_t lane, bool bound) {
  // Counts a lane once per transition: +1 leaving the oracle binding, -1
  // returning to it, 0 otherwise.
  rebound_lanes_ = rebound_lanes_ + oracle_bound_[lane] - (bound ? 1 : 0);
  oracle_bound_[lane] = bound ? 1 : 0;
}

namespace {

using lanes::lane_sat_add;
using lanes::lane_sat_add_w;
using lanes::with_w_class;

/// Everything a kernel touches, gathered so the kernels can be free
/// functions (function multiversioning cannot apply to member templates).
struct RunCtx {
  Cost* slots;
  const Cost* wtab;
  const Op* ops;
  const KindRun* runs;
  std::uint32_t lanes;
};

// Width 1: one pass over each run of 32-byte ops, all operands direct
// indices into one flat array, each arm the scalar kernel of
// semiring/kernels.hpp.  sysdp::sat_add's early returns predict perfectly
// on one lane and cost less than the branchless lane forms.  With kParam
// the weight comes from the bound table via the op's parameter index
// instead of the baked immediate; everything else is identical.
template <bool kParam>
inline void exec_runs_scalar(const RunCtx& ctx, std::uint32_t rlo,
                             std::uint32_t rhi) {
  Cost* const s = ctx.slots;
  const auto weight = [&](const Op& op) {
    return kParam ? ctx.wtab[op.param] : op.w;
  };
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    switch (run.kind) {
      case OpKind::kMac:
        for (std::uint32_t i = run.lo; i < run.hi; ++i) {
          const Op& op = ctx.ops[i];
          s[op.dst] = kern::mac<MinPlus>(s[op.a], weight(op), s[op.b]);
        }
        break;
      case OpKind::kFold:
        for (std::uint32_t i = run.lo; i < run.hi; ++i) {
          const Op& op = ctx.ops[i];
          const Cost cand =
              MinPlus::times(MinPlus::times(s[op.b], s[op.c]), weight(op));
          const Cost prev = s[op.a];
          s[op.dst] = MinPlus::improves(cand, prev) ? cand : prev;
        }
        break;
      case OpKind::kRelax:
        for (std::uint32_t i = run.lo; i < run.hi; ++i) {
          const Op& op = ctx.ops[i];
          const Cost cand = MinPlus::times(s[op.b], weight(op));
          const Cost prev = s[op.a];
          const bool better = MinPlus::improves(cand, prev);
          s[op.dst] = better ? cand : prev;
          s[op.dst + 1] = better ? static_cast<Cost>(op.c) : s[op.a + 1];
        }
        break;
    }
  }
}

/// Invoke `kernel(w, add_w)` for `op`: `w(l)` is lane l's weight and
/// `add_w(x, w)` the saturating add to apply it with.  Bound tables give a
/// weight row; a baked immediate is lane-invariant, so its sentinel class
/// is lifted out of the lane loop (lanes::with_w_class).
template <bool kParam, typename K>
inline void with_weight(const RunCtx& ctx, const Op& op, std::uint32_t B,
                        K&& kernel) {
  if constexpr (kParam) {
    const Cost* const __restrict wrow = ctx.wtab + std::size_t{op.param} * B;
    kernel([wrow](std::uint32_t l) { return wrow[l]; },
           [](Cost x, Cost w) { return lane_sat_add(x, w); });
  } else {
    with_w_class(op.w, [&](auto wc) {
      kernel([w = op.w](std::uint32_t) { return w; }, [](Cost x, Cost w) {
        return lane_sat_add_w<decltype(wc)::value>(x, w);
      });
    });
  }
}

// Widths above 1.  Outer loop over a homogeneous run of ops, inner loop
// over lanes: every iteration of the lane loop touches contiguous,
// 64-byte-aligned, mutually non-aliasing rows (SSA makes the destination
// fresh), carries no dependence, and performs only add/min/max/compare/
// mask-select on int64 — the exact shape -O2/-O3 auto-vectorisers compile
// to SIMD.  The arithmetic is exec_runs_scalar's, with the branchless
// lane_sat_add (bit-identical to sat_add) in place of MinPlus::times.
// kW == 0 is the any-width fallback; a nonzero kW makes the lane count a
// compile-time constant, so the lane loops fully unroll into straight-line
// vector code with no trip-count or remainder logic.
template <bool kParam, std::uint32_t kW>
inline void exec_runs_lanes(const RunCtx& ctx, std::uint32_t rlo,
                            std::uint32_t rhi) {
  const std::uint32_t B = kW != 0 ? kW : ctx.lanes;
  Cost* const slots = ctx.slots;
  const auto row = [&](sim::SlotId s) { return slots + std::size_t{s} * B; };
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    switch (run.kind) {
      case OpKind::kMac:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ctx.ops[k];
          const Cost* const __restrict pa = row(op.a);
          const Cost* const __restrict pb = row(op.b);
          Cost* const __restrict d = row(op.dst);
          with_weight<kParam>(ctx, op, B, [&](auto w, auto add_w) {
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              d[l] = MinPlus::plus(pa[l], add_w(pb[l], w(l)));
            }
          });
        }
        break;
      case OpKind::kFold:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ctx.ops[k];
          const Cost* const __restrict pa = row(op.a);
          const Cost* const __restrict pb = row(op.b);
          const Cost* const __restrict pc = row(op.c);
          Cost* const __restrict d = row(op.dst);
          with_weight<kParam>(ctx, op, B, [&](auto w, auto add_w) {
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand = add_w(lane_sat_add(pb[l], pc[l]), w(l));
              const Cost prev = pa[l];
              d[l] = MinPlus::improves(cand, prev) ? cand : prev;
            }
          });
        }
        break;
      case OpKind::kRelax:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ctx.ops[k];
          const Cost* const __restrict pa = row(op.a);
          const Cost* const __restrict paarg = row(op.a + 1);
          const Cost* const __restrict pb = row(op.b);
          Cost* const __restrict d = row(op.dst);
          Cost* const __restrict darg = row(op.dst + 1);
          const Cost station = static_cast<Cost>(op.c);
          with_weight<kParam>(ctx, op, B, [&](auto w, auto add_w) {
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand = add_w(pb[l], w(l));
              const Cost prev = pa[l];
              const bool better = MinPlus::improves(cand, prev);
              d[l] = better ? cand : prev;
              darg[l] = better ? station : paarg[l];
            }
          });
        }
        break;
    }
  }
}

/// Width-kW kernel for the tape's binding; kW == 1 selects the scalar
/// kernel.
template <std::uint32_t kW>
inline void exec_runs(const RunCtx& ctx, std::uint32_t rlo, std::uint32_t rhi,
                      bool param) {
  const auto go = [&](auto p) {
    if constexpr (kW == 1) {
      exec_runs_scalar<decltype(p)::value>(ctx, rlo, rhi);
    } else {
      exec_runs_lanes<decltype(p)::value, kW>(ctx, rlo, rhi);
    }
  };
  param ? go(std::true_type{}) : go(std::false_type{});
}

// Function multiversioning (SYSDP_LANE_CLONES, lane_math.hpp): the wide
// kernels' entry point is compiled once per ISA level (AVX-512F / AVX2 /
// baseline) with load-time ifunc dispatch, so the same binary runs
// everywhere yet the hot loops use the widest vectors the host has.  int64
// compare/min/max only vectorise profitably from AVX2 up, and widest from
// AVX-512F (vpminsq/vpcmpq on 8 lanes) — with baseline x86-64 codegen the
// lane loops are scalar-equivalent.  `flatten` force-inlines the kernel
// templates (and everything below them) into each clone so their loops
// are vectorised under the clone's ISA rather than compiled once at
// baseline.  Width 1 is scalar code that no vector ISA speeds up, so it
// is called directly and skips the clone dispatch.  ThreadSanitizer
// cannot run under multiversioning: the ifunc resolver that picks a clone
// executes during relocation, before TSan's runtime is initialised, and
// the interposed resolver segfaults.  TSan builds fall back to the
// baseline kernels — they exercise the same source.
SYSDP_LANE_CLONES
void exec_runs_wide(const RunCtx& ctx, std::uint32_t rlo, std::uint32_t rhi,
                    bool param) {
  switch (ctx.lanes) {
    case 8:
      exec_runs<8>(ctx, rlo, rhi, param);
      break;
    case 16:
      exec_runs<16>(ctx, rlo, rhi, param);
      break;
    default:
      exec_runs<0>(ctx, rlo, rhi, param);
      break;
  }
}

}  // namespace

void CompiledEngine::exec_runs(std::uint32_t rlo, std::uint32_t rhi) {
  // Weight-table reads are pure overhead while every lane still replays
  // the oracle binding: the table equals the baked immediates row for
  // row, but streaming it costs lanes*8 bytes per op — on long tapes that
  // is megabytes per replay and turns the hot loop memory-bound.  So the
  // parameter path switches on only once some lane actually deviates from
  // the oracle's weights; results are bit-identical either way.
  const bool param = rebound_lanes_ != 0;
  const RunCtx ctx{slots_.data(), param ? weights_.data() : nullptr,
                   net_->ops.data(), runs_.data(), lanes_};
  if (lanes_ == 1) {
    sysdp::compile::exec_runs<1>(ctx, rlo, rhi, param);
  } else {
    exec_runs_wide(ctx, rlo, rhi, param);
  }
}

void CompiledEngine::account(std::uint32_t rlo, std::uint32_t rhi,
                             std::uint64_t levels) {
  levels_executed_ += levels;
  for (std::size_t k = 0; k < kind_ops_.size(); ++k) {
    kind_ops_[k] += run_kind_prefix_[rhi][k] - run_kind_prefix_[rlo][k];
  }
}

Divergence CompiledEngine::check_level(std::uint32_t lo,
                                       std::uint32_t hi) const {
  // Sound after the whole level ran: destinations are SSA within a level
  // (compact_slots reuses an index only in a strictly later level), so each
  // op's destination row still holds the value that op produced.
  for (std::uint32_t i = lo; i < hi; ++i) {
    const Cost want = net_->expected[i];
    for (std::uint32_t l = 0; l < lanes_; ++l) {
      const Cost got = value(net_->ops[i].dst, l);
      if (got == want) continue;
      Divergence d{true, i, got, want, {}, {}};
      const Provenance& prov = net_->provenance;
      const std::uint32_t pl = i < prov.op_lane.size() ? prov.op_lane[i]
                                                       : Provenance::kNone;
      if (pl < prov.lanes.size() && prov.lanes[pl].named) {
        d.module = prov.lanes[pl].module;
        d.label = prov.lanes[pl].label;
      }
      return d;
    }
  }
  return {};
}

void CompiledEngine::exec_level(sim::Cycle t) {
  const std::uint32_t rlo = level_run_off_[t];
  const std::uint32_t rhi = level_run_off_[t + 1];
  if (rhi == rlo) return;
  exec_runs(rlo, rhi);
  account(rlo, rhi, 1);
}

void CompiledEngine::step() {
  if (now_ < cycles()) {
    exec_level(now_);
    if (!observers_.empty()) notify_level(now_);
  }
  ++now_;
}

Divergence CompiledEngine::step_checked() {
  if (rebound_lanes_ != 0) {
    throw std::logic_error(
        "CompiledEngine::step_checked: recorded expectations describe the "
        "oracle's weight binding, but another table is bound");
  }
  Divergence d;
  if (now_ < cycles()) {
    exec_level(now_);
    d = check_level(net_->cycle_off[now_], net_->cycle_off[now_ + 1]);
    if (!observers_.empty() && !d.found) notify_level(now_);
  }
  ++now_;
  return d;
}

void CompiledEngine::run(sim::Cycle n) {
  const sim::Cycle target = now_ + n;
  // Observed replays visit every level: provenance bind events (elided
  // register copies) land on levels with no ops, and the waveform sinks
  // must hear them in order.  The detached path below is untouched.
  if (!observers_.empty()) {
    while (now_ < target) step();
    return;
  }
  // Walk the skip-list from the current position: only the levels that
  // carry ops are visited, the empty stretches between them are accounted
  // once per run instead of one comparison per level.
  const sim::Cycle end = std::min<sim::Cycle>(target, cycles());
  const auto first =
      std::lower_bound(live_levels_.begin(), live_levels_.end(), now_);
  auto it = first;
  sim::Cycle from = now_;
  for (; it != live_levels_.end() && *it < end; ++it) {
    exec_runs(level_run_off_[*it], level_run_off_[*it + 1]);
    levels_skipped_ += *it - from;
    from = *it + 1;
  }
  if (end > from) levels_skipped_ += end - from;
  // The levels run hold one contiguous span of runs, accounted at once.
  if (it != first) {
    account(level_run_off_[*first], level_run_off_[*(it - 1) + 1],
            static_cast<std::uint64_t>(it - first));
  }
  now_ = target;
}

void CompiledEngine::run_all() {
  run(cycles() > now_ ? cycles() - now_ : 0);
  notify_end();
}

Divergence CompiledEngine::run_all_checked() {
  while (now_ < cycles()) {
    Divergence d = step_checked();
    if (d.found) return d;
  }
  notify_end();
  return {};
}

Divergence CompiledEngine::verify_outputs(std::uint32_t lane) const {
  if (!oracle_bound(lane)) {
    throw std::logic_error(
        "CompiledEngine::verify_outputs: lane " + std::to_string(lane) +
        " is not oracle-bound; recorded expectations describe the oracle's "
        "weight binding only");
  }
  for (std::uint64_t i = 0; i < net_->outputs.size(); ++i) {
    const Output& out = net_->outputs[i];
    const Cost got = value(out.slot, lane);
    if (got != out.expected) return {true, i, got, out.expected, {}, {}};
  }
  return {};
}

Cost CompiledEngine::output(std::string_view tag, std::uint64_t index,
                            std::uint32_t lane) const {
  require_lane(lane, "output");
  for (const Output& out : net_->outputs) {
    if (out.index == index && out.tag == tag) return value(out.slot, lane);
  }
  throw std::out_of_range("CompiledEngine::output: no output " +
                          std::string(tag) + "[" + std::to_string(index) +
                          "]");
}

}  // namespace sysdp::compile
