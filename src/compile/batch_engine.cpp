#include "compile/batch_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "compile/lane_math.hpp"
#include "semiring/closed_semiring.hpp"

namespace sysdp::compile {

// The branchless lane primitives (sel / lane_sat_add / the weight-class
// lift) and the SYSDP_LANE_IVDEP / SYSDP_LANE_CLONES codegen macros live
// in compile/lane_math.hpp.
using lanes::lane_sat_add;
using lanes::lane_sat_add_w;
using lanes::with_w_class;

BatchedCompiledEngine::BatchedCompiledEngine(const CompiledNetlist& net,
                                             std::uint32_t lanes)
    : net_(&net), lanes_(lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("BatchedCompiledEngine: zero lanes");
  }
  slots_.resize(std::size_t{net.num_slots} * lanes, 0);
  if (net.parameterised) {
    weights_.resize(net.params.size() * lanes);
    for (std::size_t p = 0; p < net.params.size(); ++p) {
      for (std::uint32_t l = 0; l < lanes; ++l) {
        weights_[p * lanes + l] = net.params[p];
      }
    }
  }
  oracle_bound_.assign(lanes, 1);

  // Split each level into runs at kind boundaries, in tape order (see
  // class comment); runs delimit the homogeneous spans a single
  // monomorphic kernel sweeps.
  level_run_off_.reserve(net.cycle_off.size());
  level_run_off_.push_back(0);
  for (std::uint32_t t = 0; t + 1 < net.cycle_off.size(); ++t) {
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
  reset();
}

void BatchedCompiledEngine::reset() {
  for (const SlotInit& in : net_->init) {
    Cost* const row = slots_.data() + std::size_t{in.slot} * lanes_;
    for (std::uint32_t l = 0; l < lanes_; ++l) row[l] = in.value;
  }
  now_ = 0;
  ops_executed_ = 0;
  levels_executed_ = 0;
  levels_skipped_ = 0;
  mac_ops_ = 0;
  fold_ops_ = 0;
  relax_ops_ = 0;
  for (ReplayObserver* obs : observers_) {
    obs->on_replay_begin(*net_, slots_.data(), lanes_);
  }
}

void BatchedCompiledEngine::add_observer(ReplayObserver* obs) {
  if (obs == nullptr) {
    throw std::invalid_argument(
        "BatchedCompiledEngine::add_observer: null observer");
  }
  if (now_ != 0) {
    throw std::logic_error(
        "BatchedCompiledEngine::add_observer: observers attach at cycle 0 "
        "only — reset() first");
  }
  observers_.push_back(obs);
  obs->on_replay_begin(*net_, slots_.data(), lanes_);
}

void BatchedCompiledEngine::notify_level(sim::Cycle t) {
  const std::uint32_t lo = net_->cycle_off[t];
  const std::uint32_t hi = net_->cycle_off[t + 1];
  for (ReplayObserver* obs : observers_) {
    obs->on_level(*net_, t, lo, hi, slots_.data(), lanes_);
  }
}

void BatchedCompiledEngine::notify_end() {
  if (observers_.empty() || now_ < cycles()) return;
  for (ReplayObserver* obs : observers_) obs->on_replay_end(*net_);
}

void BatchedCompiledEngine::bind(std::uint32_t lane,
                                 const std::vector<Cost>& weights) {
  if (!net_->parameterised) {
    throw std::invalid_argument(
        "BatchedCompiledEngine::bind: tape was lowered without a parameter "
        "plane (LowerOptions::parameterise)");
  }
  if (lane >= lanes_) {
    throw std::invalid_argument("BatchedCompiledEngine::bind: lane " +
                                std::to_string(lane) + " out of range");
  }
  if (weights.size() != net_->params.size()) {
    throw std::invalid_argument(
        "BatchedCompiledEngine::bind: weight table has " +
        std::to_string(weights.size()) + " entries, tape has " +
        std::to_string(net_->params.size()) + " parameters");
  }
  for (std::size_t p = 0; p < weights.size(); ++p) {
    weights_[p * lanes_ + lane] = weights[p];
  }
  set_oracle_bound(lane, weights == net_->params);
}

void BatchedCompiledEngine::bind_oracle(std::uint32_t lane) {
  if (lane >= lanes_) {
    throw std::invalid_argument("BatchedCompiledEngine::bind_oracle: lane " +
                                std::to_string(lane) + " out of range");
  }
  for (std::size_t p = 0; p < net_->params.size(); ++p) {
    weights_[p * lanes_ + lane] = net_->params[p];
  }
  set_oracle_bound(lane, true);
}

void BatchedCompiledEngine::set_oracle_bound(std::uint32_t lane, bool bound) {
  if ((oracle_bound_[lane] != 0) != bound) {
    if (bound) {
      --rebound_lanes_;
    } else {
      ++rebound_lanes_;
    }
  }
  oracle_bound_[lane] = bound ? 1 : 0;
}

namespace {

/// Everything a lane kernel touches, gathered so the kernels can be free
/// functions (function multiversioning cannot apply to member templates).
struct RunCtx {
  Cost* slots;
  const Cost* wtab;
  const Op* ops;
  const KindRun* runs;
  std::uint32_t lanes;
};

// The batched hot loop.  Outer loop over a homogeneous run of ops, inner
// loop over lanes: every iteration of the lane loop touches contiguous,
// 64-byte-aligned, mutually non-aliasing rows (SSA makes the destination
// fresh), carries no dependence, and performs only add/min/max/compare/
// mask-select on int64 — the exact shape -O2/-O3 auto-vectorisers compile
// to SIMD.  The arithmetic mirrors CompiledEngine::exec_level kernel for
// kernel; for TapeSemiring's two semirings S::times IS sat_add, realised
// here branchlessly (lane_sat_add) with identical results bit for bit.
template <typename S, bool kParam, std::uint32_t kW>
inline void exec_runs_impl(const RunCtx& ctx, std::uint32_t rlo,
                           std::uint32_t rhi) {
  // kW == 0 is the any-width fallback; a nonzero kW makes the lane count a
  // compile-time constant, so the lane loops below fully unroll into
  // straight-line vector code with no trip-count or remainder logic.
  const std::uint32_t B = kW != 0 ? kW : ctx.lanes;
  Cost* const slots = ctx.slots;
  const Cost* const wtab = ctx.wtab;
  const Op* const ops = ctx.ops;
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const KindRun& run = ctx.runs[r];
    switch (run.kind) {
      case OpKind::kMac:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[k];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          if constexpr (kParam) {
            const Cost* const __restrict wrow =
                wtab + std::size_t{op.param} * B;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              d[l] = S::plus(pa[l], lane_sat_add(wrow[l], pb[l]));
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                d[l] = S::plus(pa[l],
                               lane_sat_add_w<decltype(wc)::value>(pb[l], wi));
              }
            });
          }
        }
        break;
      case OpKind::kFold:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[k];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          const Cost* const __restrict pc = slots + std::size_t{op.c} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          if constexpr (kParam) {
            const Cost* const __restrict wrow =
                wtab + std::size_t{op.param} * B;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand =
                  lane_sat_add(lane_sat_add(pb[l], pc[l]), wrow[l]);
              const Cost prev = pa[l];
              d[l] = S::improves(cand, prev) ? cand : prev;
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                const Cost cand = lane_sat_add_w<decltype(wc)::value>(
                    lane_sat_add(pb[l], pc[l]), wi);
                const Cost prev = pa[l];
                d[l] = S::improves(cand, prev) ? cand : prev;
              }
            });
          }
        }
        break;
      case OpKind::kRelax:
        for (std::uint32_t k = run.lo; k < run.hi; ++k) {
          const Op& op = ops[k];
          const Cost* const __restrict pa = slots + std::size_t{op.a} * B;
          const Cost* const __restrict paarg =
              slots + (std::size_t{op.a} + 1) * B;
          const Cost* const __restrict pb = slots + std::size_t{op.b} * B;
          Cost* const __restrict d = slots + std::size_t{op.dst} * B;
          Cost* const __restrict darg =
              slots + (std::size_t{op.dst} + 1) * B;
          const Cost station = static_cast<Cost>(op.c);
          if constexpr (kParam) {
            const Cost* const __restrict wrow =
                wtab + std::size_t{op.param} * B;
            SYSDP_LANE_IVDEP
            for (std::uint32_t l = 0; l < B; ++l) {
              const Cost cand = lane_sat_add(pb[l], wrow[l]);
              const Cost prev = pa[l];
              const bool better = S::improves(cand, prev);
              d[l] = better ? cand : prev;
              darg[l] = better ? station : paarg[l];
            }
          } else {
            with_w_class(op.w, [&](auto wc) {
              const Cost wi = op.w;
              SYSDP_LANE_IVDEP
              for (std::uint32_t l = 0; l < B; ++l) {
                const Cost cand =
                    lane_sat_add_w<decltype(wc)::value>(pb[l], wi);
                const Cost prev = pa[l];
                const bool better = S::improves(cand, prev);
                d[l] = better ? cand : prev;
                darg[l] = better ? station : paarg[l];
              }
            });
          }
        }
        break;
    }
  }
}

// Function multiversioning (SYSDP_LANE_CLONES, lane_math.hpp): one entry
// point, compiled once per ISA level (AVX-512F / AVX2 / baseline) with
// load-time ifunc dispatch, so the same binary runs everywhere yet the
// hot loops use the widest vectors the host has.  int64 compare/min/max
// only vectorise profitably from AVX2 up, and widest from AVX-512F
// (vpminsq/vpcmpq on 8 lanes) — with baseline x86-64 codegen the lane
// loops are scalar-equivalent.  `flatten` force-inlines the kernel
// templates (and everything below them) into each clone so their loops
// are vectorised under the clone's ISA rather than compiled once at
// baseline.  ThreadSanitizer cannot run under multiversioning: the ifunc
// resolver that picks a clone executes during relocation, before TSan's
// runtime is initialised, and the interposed resolver segfaults.  TSan
// builds fall back to the baseline kernels — they exercise the same
// source.
SYSDP_LANE_CLONES
void exec_runs_dispatch(const RunCtx& ctx, std::uint32_t rlo,
                        std::uint32_t rhi, TapeSemiring semiring,
                        bool param) {
  if (semiring == TapeSemiring::kMinPlus) {
    switch (ctx.lanes) {
      case 8:
        param ? exec_runs_impl<MinPlus, true, 8>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 8>(ctx, rlo, rhi);
        break;
      case 16:
        param ? exec_runs_impl<MinPlus, true, 16>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 16>(ctx, rlo, rhi);
        break;
      default:
        param ? exec_runs_impl<MinPlus, true, 0>(ctx, rlo, rhi)
              : exec_runs_impl<MinPlus, false, 0>(ctx, rlo, rhi);
        break;
    }
  } else {
    switch (ctx.lanes) {
      case 8:
        param ? exec_runs_impl<MaxPlus, true, 8>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 8>(ctx, rlo, rhi);
        break;
      case 16:
        param ? exec_runs_impl<MaxPlus, true, 16>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 16>(ctx, rlo, rhi);
        break;
      default:
        param ? exec_runs_impl<MaxPlus, true, 0>(ctx, rlo, rhi)
              : exec_runs_impl<MaxPlus, false, 0>(ctx, rlo, rhi);
        break;
    }
  }
}

}  // namespace

void BatchedCompiledEngine::exec_level(std::uint32_t level) {
  const std::uint32_t rlo = level_run_off_[level];
  const std::uint32_t rhi = level_run_off_[level + 1];
  if (rlo == rhi) return;
  // Weight-table reads are pure overhead while every lane still replays
  // the oracle binding: the lane-major table equals the baked immediates
  // row for row, but streaming it costs lanes*8 bytes per op — on long
  // tapes that is megabytes per replay and turns the hot loop memory-
  // bound.  So the parameter path switches on only once some lane actually
  // deviates from the oracle's weights; results are bit-identical either
  // way.
  const bool param = !weights_.empty() && rebound_lanes_ != 0;
  const RunCtx ctx{slots_.data(), param ? weights_.data() : nullptr,
                   net_->ops.data(), runs_.data(), lanes_};
  exec_runs_dispatch(ctx, rlo, rhi, net_->semiring, param);
  ops_executed_ += std::uint64_t{net_->cycle_off[level + 1] -
                                 net_->cycle_off[level]} *
                   lanes_;
  // Per-kind accounting off the run table: runs are kind-homogeneous, so
  // a level costs at most a handful of adds however many ops it carries.
  ++levels_executed_;
  for (std::uint32_t r = rlo; r < rhi; ++r) {
    const std::uint64_t n = std::uint64_t{runs_[r].hi - runs_[r].lo} * lanes_;
    switch (runs_[r].kind) {
      case OpKind::kMac:
        mac_ops_ += n;
        break;
      case OpKind::kFold:
        fold_ops_ += n;
        break;
      case OpKind::kRelax:
        relax_ops_ += n;
        break;
    }
  }
}

void BatchedCompiledEngine::step() {
  if (now_ + 1 < net_->cycle_off.size()) {
    exec_level(static_cast<std::uint32_t>(now_));
    if (!observers_.empty()) {
      notify_level(static_cast<std::uint32_t>(now_));
    }
  }
  ++now_;
}

void BatchedCompiledEngine::run(sim::Cycle n) {
  // Observed replays visit every level (provenance bind events land on
  // empty levels); the detached skip-list path below is untouched.
  if (!observers_.empty()) {
    const sim::Cycle target = now_ + n;
    while (now_ < target) step();
    return;
  }
  const sim::Cycle target = now_ + n;
  const sim::Cycle end = std::min<sim::Cycle>(target, cycles());
  auto it = std::lower_bound(live_levels_.begin(), live_levels_.end(), now_);
  sim::Cycle from = now_;
  for (; it != live_levels_.end() && *it < end; ++it) {
    exec_level(*it);
    levels_skipped_ += *it - from;
    from = *it + 1;
  }
  if (end > from) levels_skipped_ += end - from;
  now_ = target;
}

void BatchedCompiledEngine::run_all() {
  run(cycles() > now_ ? cycles() - now_ : 0);
  notify_end();
}

Divergence BatchedCompiledEngine::verify_outputs(std::uint32_t lane) const {
  if (!oracle_bound(lane)) {
    throw std::logic_error(
        "BatchedCompiledEngine::verify_outputs: lane " + std::to_string(lane) +
        " is not oracle-bound; recorded expectations describe the oracle's "
        "weight binding only");
  }
  for (std::uint64_t i = 0; i < net_->outputs.size(); ++i) {
    const Output& out = net_->outputs[i];
    const Cost got = value(out.slot, lane);
    if (got != out.expected) {
      Divergence d;
      d.found = true;
      d.index = i;
      d.got = got;
      d.expected = out.expected;
      return d;
    }
  }
  return {};
}

Cost BatchedCompiledEngine::output(std::string_view tag, std::uint64_t index,
                                   std::uint32_t lane) const {
  for (const Output& out : net_->outputs) {
    if (out.index == index && out.tag == tag) return value(out.slot, lane);
  }
  throw std::out_of_range("BatchedCompiledEngine::output: no output " +
                          std::string(tag) + "[" + std::to_string(index) +
                          "]");
}

}  // namespace sysdp::compile
