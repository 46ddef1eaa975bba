// Tight scalar kernels for the hot PE inner loops.
//
// Module::eval is reached through virtual dispatch, but the arithmetic
// inside it must not be: these are the non-virtual, always-inline scalar
// kernels every array model shares for its inner min-plus products.  One
// "step" of the paper's iteration accounting is exactly one of these —
// a multiply-accumulate over (MIN, +) for the string-product designs
// (Designs 1 and 2), an add-compare relaxation for Design 3, and a
// two-operand candidate fold for the interval-DP triangle (GKT / BST /
// polygon).  Keeping them here gives the flattened PE arenas one shared,
// branch-light implementation instead of N copies spread across eval
// bodies.
#pragma once

#include <cstddef>

#include "semiring/closed_semiring.hpp"
#include "semiring/cost.hpp"

namespace sysdp::kern {

/// One semiring multiply-accumulate: acc (+)= w (x) x.  The generic form
/// used wherever the semiring is a template parameter.
template <Semiring S>
[[nodiscard]] constexpr typename S::value_type mac(
    typename S::value_type acc, typename S::value_type w,
    typename S::value_type x) noexcept {
  return S::plus(acc, S::times(w, x));
}

/// Interval-DP candidate cost: left + right + local weight, saturating.
/// The scalar step of the GKT / BST / polygon triangular cells.
[[nodiscard]] constexpr Cost interval_candidate(Cost left, Cost right,
                                                Cost local) noexcept {
  return sat_add(sat_add(left, right), local);
}

/// Fold `cand` into a running (best, arg) pair; true if it improved.  The
/// comparator half of the add-compare step (Design 3's C unit, the
/// triangular cells' two-comparison fold).
constexpr bool fold_min(Cost cand, std::size_t k, Cost& best,
                        std::size_t& arg) noexcept {
  if (cand < best) {
    best = cand;
    arg = k;
    return true;
  }
  return false;
}

}  // namespace sysdp::kern
