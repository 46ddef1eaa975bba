// Engine-backed triangular array for the whole interval-DP family: the
// GKT matrix-chain array (the paper's polyadic example, Sections 4 and
// 6.2), optimal BST and polygon triangulation, each a TriangularArray rule
// run on discrete cell modules.  Per-cell row and column link registers
// carry values one register per cycle, completed results launch rightward
// along the row and upward along the column, and each cell folds up to
// two ready candidates per cycle.
//
// Two generalisations over the chain-only GKT cells make the family fit:
//
//   * Origin-matched operands.  A rule's candidate t at cell (i, j) names
//     a left sub-interval on row i and a right sub-interval on column j.
//     The wrapper compiles these once into flat per-candidate origin
//     tables, sorted by origin within each cell, so a passing flit finds
//     its candidates by binary search — O(log k) plus one step per match
//     for a cell with k candidates.  One origin may
//     feed several candidates: the BST rule maps the adjacent diagonal
//     cell to two slots, as both the empty-left and empty-right trees
//     clamp to it.
//   * Patient launch slots.  GKT's single-occupancy theorem (at most one
//     value per link register per cycle) is proved for the chain
//     recurrence only; richer rules can collide a completion launch with
//     a through-shifting flit.  Instead of the GKT conflict assertion, a
//     staged launch waits in its slot until the receiver's link has a
//     gap.
//
// Timing is cycle-exact against the analytic model.  Every cell's
// completion cycle `done(i, j)` equals TriangularArray::ready(i, j), and
// `stats.cycles` is the root's completion cycle `done(0, n - 1)` (0 at
// n = 1), exactly TriangularArray's count.  For the chain rule, cost,
// `done`, busy steps and cycles also equal GktRtlArray's.  Tests pin all
// three rules at n = 2..40 in both gating modes, and results are
// bit-identical across dense/gated engines.
//
// The quiescence contract extends to the waiting slots: a cell sleeps
// only when its links are empty, its ready queue is drained, AND no
// launch is pending in its slots; wakeup edges follow the two incoming
// streams ((i, j-1) row-wise, (i+1, j) column-wise), exactly the arcs
// launches travel.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "arrays/run_result.hpp"
#include "semiring/cost.hpp"
#include "semiring/matrix.hpp"
#include "sim/engine.hpp"
#include "sim/port.hpp"

namespace sysdp {

/// Non-template machinery: arena, cell modules, transport, gating.  The
/// rule is pre-compiled into per-candidate specs by TriangularModularArray.
class TriangularModularCore {
 public:
  /// The rule's candidates, compiled once per array into immutable
  /// struct-of-arrays tables.  Cells are numbered diagonal-major (see
  /// cell_id); candidate t of cell c lives at lane cand_base[c] + t, for
  /// t < cand_base[c + 1] - cand_base[c] (zero for diagonals, and for
  /// trivially-solved cells such as a polygon edge: value 0 at cycle 0).
  /// `row_origin` is the column b of the left operand's producer cell
  /// (i, b) on the consumer's row; `col_origin` is the row a of the right
  /// operand's producer (a, j) on the consumer's column.  Within a cell
  /// both are nondecreasing in t, so a passing flit finds every candidate
  /// it feeds by binary search.  An operand clamped away by the rule (e.g.
  /// an empty BST subtree) still gates arrival but contributes zero cost:
  /// use_left / use_right record that.
  struct Candidates {
    std::vector<std::uint32_t> cand_base;  ///< num_pes() + 1 offsets
    std::vector<std::uint32_t> row_origin, col_origin;
    std::vector<std::uint8_t> use_left, use_right;
    std::vector<Cost> local;
  };

  /// Diagonal-major id of cell (i, j), i <= j < n: diagonal d = j - i
  /// starts after the d longer diagonals of n, n - 1, ..., n - d + 1 cells.
  [[nodiscard]] static std::uint32_t cell_id(std::size_t n, std::size_t i,
                                             std::size_t j) noexcept {
    const std::size_t d = j - i;
    return static_cast<std::uint32_t>(d * (2 * n - d + 1) / 2 + i);
  }

  /// `base[i]` is diagonal cell (i, i)'s value.  Throws invalid_argument
  /// on a malformed table, if an origin names a cell that never launches
  /// (neither diagonal nor a candidate-bearing cell), or if a cell's
  /// origins are out of order.
  TriangularModularCore(std::size_t n, std::vector<Cost> base,
                        Candidates cands);
  ~TriangularModularCore();

  TriangularModularCore(const TriangularModularCore&) = delete;
  TriangularModularCore& operator=(const TriangularModularCore&) = delete;

  struct Result {
    Matrix<Cost> cost;
    Matrix<sim::Cycle> done;
    RunResult<Cost> stats;

    [[nodiscard]] Cost total() const { return cost(0, cost.cols() - 1); }
    [[nodiscard]] sim::Cycle completion() const {
      return done(0, done.cols() - 1);
    }
  };

  /// Simulate until every cell has completed.  `stats.cycles` is the
  /// root's completion cycle (see the header comment).  Bit-identical
  /// across dense/gated engines; throws std::logic_error if the array does
  /// not converge within the transport bound.
  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse);

  /// Run on a caller-constructed engine, so telemetry observers (VCD,
  /// timelines — sim/observer.hpp) can attach before time starts.  The
  /// engine must be fresh: no modules added, no cycles stepped; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] Result run(sim::Engine& engine);

  /// Build the arena, cells, and wakeup wiring into `engine` without
  /// running a cycle (run() uses this; the lint CLI captures the netlist).
  void elaborate(sim::Engine& engine);

  /// Testbench-side taps for analysis::capture (boundary link tie-offs).
  void describe_environment(sim::PortSet& ports) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Number of cells n(n+1)/2 (valid from construction).
  [[nodiscard]] std::size_t num_pes() const noexcept {
    return n_ * (n_ + 1) / 2;
  }
  /// Cumulative busy cycles of cell `pe` (arena diagonal-major id) — the
  /// monotone counter utilisation timelines sample per cycle.  0 before
  /// elaboration.
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const;

 private:
  class Cell;
  struct Arena;

  std::size_t n_;
  std::vector<Cost> base_;
  Candidates cands_;
  std::unique_ptr<Arena> arena_;
  std::vector<std::unique_ptr<Cell>> cells_;
};

/// The generic triangular array on the simulation engine: compiles `Rule`
/// (same policy concept as TriangularArray) into origin tables and runs
/// the shared core.
template <typename Rule>
class TriangularModularArray {
 public:
  using Result = TriangularModularCore::Result;

  TriangularModularArray(const Rule& rule, std::size_t n)
      : core_(n, compile_base(rule, n), compile_cands(rule, n)) {}

  [[nodiscard]] Result run(sim::Gating gating = sim::Gating::kSparse) {
    return core_.run(gating);
  }
  [[nodiscard]] Result run(sim::Engine& engine) { return core_.run(engine); }
  void elaborate(sim::Engine& engine) { core_.elaborate(engine); }
  void describe_environment(sim::PortSet& ports) const {
    core_.describe_environment(ports);
  }
  [[nodiscard]] std::size_t size() const noexcept { return core_.size(); }
  [[nodiscard]] std::size_t num_pes() const noexcept {
    return core_.num_pes();
  }
  [[nodiscard]] std::uint64_t pe_busy(std::size_t pe) const {
    return core_.pe_busy(pe);
  }

 private:
  static std::vector<Cost> compile_base(const Rule& rule, std::size_t n) {
    std::vector<Cost> base(n);
    for (std::size_t i = 0; i < n; ++i) base[i] = rule.base(i);
    return base;
  }

  /// Evaluate the rule's interval geometry once per candidate, writing the
  /// flat tables in cell-id order (diagonals carry no candidates); the
  /// core rejects a rule whose origins are out of order.  The local cost
  /// is recovered by probing candidate() with zero operands —
  /// every interval rule's candidate is (use_left ? left : 0) +
  /// (use_right ? right : 0) + local, so the zero probe isolates `local`.
  static TriangularModularCore::Candidates compile_cands(const Rule& rule,
                                                         std::size_t n) {
    TriangularModularCore::Candidates c;
    c.cand_base.assign(n * (n + 1) / 2 + 1, 0);
    std::size_t id = n;  // first off-diagonal cell
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i, ++id) {
        c.cand_base[id + 1] = c.cand_base[id] +
                              static_cast<std::uint32_t>(rule.splits(i, i + d));
      }
    }
    const std::size_t total = c.cand_base.back();
    c.row_origin.resize(total);
    c.col_origin.resize(total);
    c.use_left.resize(total);
    c.use_right.resize(total);
    c.local.resize(total);
    std::size_t lane = 0;
    for (std::size_t d = 1; d < n; ++d) {
      for (std::size_t i = 0; i + d < n; ++i) {
        const std::size_t j = i + d;
        const std::size_t k = rule.splits(i, j);
        for (std::size_t t = 0; t < k; ++t, ++lane) {
          const auto [li, lj] = rule.left_interval(i, j, t);
          const auto [ri, rj] = rule.right_interval(i, j, t);
          if (li != i || lj > j || ri < i || rj != j) {
            throw std::invalid_argument(
                "TriangularModularArray: rule's sub-intervals must lie on "
                "the consumer's row and column");
          }
          c.row_origin[lane] = static_cast<std::uint32_t>(lj);
          c.col_origin[lane] = static_cast<std::uint32_t>(ri);
          // Clamp detection: feed a sentinel through a zero probe.  If the
          // rule ignores an operand (empty sub-tree), a sentinel in that
          // slot does not move the result.
          const Cost local = rule.candidate(i, j, t, 0, 0);
          c.use_left[lane] = rule.candidate(i, j, t, 1, 0) != local ? 1 : 0;
          c.use_right[lane] = rule.candidate(i, j, t, 0, 1) != local ? 1 : 0;
          c.local[lane] = local;
        }
      }
    }
    return c;
  }

  TriangularModularCore core_;
};

/// Convenience runners mirroring run_bst_array / run_polygon_array /
/// run_chain_array on the engine-backed model.
[[nodiscard]] TriangularModularCore::Result run_bst_modular(
    const std::vector<Cost>& freq, sim::Gating gating = sim::Gating::kSparse);
[[nodiscard]] TriangularModularCore::Result run_polygon_modular(
    const std::vector<Cost>& weights,
    sim::Gating gating = sim::Gating::kSparse);
[[nodiscard]] TriangularModularCore::Result run_chain_modular(
    const std::vector<Cost>& dims, sim::Gating gating = sim::Gating::kSparse);

}  // namespace sysdp
