// Problem instances of the end-to-end benchmark and the library calls that
// solve them.  Every instance carries, from set-up, its src/baseline answer
// and its analytic witness's cycles and busy steps, so a timed solve is
// checked by comparisons alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compile/engine.hpp"
#include "compile/program.hpp"
#include "graph/multistage_graph.hpp"
#include "graph/node_value_graph.hpp"
#include "semiring/cost.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"

namespace perfbench {

using sysdp::Cost;

/// The engine-backed array families.  kChain and kMultistage are the two
/// the compiled backend lowers (TriangularModularArray<ChainRule> and
/// Design1Modular); the rest run interpreted only.
enum class Family { kChain, kMultistage, kDesign2, kDesign3, kBst, kPolygon };

[[nodiscard]] const char* family_name(Family f);

struct Problem {
  std::uint32_t id = 0;
  Family family = Family::kChain;
  /// Interval families: matrices / keys / vertices.  Graph families: stages.
  std::size_t n = 0;
  /// Graph families: nodes per stage (one PE each).
  std::size_t width = 0;
  /// Chain dims, BST frequencies or polygon vertex weights.
  std::vector<Cost> seq;
  sysdp::MultistageGraph graph;             ///< Design 1 / Design 2
  std::optional<sysdp::NodeValueGraph> nv;  ///< Design 3

  // Filled by prepare(), before any timed phase.
  Cost answer = 0;                   ///< src/baseline optimum
  std::uint64_t witness_cycles = 0;  ///< analytic model's cycle count
  std::uint64_t witness_busy = 0;    ///< analytic model's busy steps
  std::uint64_t pes = 0;             ///< processing elements of the array

  [[nodiscard]] std::string label() const;
};

/// Independent generator stream for problem `id` of run `seed`.
[[nodiscard]] std::uint64_t problem_seed(std::uint64_t seed, std::uint32_t id);

/// Draw one instance.  Interval families take `n` (matrices, keys or
/// vertices); graph families take `n` stages of `width` nodes.
[[nodiscard]] Problem make_problem(Family f, std::size_t n, std::size_t width,
                                   std::uint32_t id, std::uint64_t seed);

/// Compute the baseline answer and the witness counts (set-up work).
void prepare(Problem& p);

/// What one run of a design produced, for checking against the problem.
struct Outcome {
  Cost answer = 0;
  std::uint64_t cycles = 0;  ///< simulated cycles of the engine/oracle run
  std::uint64_t busy = 0;    ///< busy steps of that run
};

/// Empty string when `o` matches the problem's baseline answer and witness
/// busy steps; otherwise a description of the mismatch.  Cycle counts are
/// not judged here: their excess over the witness is a reported metric.
[[nodiscard]] std::string check(const Problem& p, const Outcome& o);

/// Layer facts a cold compiled solve reports besides its answer.
struct TapeFacts {
  std::uint64_t ops = 0;
  std::uint64_t levels = 0;
  std::uint64_t slots = 0;
  std::uint64_t params = 0;
  std::uint64_t lanes = 0;
  std::uint64_t named_lanes = 0;
  std::uint64_t verify_errors = 0;
};

/// Cold compiled solve, as `sysdp_tool solve --engine=compiled` runs it at
/// opt 0: lower_array, verify_tape, CompiledEngine, run_all_checked +
/// verify_outputs, extract.  Chain and multistage problems only.  Throws
/// on a verifier finding or a divergence.
[[nodiscard]] Outcome solve_cold(const Problem& p, Tracer* tr,
                                 TapeFacts* facts = nullptr);

/// Engine counters of an interpreted run.
struct SimFacts {
  std::uint64_t active_evals = 0;
  std::uint64_t dense_evals = 0;
};

/// Interpreted run of the problem's modular array on a serial
/// sim::Engine with the given gating (kSparse is every array's default,
/// kDense is the lowering oracle's configuration).
[[nodiscard]] Outcome run_interpreted(const Problem& p, sysdp::sim::Gating g,
                                      Tracer* tr, SimFacts* facts = nullptr);

/// The pieces of lower_array timed from outside with public calls, each
/// under its own root span: analysis::capture on a freshly elaborated
/// engine, the oracle-configuration sim run, lower_array without capture
/// or compaction, compact_slots on that tape, and lower_array with capture
/// but without compaction.  Chain and multistage problems only.  Returns the checked outcome of the sim run and fills
/// its engine counters; throws on a mismatch.
[[nodiscard]] Outcome probe_lowering(const Problem& p, Tracer& tr,
                                     SimFacts* sim);

/// A warm shape: one parameterised tape, lowered at opt 2, verified and
/// loaded into an engine, plus K same-shape instances with their weight
/// tables.  Requests bind a table and replay; nothing is re-lowered.
struct WarmShape {
  Problem shape;  ///< the instance whose lowering defined the tape
  /// Heap-held so its address, which the engine keeps, survives moves.
  std::unique_ptr<sysdp::compile::CompiledNetlist> net;
  std::unique_ptr<sysdp::compile::CompiledEngine> engine;
  std::vector<Problem> instances;
  std::vector<std::vector<Cost>> tables;
  /// Cycles of the oracle run that produced each table.
  std::vector<std::uint64_t> table_cycles;
  /// Why a table is unusable (empty when it is fine); requests on a bad
  /// table count as failed.
  std::vector<std::string> table_error;
};

/// Set-up of one warm shape.  Lowers `shape` with the parameter plane and
/// netlist capture, then optimize_tape at level 2 and compact_slots (the
/// steps lower_array runs for LowerOptions::optimize = 2, called one by
/// one so each gets a span), verifies the tape and builds its engine.
/// Each instance's weight table comes from its own parameterised lowering
/// with capture off, the only route the library offers from a problem to
/// a table; that oracle run's busy steps are checked against the
/// instance's witness.  Throws if the shape's own tape is unusable.
[[nodiscard]] WarmShape prepare_warm_shape(Problem shape,
                                           std::vector<Problem> instances,
                                           Tracer* tr);

/// One warm request: bind instance k's table, reset, run_all, extract.
[[nodiscard]] Cost warm_request(WarmShape& w, std::size_t k, Tracer* tr);

/// Reference floors, each under its own root span: the src/baseline DP
/// and, where the family has one, the default src/core route.
void run_floors(const Problem& p, Tracer& tr);

}  // namespace perfbench
