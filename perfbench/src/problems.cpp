#include "problems.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>

#include "analysis/netlist.hpp"
#include "analysis/tape_verify.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design1_pipeline.hpp"
#include "arrays/design2_broadcast.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_feedback.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/graph_adapter.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "baseline/matrix_chain.hpp"
#include "baseline/multistage_dp.hpp"
#include "compile/compact.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/optimize.hpp"
#include "core/solver.hpp"
#include "graph/generators.hpp"

namespace perfbench {

using namespace sysdp;

const char* family_name(Family f) {
  switch (f) {
    case Family::kChain: return "chain";
    case Family::kMultistage: return "design1";
    case Family::kDesign2: return "design2";
    case Family::kDesign3: return "design3";
    case Family::kBst: return "bst";
    case Family::kPolygon: return "polygon";
  }
  return "?";
}

std::string Problem::label() const {
  std::string s = family_name(family);
  s += ' ';
  s += std::to_string(n);
  if (width > 0) s += "x" + std::to_string(width);
  return s;
}

std::uint64_t problem_seed(std::uint64_t seed, std::uint32_t id) {
  // splitmix64 of (seed, id): neighbouring ids get unrelated streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + id + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Problem make_problem(Family f, std::size_t n, std::size_t width,
                     std::uint32_t id, std::uint64_t seed) {
  Problem p;
  p.id = id;
  p.family = f;
  p.n = n;
  Rng rng(problem_seed(seed, id));
  switch (f) {
    case Family::kChain:
      p.seq = random_chain_dims(n, rng);
      break;
    case Family::kPolygon:
      p.seq = random_chain_dims(n - 1, rng);  // n vertex weights
      break;
    case Family::kBst: {
      std::uniform_int_distribution<Cost> freq(1, 99);
      p.seq.resize(n);
      for (Cost& x : p.seq) x = freq(rng);
      break;
    }
    case Family::kMultistage:
    case Family::kDesign2:
      p.width = width;
      p.graph = random_multistage(n, width, rng);
      break;
    case Family::kDesign3:
      p.width = width;
      p.nv.emplace(traffic_control_instance(n, width, rng));
      break;
  }
  return p;
}

namespace {

template <typename Rule>
void prepare_interval(Problem& p, const Rule& rule, Cost answer) {
  const auto w = TriangularArray<Rule>(rule, p.n).run();
  p.answer = answer;
  p.witness_cycles = w.stats.cycles;
  p.witness_busy = w.stats.busy_steps;
  p.pes = p.n * (p.n + 1) / 2;
}

template <typename R>
void take_witness(Problem& p, const R& run) {
  p.witness_cycles = run.cycles;
  p.witness_busy = run.busy_steps;
  p.pes = p.width;
}

Cost min_of(const std::vector<Cost>& v) {
  return v.empty() ? kInfCost : *std::min_element(v.begin(), v.end());
}

}  // namespace

void prepare(Problem& p) {
  switch (p.family) {
    case Family::kChain:
      prepare_interval(p, ChainRule(p.seq), matrix_chain_order(p.seq).total());
      return;
    case Family::kPolygon:
      // Minimum-weight triangulation over vertex weights w is the matrix
      // chain over dims w (the polygon/product correspondence).
      prepare_interval(p, PolygonRule(p.seq),
                       matrix_chain_order(p.seq).total());
      return;
    case Family::kBst:
      prepare_interval(p, BstRule(p.seq), optimal_bst(p.seq).total());
      return;
    case Family::kMultistage: {
      auto prob = to_string_product(p.graph);
      take_witness(p, Design1Pipeline<MinPlus>(std::move(prob.mats),
                                               std::move(prob.v))
                          .run());
      p.answer = solve_multistage(p.graph).cost;
      return;
    }
    case Family::kDesign2: {
      auto prob = to_string_product(p.graph);
      take_witness(p, Design2Broadcast<MinPlus>(std::move(prob.mats),
                                                std::move(prob.v))
                          .run());
      p.answer = solve_multistage(p.graph).cost;
      return;
    }
    case Family::kDesign3:
      take_witness(p, Design3Feedback(*p.nv).run().stats);
      p.answer = solve_multistage(p.nv->materialize()).cost;
      return;
  }
}

std::string check(const Problem& p, const Outcome& o) {
  std::string why;
  if (o.answer != p.answer) {
    why = "answer " + std::to_string(o.answer) + " != baseline " +
          std::to_string(p.answer);
  } else if (o.busy != p.witness_busy) {
    why = "busy steps " + std::to_string(o.busy) + " != witness " +
          std::to_string(p.witness_busy);
  }
  return why.empty() ? why : p.label() + ": " + why;
}

namespace {

using ChainArray = TriangularModularArray<ChainRule>;

std::unique_ptr<ChainArray> build_chain(const Problem& p) {
  return std::make_unique<ChainArray>(ChainRule(p.seq), p.n);
}

std::unique_ptr<Design1Modular> build_design1(const Problem& p) {
  auto prob = to_string_product(p.graph);
  return std::make_unique<Design1Modular>(std::move(prob.mats),
                                          std::move(prob.v));
}

/// The optimum a replayed tape holds: the chain root cell, or the best of
/// Design 1's "out" lanes.
Cost extract(const compile::CompiledEngine& ce, const Problem& p) {
  if (p.family == Family::kChain) return ce.output("cell", p.n - 1);
  Cost best = kInfCost;
  for (const auto& o : ce.program().outputs) {
    if (o.tag == "out") best = std::min(best, ce.value(o.slot));
  }
  return best;
}

template <typename Array>
Outcome cold_path(const Problem& p, Array& arr, Tracer* tr, TapeFacts* facts) {
  compile::Lowered low;
  {
    Scope s(tr, "compile.lower", p.id);
    low = compile::lower_array(arr);
  }
  std::size_t errors = 0;
  {
    Scope s(tr, "analysis.verify", p.id);
    errors = analysis::verify_tape(low.net, p.label()).errors();
  }
  if (facts != nullptr) {
    facts->ops = low.net.num_ops();
    facts->levels = low.net.cycles();
    facts->slots = low.net.num_slots;
    facts->params = low.net.num_params();
    facts->lanes = low.net.stats.lanes_bound;
    facts->named_lanes = low.net.stats.named_lanes;
    facts->verify_errors = errors;
  }
  if (errors > 0) {
    throw std::runtime_error(p.label() + ": tape verification found " +
                             std::to_string(errors) + " error(s)");
  }
  std::unique_ptr<compile::CompiledEngine> ce;
  {
    Scope s(tr, "compile.engine", p.id);
    ce = std::make_unique<compile::CompiledEngine>(low.net);
  }
  compile::Divergence div;
  {
    Scope s(tr, "compile.replay", p.id);
    div = ce->run_all_checked();
  }
  Outcome out;
  {
    Scope s(tr, "compile.extract", p.id);
    if (!div.found) div = ce->verify_outputs();
    out.answer = extract(*ce, p);
  }
  if (div.found) {
    throw std::runtime_error(p.label() + ": replay diverged from the oracle");
  }
  out.cycles = low.oracle_cycles;
  out.busy = low.net.stats.oracle_busy_steps;
  return out;
}

}  // namespace

Outcome solve_cold(const Problem& p, Tracer* tr, TapeFacts* facts) {
  if (p.family == Family::kChain) {
    std::unique_ptr<ChainArray> arr;
    {
      Scope s(tr, "arrays.build", p.id);
      arr = build_chain(p);
    }
    return cold_path(p, *arr, tr, facts);
  }
  if (p.family == Family::kMultistage) {
    std::unique_ptr<Design1Modular> arr;
    {
      Scope s(tr, "arrays.build", p.id);
      arr = build_design1(p);
    }
    return cold_path(p, *arr, tr, facts);
  }
  throw std::invalid_argument("solve_cold: no compiled route for " +
                              p.label());
}

namespace {

/// Build the family's modular array under arrays.build, run it under
/// sim.run, and return the run's result.
template <typename Build, typename Run>
auto build_and_run(const Problem& p, sim::Engine& e, Tracer* tr, Build build,
                   Run run) {
  decltype(build()) arr;
  {
    Scope s(tr, "arrays.build", p.id);
    arr = build();
  }
  Scope s(tr, "sim.run", p.id);
  return run(*arr, e);
}

template <typename R>
Outcome outcome_of(Cost answer, const R& stats) {
  return {answer, stats.cycles, stats.busy_steps};
}

template <typename Rule>
Outcome run_interval(const Problem& p, sim::Engine& e, Tracer* tr) {
  using Array = TriangularModularArray<Rule>;
  const auto r = build_and_run(
      p, e, tr, [&] { return std::make_unique<Array>(Rule(p.seq), p.n); },
      [](Array& a, sim::Engine& eng) { return a.run(eng); });
  return outcome_of(r.total(), r.stats);
}

}  // namespace

Outcome run_interpreted(const Problem& p, sim::Gating g, Tracer* tr,
                        SimFacts* facts) {
  sim::Engine e(g);
  Outcome out;
  switch (p.family) {
    case Family::kChain:
      out = run_interval<ChainRule>(p, e, tr);
      break;
    case Family::kBst:
      out = run_interval<BstRule>(p, e, tr);
      break;
    case Family::kPolygon:
      out = run_interval<PolygonRule>(p, e, tr);
      break;
    case Family::kMultistage: {
      const auto r = build_and_run(
          p, e, tr, [&] { return build_design1(p); },
          [](Design1Modular& a, sim::Engine& eng) { return a.run(eng); });
      out = outcome_of(min_of(r.values), r);
      break;
    }
    case Family::kDesign2: {
      const auto r = build_and_run(
          p, e, tr,
          [&] {
            auto prob = to_string_product(p.graph);
            return std::make_unique<Design2Modular>(std::move(prob.mats),
                                                    std::move(prob.v));
          },
          [](Design2Modular& a, sim::Engine& eng) { return a.run(eng); });
      out = outcome_of(min_of(r.values), r);
      break;
    }
    case Family::kDesign3: {
      const auto r = build_and_run(
          p, e, tr, [&] { return std::make_unique<Design3Modular>(*p.nv); },
          [](Design3Modular& a, sim::Engine& eng) { return a.run(eng); });
      out = outcome_of(r.cost, r.stats);
      break;
    }
  }
  if (facts != nullptr) {
    facts->active_evals = e.active_evals();
    facts->dense_evals = e.dense_evals();
  }
  return out;
}

namespace {

template <typename Array>
Outcome probe_array(const Problem& p, Tracer& tr, SimFacts* sim,
                    const std::function<std::unique_ptr<Array>()>& build) {
  {
    Scope root(&tr, "probe.capture", p.id);
    std::unique_ptr<Array> arr;
    {
      Scope s(&tr, "arrays.build", p.id);
      arr = build();
    }
    sim::Engine e;  // the oracle's configuration: serial, dense
    {
      Scope s(&tr, "sim.elaborate", p.id);
      arr->elaborate(e);
    }
    analysis::CaptureOptions copts;
    arr->describe_environment(copts.environment);
    Scope s(&tr, "analysis.capture", p.id);
    const auto netlist = analysis::capture(e, copts);
    if (netlist.storages.empty()) {
      throw std::runtime_error(p.label() + ": capture found no storages");
    }
  }
  Outcome out;
  {
    Scope root(&tr, "probe.sim", p.id);
    out = run_interpreted(p, sim::Gating::kDense, &tr, sim);
  }
  const std::string why = check(p, out);
  if (!why.empty()) throw std::runtime_error(why);
  compile::LowerOptions lo;
  lo.compact = false;
  for (const bool capture : {false, true}) {
    lo.capture_netlist = capture;
    Scope root(&tr, capture ? "probe.provenance" : "probe.record", p.id);
    std::unique_ptr<Array> arr;
    {
      Scope s(&tr, "arrays.build", p.id);
      arr = build();
    }
    compile::Lowered low;
    {
      Scope s(&tr,
              capture ? "compile.lower_nocompact" : "compile.lower_nocapture",
              p.id);
      low = compile::lower_array(*arr, lo);
    }
    if (!capture) {
      Scope s(&tr, "compile.compact", p.id);
      (void)compile::compact_slots(low.net);
    }
  }
  return out;
}

}  // namespace

Outcome probe_lowering(const Problem& p, Tracer& tr, SimFacts* sim) {
  if (p.family == Family::kChain) {
    return probe_array<ChainArray>(p, tr, sim, [&] { return build_chain(p); });
  }
  if (p.family == Family::kMultistage) {
    return probe_array<Design1Modular>(p, tr, sim,
                                       [&] { return build_design1(p); });
  }
  throw std::invalid_argument("probe_lowering: no compiled route for " +
                              p.label());
}

namespace {

template <typename Array>
WarmShape lower_warm(Problem shape, std::vector<Problem> instances,
                     Tracer* tr,
                     const std::function<std::unique_ptr<Array>(const Problem&)>&
                         build) {
  WarmShape w;
  w.shape = std::move(shape);
  w.instances = std::move(instances);
  const std::uint32_t id = w.shape.id;
  std::unique_ptr<Array> arr;
  {
    Scope s(tr, "arrays.build", id);
    arr = build(w.shape);
  }
  compile::LowerOptions lo;
  lo.parameterise = true;
  lo.compact = false;
  compile::Lowered low;
  {
    Scope s(tr, "compile.lower", id);
    low = compile::lower_array(*arr, lo);
  }
  const std::string why =
      check(w.shape, {w.shape.answer, low.oracle_cycles,
                      low.net.stats.oracle_busy_steps});
  if (!why.empty()) throw std::runtime_error(why);
  w.net = std::make_unique<compile::CompiledNetlist>(std::move(low.net));
  {
    Scope s(tr, "compile.optimize", id);
    compile::OptimizeOptions oo;
    oo.level = 2;
    (void)compile::optimize_tape(*w.net, oo);
  }
  {
    Scope s(tr, "compile.compact", id);
    (void)compile::compact_slots(*w.net);
  }
  std::size_t errors = 0;
  {
    Scope s(tr, "analysis.verify", id);
    errors = analysis::verify_tape(*w.net, w.shape.label()).errors();
  }
  if (errors > 0) {
    throw std::runtime_error(w.shape.label() + ": tape verification found " +
                             std::to_string(errors) + " error(s)");
  }
  {
    Scope s(tr, "compile.engine", id);
    w.engine = std::make_unique<compile::CompiledEngine>(*w.net);
  }
  compile::LowerOptions table_opts;
  table_opts.capture_netlist = false;
  table_opts.parameterise = true;
  table_opts.compact = false;
  for (const Problem& p : w.instances) {
    std::string error;
    std::vector<Cost> table;
    std::uint64_t cycles = 0;
    try {
      std::unique_ptr<Array> a;
      {
        Scope s(tr, "arrays.build", p.id);
        a = build(p);
      }
      Scope s(tr, "compile.derive_table", p.id);
      auto t = compile::lower_array(*a, table_opts);
      cycles = t.oracle_cycles;
      error = check(p, {p.answer, cycles, t.net.stats.oracle_busy_steps});
      if (error.empty() && t.net.params.size() != w.net->params.size()) {
        error = p.label() + ": table has " +
                std::to_string(t.net.params.size()) + " params, tape has " +
                std::to_string(w.net->params.size());
      }
      table = std::move(t.net.params);
    } catch (const std::exception& e) {
      error = p.label() + ": " + e.what();
    }
    w.tables.push_back(std::move(table));
    w.table_cycles.push_back(cycles);
    w.table_error.push_back(std::move(error));
  }
  return w;
}

}  // namespace

WarmShape prepare_warm_shape(Problem shape, std::vector<Problem> instances,
                             Tracer* tr) {
  if (shape.family == Family::kChain) {
    return lower_warm<ChainArray>(std::move(shape), std::move(instances), tr,
                                  build_chain);
  }
  if (shape.family == Family::kMultistage) {
    return lower_warm<Design1Modular>(std::move(shape), std::move(instances),
                                      tr, build_design1);
  }
  throw std::invalid_argument("prepare_warm_shape: no compiled route for " +
                              shape.label());
}

Cost warm_request(WarmShape& w, std::size_t k, Tracer* tr) {
  const Problem& p = w.instances[k];
  {
    Scope s(tr, "compile.bind", p.id);
    w.engine->bind(w.tables[k]);
  }
  {
    Scope s(tr, "compile.replay", p.id);
    w.engine->reset();
    w.engine->run_all();
  }
  Scope s(tr, "compile.extract", p.id);
  return extract(*w.engine, p);
}

void run_floors(const Problem& p, Tracer& tr) {
  Cost base = 0;
  {
    Scope s(&tr, "baseline.solve", p.id);
    switch (p.family) {
      case Family::kChain:
      case Family::kPolygon:
        base = matrix_chain_order(p.seq).total();
        break;
      case Family::kBst:
        base = optimal_bst(p.seq).total();
        break;
      case Family::kMultistage:
      case Family::kDesign2:
        base = solve_multistage(p.graph).cost;
        break;
      case Family::kDesign3:
        base = solve_multistage(p.nv->materialize()).cost;
        break;
    }
  }
  Cost core = base;
  // BST and polygon have no src/core route, so they get no core span.
  if (p.family == Family::kChain) {
    Scope s(&tr, "core.solve", p.id);
    core = solve_chain_order(p.seq).cost;
  } else if (p.family == Family::kMultistage ||
             p.family == Family::kDesign2) {
    Scope s(&tr, "core.solve", p.id);
    core = solve_monadic_serial(p.graph).cost;
  } else if (p.family == Family::kDesign3) {
    Scope s(&tr, "core.solve", p.id);
    core = solve_monadic_serial(*p.nv).cost;
  }
  if (base != p.answer || core != p.answer) {
    throw std::runtime_error(p.label() + ": reference floors disagree");
  }
}

}  // namespace perfbench
