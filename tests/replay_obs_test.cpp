// Compiled-replay observability: provenance-driven waveforms, per-module
// timelines and the replay profiler exported as sysdp-profile-v1.
//
// The telemetry contract under test has three legs:
//
//   * name parity — every signal the compiled VCD renders also exists in
//     the interpreted run's VCD (provenance lanes resolve to the same
//     module/port labels obs::VcdSink scopes);
//   * determinism — VCD, timeline JSON and the profile document (timing
//     omitted) are byte-identical across batch widths and across
//     compacted vs. uncompacted tapes, because every emitted byte is a
//     function of the tape alone;
//   * accounting — profiler per-level op counts equal the tape's CSR
//     level sizes, the timeline aggregate equals ops_executed, and the
//     ReplayResult kind totals match the profiler's.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "analysis/tape_verify.hpp"
#include "compile/engine.hpp"
#include "compile/lower.hpp"
#include "compile/profile.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/replay.hpp"
#include "obs/vcd.hpp"
#include "sim/engine.hpp"

namespace sysdp {
namespace {

std::pair<std::vector<Matrix<Cost>>, std::vector<Cost>> string_instance(
    std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  auto mats = random_matrix_string(q, m, rng);
  std::vector<Cost> v(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : v) x = dist(rng);
  return {std::move(mats), std::move(v)};
}

compile::Lowered lower_design1(std::size_t q, std::size_t m,
                               std::uint64_t seed, bool compact = true) {
  const auto [mats, v] = string_instance(q, m, seed);
  Design1Modular arr(mats, v);
  compile::LowerOptions opt;
  opt.compact = compact;
  return compile::lower_array(arr, opt);
}

/// Signal names declared in a VCD header, in document order.
std::vector<std::string> vcd_var_names(const std::string& doc) {
  std::vector<std::string> names;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    const auto pos = line.find("$var integer 64 ");
    if (pos == std::string::npos) continue;
    // "$var integer 64 <id> <name> $end" — the name is the second token
    // after the width.
    std::istringstream fields(line.substr(pos + 16));
    std::string id;
    std::string name;
    fields >> id >> name;
    names.push_back(name);
  }
  return names;
}

bool balanced_json(const std::string& doc) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : doc) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

// ---------------------------------------------------------------------------
// Provenance tables on lowered designs

TEST(ReplayProvenance, LoweredDesignsCarryVerifiedProvenance) {
  const auto check = [](const compile::Lowered& low, const char* what,
                        bool expect_named) {
    SCOPED_TRACE(what);
    const compile::Provenance& prov = low.net.provenance;
    EXPECT_FALSE(prov.empty());
    EXPECT_FALSE(prov.binds.empty());
    EXPECT_EQ(prov.op_lane.size(), low.net.num_ops());
    std::size_t named = 0;
    for (const auto& lane : prov.lanes) named += lane.named ? 1u : 0u;
    if (expect_named) {
      EXPECT_GT(named, 0u);
      EXPECT_FALSE(prov.modules.empty());
    }
    // The ninth static check accepts what lowering emitted.
    const auto rep = analysis::verify_tape(low.net, what);
    EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
    EXPECT_EQ(rep.stats.provenance_lanes, prov.lanes.size());
    EXPECT_EQ(rep.stats.provenance_binds, prov.binds.size());
  };

  check(lower_design1(3, 6, 42), "design1", true);
  {
    Rng rng(7);
    const ChainRule rule(random_chain_dims(5, rng));
    TriangularModularArray<ChainRule> arr(rule, rule.num_matrices());
    // The triangle narrates each cell's value m(i, j) and names it
    // cell[i,j] in the cell's module.
    check(compile::lower_array(arr), "triangular-chain", true);
  }
  {
    std::vector<Cost> costs{3, 1, 4, 1, 5, 9};
    const BstRule rule(costs);
    TriangularModularArray<BstRule> arr(rule, rule.num_keys());
    check(compile::lower_array(arr), "triangular-bst", true);
  }
  {
    const auto [mats, v] = string_instance(2, 4, 5);
    Design2Modular arr(mats, v);
    // Design 2's accumulators have no port, so their lanes stay unnamed;
    // the S registers and snapshots are named.
    check(compile::lower_array(arr), "design2", true);
  }
}

// ---------------------------------------------------------------------------
// Waveform name parity with the interpreted run

/// Run `make()` interpreted with a VcdSink and lower a twin: every signal
/// the compiled VCD renders must also be in the interpreted document.
template <typename Make>
void expect_vcd_names_subset(const char* what, Make make) {
  SCOPED_TRACE(what);
  auto interp_arr = make();
  sim::Engine engine;
  obs::VcdSink interp_vcd("sysdp");
  engine.add_observer(&interp_vcd);
  (void)interp_arr.run(engine);
  const auto interp_names = vcd_var_names(interp_vcd.str());
  ASSERT_FALSE(interp_names.empty());
  const std::set<std::string> interp_set(interp_names.begin(),
                                         interp_names.end());

  auto arr = make();
  const auto low = compile::lower_array(arr);
  compile::CompiledEngine ce(low.net);
  obs::ReplayVcdSink vcd("sysdp");
  ce.add_observer(&vcd);
  ce.run_all();

  EXPECT_GT(vcd.num_signals(), 0u);
  for (const std::string& name : vcd.signal_names()) {
    EXPECT_TRUE(interp_set.count(name))
        << "compiled signal '" << name << "' missing from interpreted VCD";
  }
  // The header declares exactly the probes the sink reports.
  EXPECT_EQ(vcd_var_names(vcd.str()), vcd.signal_names());
}

TEST(ReplayVcd, SignalNamesAreASubsetOfTheInterpretedDocument) {
  const auto [mats, v] = string_instance(3, 6, 42);
  expect_vcd_names_subset("design1", [&] { return Design1Modular(mats, v); });
  // The triangles render one cell[i,j] signal per cell.
  expect_vcd_names_subset("triangular-chain", [] {
    return TriangularModularArray<ChainRule>(ChainRule({5, 3, 8, 2, 6, 4}),
                                             5);
  });
  expect_vcd_names_subset("triangular-bst", [] {
    return TriangularModularArray<BstRule>(BstRule({3, 1, 4, 1, 5}), 5);
  });
  expect_vcd_names_subset("triangular-polygon", [] {
    return TriangularModularArray<PolygonRule>(
        PolygonRule({2, 4, 3, 5, 1, 6}), 6);
  });
}

TEST(ReplayVcd, DocumentIsByteIdenticalAcrossBatchWidths) {
  const auto low = lower_design1(3, 6, 42);

  compile::CompiledEngine scalar(low.net);
  obs::ReplayVcdSink scalar_vcd;
  scalar.add_observer(&scalar_vcd);
  scalar.run_all();
  const std::string golden = scalar_vcd.str();
  ASSERT_FALSE(golden.empty());

  for (const std::uint32_t lanes : {1u, 2u, 8u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    compile::CompiledEngine batched(low.net, lanes);
    obs::ReplayVcdSink vcd;  // lane 0
    batched.add_observer(&vcd);
    batched.run_all();
    EXPECT_EQ(vcd.str(), golden);
  }
}

TEST(ReplayVcd, DocumentIsByteIdenticalAcrossCompaction) {
  const auto compacted = lower_design1(2, 4, 11, /*compact=*/true);
  const auto ssa = lower_design1(2, 4, 11, /*compact=*/false);
  ASSERT_TRUE(compacted.net.compacted());
  ASSERT_FALSE(ssa.net.compacted());

  const auto render = [](const compile::CompiledNetlist& net) {
    compile::CompiledEngine ce(net);
    obs::ReplayVcdSink vcd;
    ce.add_observer(&vcd);
    ce.run_all();
    return vcd.str();
  };
  EXPECT_EQ(render(compacted.net), render(ssa.net));
}

TEST(ReplayVcd, RejectsLanePastTheBatchWidth) {
  const auto low = lower_design1(1, 4, 3);
  compile::CompiledEngine ce(low.net);
  obs::ReplayVcdSink vcd("sysdp", /*lane=*/2);
  EXPECT_THROW(ce.add_observer(&vcd), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Per-module timeline accounting

TEST(ReplayTimeline, AggregateEqualsOpsExecuted) {
  const auto low = lower_design1(3, 6, 42);
  compile::CompiledEngine ce(low.net);
  obs::ReplayTimelineSink timeline;
  ce.add_observer(&timeline);
  ce.run_all();
  timeline.finalize();

  const compile::ReplayResult res = ce.result();
  EXPECT_EQ(timeline.aggregate_busy(), res.ops_executed);
  EXPECT_EQ(res.ops_executed, low.net.num_ops());
  EXPECT_GT(timeline.utilization(), 0.0);
  EXPECT_LE(timeline.utilization(), 1.0);
  EXPECT_FALSE(timeline.pe_names().empty());
  EXPECT_TRUE(balanced_json(timeline.to_json()));
}

/// Replay `net` with a timeline attached.
std::unique_ptr<obs::ReplayTimelineSink> replay_timeline(
    const compile::CompiledNetlist& net, std::uint64_t& ops_executed) {
  compile::CompiledEngine ce(net);
  auto timeline = std::make_unique<obs::ReplayTimelineSink>();
  ce.add_observer(timeline.get());
  ce.run_all();
  timeline->finalize();
  ops_executed = ce.result().ops_executed;
  return timeline;
}

/// Busy total of each timeline row.
std::vector<std::uint64_t> row_totals(const obs::ReplayTimelineSink& t) {
  std::vector<std::uint64_t> out;
  for (const auto& row : t.timeline().per_pe()) {
    std::uint64_t sum = 0;
    for (const std::uint64_t x : row) sum += x;
    out.push_back(sum);
  }
  return out;
}

TEST(ReplayTimeline, UnattributedOpsLandOnTheirOwnRow) {
  // Design 2's MACs are first captured by the accumulator, which has no
  // port: its lanes stay unnamed, so its ops carry no module.
  const auto [mats, v] = string_instance(2, 4, 5);
  Design2Modular arr(mats, v);
  const auto low = compile::lower_array(arr);
  const compile::Provenance& prov = low.net.provenance;
  std::uint64_t unattributed = 0;
  for (std::uint64_t i = 0; i < low.net.num_ops(); ++i) {
    unattributed += prov.module_of_op(i) == compile::Provenance::kNone;
  }
  ASSERT_GT(unattributed, 0u);

  std::uint64_t ops = 0;
  const auto timeline = replay_timeline(low.net, ops);
  // The sink adds the single "(unattributed)" row after the module rows,
  // and the aggregate still balances.
  ASSERT_EQ(timeline->pe_names().size(), prov.modules.size() + 1);
  EXPECT_EQ(timeline->pe_names().back(), "(unattributed)");
  EXPECT_EQ(row_totals(*timeline).back(), unattributed);
  EXPECT_EQ(timeline->aggregate_busy(), ops);
}

TEST(ReplayTimeline, TriangleHasOneRowPerCellModule) {
  Rng rng(7);
  const ChainRule rule(random_chain_dims(4, rng));
  const std::size_t n = rule.num_matrices();
  TriangularModularArray<ChainRule> arr(rule, n);
  const auto low = compile::lower_array(arr);
  const compile::Provenance& prov = low.net.provenance;

  std::uint64_t ops = 0;
  const auto timeline = replay_timeline(low.net, ops);
  // Every op is attributed to the cell that folds it: one PE row per cell
  // module t<i>_<j>, no "(unattributed)" row, and each row's busy total is
  // its cell's fold count.
  EXPECT_EQ(timeline->pe_names(), prov.modules);
  EXPECT_EQ(prov.modules.size(), n * (n + 1) / 2);
  std::vector<std::uint64_t> folds(prov.modules.size(), 0);
  for (std::uint64_t i = 0; i < low.net.num_ops(); ++i) {
    ASSERT_LT(prov.module_of_op(i), folds.size());
    ++folds[prov.module_of_op(i)];
  }
  const std::vector<std::uint64_t> rows = row_totals(*timeline);
  EXPECT_EQ(rows, folds);
  std::uint64_t sum = 0;
  for (const std::uint64_t r : rows) sum += r;
  EXPECT_EQ(sum, ops);
  EXPECT_EQ(timeline->aggregate_busy(), ops);
}

TEST(ReplayTimeline, TimelineAccessBeforeAnyReplayThrows) {
  obs::ReplayTimelineSink timeline;
  EXPECT_THROW((void)timeline.timeline(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Profiler accounting

TEST(ReplayProfiler, PerLevelOpsMatchTheCycleIndex) {
  const auto low = lower_design1(3, 6, 42);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  ASSERT_EQ(prof.levels().size(), low.net.cycles());
  for (sim::Cycle t = 0; t < low.net.cycles(); ++t) {
    const std::uint64_t expected =
        low.net.cycle_off[t + 1] - low.net.cycle_off[t];
    EXPECT_EQ(prof.levels()[t].ops, expected) << "level " << t;
    EXPECT_EQ(prof.levels()[t].visits, 1u) << "level " << t;
  }
  EXPECT_EQ(prof.total_ops(), low.net.num_ops());

  const compile::ReplayResult res = ce.result();
  EXPECT_EQ(prof.total_mac(), res.mac_ops);
  EXPECT_EQ(prof.total_fold(), res.fold_ops);
  EXPECT_EQ(prof.total_relax(), res.relax_ops);
  EXPECT_EQ(prof.total_ops(), res.ops_executed);
  ASSERT_EQ(prof.replays().size(), 1u);
  EXPECT_EQ(prof.replays()[0].ops, res.ops_executed);
  EXPECT_EQ(prof.replays()[0].lanes, 1u);
}

TEST(ReplayProfiler, AccumulatesAcrossResetsAndBatchWidths) {
  const auto low = lower_design1(2, 4, 9);
  compile::ReplayProfiler prof;

  compile::CompiledEngine ce(low.net);
  ce.add_observer(&prof);
  ce.run_all();
  ce.reset();
  ce.run_all();

  compile::CompiledEngine batched(low.net, 4);
  batched.add_observer(&prof);
  batched.run_all();
  prof.finish();

  ASSERT_EQ(prof.replays().size(), 3u);
  EXPECT_EQ(prof.replays()[0].ops, low.net.num_ops());
  EXPECT_EQ(prof.replays()[1].ops, low.net.num_ops());
  // A B-lane replay counts op-lane executions.
  EXPECT_EQ(prof.replays()[2].ops, low.net.num_ops() * 4u);
  EXPECT_EQ(prof.replays()[2].lanes, 4u);
  EXPECT_EQ(prof.total_ops(), low.net.num_ops() * 6u);
  for (const auto& agg : prof.levels()) {
    if (agg.ops == 0) continue;
    EXPECT_EQ(agg.visits, 3u);
  }
  EXPECT_GE(prof.replay_skew(), 0.0);
}

// ---------------------------------------------------------------------------
// Exported documents

TEST(ProfileJson, TimingFreeDocumentIsDeterministicAcrossConfigurations) {
  const auto render = [](const compile::CompiledNetlist& net,
                         std::uint32_t lanes) {
    compile::ReplayProfiler prof;
    if (lanes == 1) {
      compile::CompiledEngine ce(net);
      ce.add_observer(&prof);
      ce.run_all();
    } else {
      compile::CompiledEngine ce(net, lanes);
      ce.add_observer(&prof);
      ce.run_all();
    }
    prof.finish();
    obs::ProfileJsonOptions opt;
    opt.include_timing = false;
    return obs::profile_json("design1", net, prof, opt);
  };

  const auto compacted = lower_design1(2, 4, 11, /*compact=*/true);
  const auto ssa = lower_design1(2, 4, 11, /*compact=*/false);
  const std::string golden = render(compacted.net, 1);
  EXPECT_TRUE(balanced_json(golden));
  EXPECT_NE(golden.find("\"schema\": \"sysdp-profile-v1\""),
            std::string::npos);
  EXPECT_NE(golden.find("\"design\": \"design1\""), std::string::npos);
  // Timing fields are the nondeterministic half; they must be absent.
  EXPECT_EQ(golden.find("wall_ns"), std::string::npos);

  EXPECT_EQ(render(compacted.net, 1), golden);
  // Per-level structure ignores slot naming; only the tape block differs
  // between compacted and SSA tapes, so compare from the totals on.
  const std::string ssa_doc = render(ssa.net, 1);
  const auto tail = [](const std::string& doc) {
    const auto pos = doc.find("\"totals\"");
    return pos == std::string::npos ? doc : doc.substr(pos);
  };
  EXPECT_EQ(tail(ssa_doc), tail(golden));
}

TEST(ProfileJson, TimedDocumentCarriesTheTimingBlock) {
  const auto low = lower_design1(1, 4, 5);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  const std::string doc = obs::profile_json("d1", low.net, prof);
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("\"timing\""), std::string::npos);
  EXPECT_NE(doc.find("\"replay_wall_ns\""), std::string::npos);
}

TEST(ProfileMetrics, FillsHistogramsCountersAndSkew) {
  const auto low = lower_design1(2, 4, 9);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  for (int r = 0; r < 3; ++r) {
    ce.reset();
    ce.run_all();
  }
  prof.finish();

  obs::MetricsRegistry metrics;
  obs::profile_metrics(metrics, prof);
  EXPECT_EQ(metrics.counter("replay.count"), 4u);
  EXPECT_EQ(metrics.counter("replay.ops"), low.net.num_ops() * 4u);
  ASSERT_EQ(metrics.histograms().count("replay.wall_ns"), 1u);
  EXPECT_EQ(metrics.histograms().at("replay.wall_ns").count(), 4u);
  ASSERT_EQ(metrics.histograms().count("replay.level_ns"), 1u);
  // Histograms promote the document to sysdp-metrics-v2.
  const std::string doc = obs::metrics_json("d1", metrics, nullptr);
  EXPECT_NE(doc.find("\"schema\": \"sysdp-metrics-v2\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_TRUE(balanced_json(doc));
}

TEST(ReplayTrace, ChromeSpansAreWellFormedAndCycleAligned) {
  const auto low = lower_design1(2, 4, 9);
  compile::CompiledEngine ce(low.net);
  compile::ReplayProfiler prof;
  ce.add_observer(&prof);
  ce.run_all();
  prof.finish();

  obs::ChromeTraceWriter trace;
  obs::append_replay_trace(trace, "design1", prof, 4);
  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  const std::string doc = trace.str();
  EXPECT_TRUE(balanced_json(doc));
  EXPECT_NE(doc.find("compiled replay (design1)"), std::string::npos);
  // One complete span per non-empty level.
  std::size_t spans = 0;
  for (std::size_t pos = doc.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = doc.find("\"ph\": \"X\"", pos + 1)) {
    ++spans;
  }
  std::size_t nonempty = 0;
  for (const auto& agg : prof.levels()) nonempty += agg.ops > 0 ? 1u : 0u;
  EXPECT_EQ(spans, nonempty);
}

}  // namespace
}  // namespace sysdp
