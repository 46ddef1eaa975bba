// Static tape verifier tests: hand-corrupted fixtures (one per check, each
// tripping exactly that check), clean verdicts over every registry design
// in all three tape variants, and the int32 certification of the largest
// bench_all instance.  The dynamic counterpart — checked replay against
// the oracle — lives in compile_test.cpp / differential_test.cpp; this
// file proves the *static* half catches the corruptions replay would only
// stumble over at run time, and the exact diagnostic text (sites, to_text,
// to_json) the corrupt fixtures produce.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../examples/design_registry.hpp"
#include "analysis/tape_verify.hpp"
#include "compile/lower.hpp"
#include "compile/program.hpp"
#include "graph/generators.hpp"

namespace sysdp {
namespace {

using analysis::Severity;
using analysis::TapeVerifier;
using analysis::TapeVerifyOptions;
using analysis::TapeVerifyReport;
using compile::OpKind;

/// Two-level (MIN,+) tape that verifies completely clean:
///   slots: 0 = const 10, 1 = const 4, 2 = mid, 3 = out
///   L0: mid = min(slot0, 5 + slot1) = 9
///   L1: out = min(mid, 3 + slot0)   = 9
compile::CompiledNetlist small_tape() {
  compile::CompiledNetlist net;
  net.num_slots = 4;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
             {3, 2, 0, 0, 3, OpKind::kMac, 1}};
  net.cycle_off = {0, 1, 2};
  net.expected = {9, 9};
  net.outputs = {{"res", 0, 3, 9}};
  return net;
}

std::size_t count_check(const TapeVerifyReport& r, std::string_view check,
                        Severity sev) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics) {
    if (d.check == check && d.severity == sev) ++n;
  }
  return n;
}

/// The fixture contract: the corruption trips exactly one finding at
/// warning-or-above, and it is the named check at the named severity.
/// (Note-level schedule statistics may ride along; they are informational
/// by design.)
void expect_exactly(const TapeVerifyReport& r, std::string_view check,
                    Severity sev) {
  std::size_t above_note = 0;
  for (const auto& d : r.diagnostics) {
    if (d.severity >= Severity::kWarning) ++above_note;
  }
  EXPECT_EQ(above_note, 1u) << r.to_text();
  EXPECT_EQ(count_check(r, check, sev), 1u) << r.to_text();
}

TEST(TapeVerify, CleanTapePassesAllChecks) {
  const auto rep = analysis::verify_tape(small_tape(), "clean");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_EQ(rep.stats.ops, 2u);
  EXPECT_EQ(rep.stats.dependence_depth, 2u);
  EXPECT_EQ(rep.stats.transport_slack_ops, 0u);
  EXPECT_TRUE(rep.stats.int32_safe);
  EXPECT_NO_THROW(analysis::verify_tape_or_throw(small_tape(), "clean"));
}

// ---------------------------------------------------------------------
// One hand-corrupted fixture per check.

TEST(TapeVerify, StructureFixtureSlotOutOfBounds) {
  auto net = small_tape();
  net.ops[0].b = 9;  // tape declares 4 slots
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kTapeStructure, Severity::kError);
  // The gate held: no deeper check ran against the corrupt tape.
  EXPECT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
}

TEST(TapeVerify, StructureFixtureBrokenCycleIndex) {
  auto net = small_tape();
  net.cycle_off = {0, 2, 1};  // not monotone
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kTapeStructure, Severity::kError);
}

TEST(TapeVerify, DefBeforeUseFixtureDanglingSlot) {
  auto net = small_tape();
  net.num_slots = 5;
  net.ops[0].b = 4;  // slot 4 exists but nothing ever writes it
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kDefBeforeUse, Severity::kError);
}

TEST(TapeVerify, LevelScheduleFixtureCrossKindInLevelChain) {
  auto net = small_tape();
  // Pull op 1 into level 0 and make it a fold: it now consumes the mac's
  // same-level result across kinds, which pins the level out of the
  // optimizer's kind-major reordering.
  net.ops[1] = {3, 0, 2, 1, 3, OpKind::kFold, 1};
  net.cycle_off = {0, 2, 2};
  net.expected = {9, 10};
  net.outputs[0].expected = 10;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kLevelSchedule, Severity::kWarning);
  EXPECT_EQ(rep.stats.in_level_chains, 1u);
}

TEST(TapeVerify, LevelScheduleFixtureReadFromFuture) {
  auto net = small_tape();
  std::swap(net.ops[0], net.ops[1]);  // consumer now precedes its producer
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(count_check(rep, TapeVerifier::kLevelSchedule, Severity::kError),
            1u)
      << rep.to_text();
}

TEST(TapeVerify, LevelScheduleReportsTransportSlack) {
  auto net = small_tape();
  // An empty level between producer and consumer: one level of transport
  // slack, measured and legal.
  net.cycle_off = {0, 1, 1, 2};
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_TRUE(rep.clean()) << rep.to_text();
  EXPECT_EQ(rep.stats.max_transport_slack, 1u);
}

TEST(TapeVerify, SingleAssignmentFixtureDoubleWrite) {
  auto net = small_tape();
  // A second same-kind writer of slot 2 ahead of the reader: reachability
  // stays intact, only the SSA discipline breaks.
  net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
             {2, 2, 1, 0, 7, OpKind::kMac, 1},
             {3, 2, 0, 0, 3, OpKind::kMac, 2}};
  net.cycle_off = {0, 1, 3};
  net.expected = {9, 9, 9};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kSingleAssignment, Severity::kError);
}

TEST(TapeVerify, SingleAssignmentFixtureDuplicateInit) {
  auto net = small_tape();
  net.init = {{0, 10}, {1, 4}, {0, 10}};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kSingleAssignment, Severity::kError);
}

TEST(TapeVerify, OutputReachabilityFixtureUnwrittenOutput) {
  auto net = small_tape();
  net.num_slots = 5;
  net.outputs.push_back({"res", 1, 4, 0});  // slot 4 is never written
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kOutputReachability, Severity::kError);
}

TEST(TapeVerify, OutputReachabilityFixtureDeadOp) {
  auto net = small_tape();
  net.outputs[0].slot = 2;  // observe the midpoint; the final mac is dead
  net.outputs[0].expected = 9;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kOutputReachability, Severity::kWarning);
  EXPECT_EQ(rep.stats.dead_ops, 1u);
}

TEST(TapeVerify, ValueRangeFixtureSaturationClip) {
  auto net = small_tape();
  // Finite but sentinel-adjacent constant: adding the weight crosses into
  // the infinity band, which sat_add() would silently clamp.
  net.init[1].value = kInfCost - 5;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kValueRange, Severity::kError);
  EXPECT_FALSE(rep.stats.int32_safe);
}

TEST(TapeVerify, ValueRangeFixtureBoundExceeded) {
  auto net = small_tape();
  net.init[1].value = Cost{3000000000};  // finite, above the int32 bound
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kValueRange, Severity::kWarning);
  EXPECT_FALSE(rep.stats.int32_safe);
  EXPECT_GT(rep.stats.max_abs_finite, Cost{2147483647});
}

TEST(TapeVerify, CompactionSafetyFixtureOverlappingReuse) {
  // A compacted tape that redefines slot 1 in the same level it is still
  // being read — overlapping live ranges sharing one physical slot.
  compile::CompiledNetlist net;
  net.num_slots = 2;
  net.init = {{0, 5}};
  net.ops = {{1, 0, 0, 0, 2, OpKind::kMac, 0},
             {1, 1, 0, 0, 3, OpKind::kMac, 1}};
  net.cycle_off = {0, 1, 2};
  net.expected = {5, 5};
  net.outputs = {{"res", 0, 1, 5}};
  net.stats.compacted = true;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kCompactionSafety, Severity::kError);
}

TEST(TapeVerify, BindPlaneFixtureOracleBindingMismatch) {
  auto net = small_tape();
  net.parameterised = true;
  net.params = {5, 99};  // op 1 bakes w=3, the plane claims 99
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kBindPlane, Severity::kError);
}

TEST(TapeVerify, BindPlaneFixtureStrayPlane) {
  auto net = small_tape();
  net.params = {5, 3};  // plane present, parameterised flag off
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kBindPlane, Severity::kError);
}

/// small_tape() plus a consistent one-lane provenance table: the initial
/// image binds slot 0 at reset, then the two op results as they commit.
compile::CompiledNetlist provenanced_tape() {
  auto net = small_tape();
  compile::Provenance& prov = net.provenance;
  prov.modules = {"pe"};
  prov.lanes = {{"pe", "acc", 0, true}};
  prov.binds = {{0, 0, 0}, {1, 0, 2}, {2, 0, 3}};
  prov.op_lane = {0, 0};
  return net;
}

TEST(TapeVerify, ProvenancedTapeVerifiesCleanWithStats) {
  const auto rep = analysis::verify_tape(provenanced_tape(), "clean");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_EQ(rep.stats.provenance_lanes, 1u);
  EXPECT_EQ(rep.stats.provenance_binds, 3u);
  EXPECT_EQ(rep.stats.ops_attributed, 2u);
  EXPECT_NE(rep.to_text().find("provenance: 1 lanes, 3 binds"),
            std::string::npos)
      << rep.to_text();
  EXPECT_NE(rep.to_json().find("\"provenance_binds\": 3"), std::string::npos);
}

TEST(TapeVerify, ProvenanceFixtureOpLaneNeitherAbsentNorParallel) {
  auto net = provenanced_tape();
  net.provenance.op_lane = {0};  // 1 entry for a 2-op tape
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureAttributionLaneOutOfRange) {
  auto net = provenanced_tape();
  net.provenance.op_lane = {5, compile::Provenance::kNone};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureModuleIdOutOfRange) {
  auto net = provenanced_tape();
  net.provenance.lanes[0].module_id = 3;  // table holds one module
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureNamedLaneWithoutModule) {
  auto net = provenanced_tape();
  net.provenance.lanes[0].module_id = compile::Provenance::kNone;
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureUnsortedBinds) {
  auto net = provenanced_tape();
  std::swap(net.provenance.binds[1], net.provenance.binds[2]);
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureStampPastTheReplay) {
  auto net = provenanced_tape();
  net.provenance.binds[2].stamp = 9;  // the tape replays 2 cycles
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureBindLaneAndSlotOutOfRange) {
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].lane = 7;
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].slot = 9;
    const auto rep = analysis::verify_tape(net, "fixture");
    expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
  }
}

TEST(TapeVerify, ProvenanceFixtureSampledBeforeComputed) {
  auto net = provenanced_tape();
  // Slot 2 is defined at level 0; a stamp-0 bind samples the reset image,
  // showing a value before the tape computes it.
  net.provenance.binds[1] = {0, 0, 2};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, ProvenanceFixtureBindsAnUnwrittenSlot) {
  auto net = provenanced_tape();
  net.num_slots = 5;  // slot 4 exists but nothing initialises or writes it
  net.provenance.binds.push_back({2, 0, 4});
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kProvenance, Severity::kError);
}

TEST(TapeVerify, RelaxPairHalvesFromDifferentDefsRejected) {
  // A relax whose pair operand is stitched together from two unrelated
  // scalar defs — not a coherent (value, station) pair.
  compile::CompiledNetlist net;
  net.num_slots = 7;
  net.init = {{0, 7}, {1, 2}, {2, 9}};
  net.ops = {{3, 0, 1, 0, 1, OpKind::kMac, 0},     // slot 3 = min(7,3) = 3
             {4, 0, 2, 0, 1, OpKind::kMac, 1},     // slot 4 = min(7,10) = 7
             {5, 3, 1, 2, 1, OpKind::kRelax, 2}};  // pair (3,4) -> (5,6)
  net.cycle_off = {0, 2, 3};
  net.expected = {3, 7, 3};
  net.outputs = {{"best", 0, 5, 3}};
  const auto rep = analysis::verify_tape(net, "fixture");
  expect_exactly(rep, TapeVerifier::kDefBeforeUse, Severity::kError);
}

// ---------------------------------------------------------------------
// Verifier ergonomics.

TEST(TapeVerify, VerifyOrThrowCarriesTheReport) {
  auto net = small_tape();
  net.init = {{0, 10}, {1, 4}, {0, 10}};
  try {
    analysis::verify_tape_or_throw(net, "broken");
    FAIL() << "expected verify_tape_or_throw to throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("single-assignment"), std::string::npos) << what;
    EXPECT_NE(what.find("broken"), std::string::npos) << what;
  }
}

TEST(TapeVerify, JsonReportIsWellShaped) {
  const auto rep = analysis::verify_tape(small_tape(), "json \"quoted\"");
  const std::string doc = rep.to_json();
  EXPECT_NE(doc.find("\"design\": \"json \\\"quoted\\\"\""),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"dependence_depth\": 2"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"int32_safe\": true"), std::string::npos) << doc;
}

// ---------------------------------------------------------------------
// Diagnostic text.  Sites are formatted only when a diagnostic fires, so
// these pin every site string ("op#<i>", "op#<i>@L<level>", "bind#<b>")
// the corrupt fixtures produce, and the full text and JSON renderings of
// one report per site form.

/// One line per diagnostic: check, severity, site and storage.
std::vector<std::string> sites_of(const TapeVerifyReport& r) {
  std::vector<std::string> out;
  for (const auto& d : r.diagnostics) {
    out.push_back(d.check + " " + analysis::to_string(d.severity) + " " +
                  d.module + " '" + d.storage + "'");
  }
  return out;
}

TEST(TapeVerifyText, CorruptFixturesReportExactSites) {
  struct Case {
    std::string name;
    compile::CompiledNetlist net;
    TapeVerifyOptions opt;
    std::vector<std::string> sites;
  };
  std::vector<Case> cases;
  {
    auto net = small_tape();
    net.ops[0].b = 9;
    cases.push_back({"slot out of bounds", net, {},
                     {"tape-structure error op#0 'slot9'"}});
  }
  {
    auto net = small_tape();
    net.num_slots = 5;
    net.ops[0].b = 4;
    cases.push_back({"dangling slot", net, {},
                     {"def-before-use error op#0@L0 'slot4'"}});
  }
  {
    auto net = small_tape();
    net.ops[1] = {3, 0, 2, 1, 3, OpKind::kFold, 1};
    net.cycle_off = {0, 2, 2};
    net.expected = {9, 10};
    net.outputs[0].expected = 10;
    cases.push_back({"cross-kind in-level chain", net, {},
                     {"level-schedule warning op#1@L0 'slot2'"}});
  }
  {
    auto net = small_tape();
    std::swap(net.ops[0], net.ops[1]);
    cases.push_back({"read from the future", net, {},
                     {"level-schedule error op#0@L0 'slot2'",
                      "output-reachability warning op#1@L1 'slot2'",
                      "level-schedule note tape ''"}});
  }
  {
    auto net = small_tape();
    net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
               {2, 2, 1, 0, 7, OpKind::kMac, 1},
               {3, 2, 0, 0, 3, OpKind::kMac, 2}};
    net.cycle_off = {0, 1, 3};
    net.expected = {9, 9, 9};
    cases.push_back({"double write", net, {},
                     {"single-assignment error op#1@L1 'slot2'"}});
  }
  {
    auto net = small_tape();
    net.outputs[0].slot = 2;
    cases.push_back({"dead op", net, {},
                     {"output-reachability warning op#1@L1 'slot3'"}});
  }
  {
    auto net = small_tape();
    net.init[1].value = kInfCost - 5;
    cases.push_back({"saturation clip", net, {},
                     {"value-range error op#0@L0 'slot2'"}});
  }
  {
    compile::CompiledNetlist net;
    net.num_slots = 2;
    net.init = {{0, 5}};
    net.ops = {{1, 0, 0, 0, 2, OpKind::kMac, 0},
               {1, 1, 0, 0, 3, OpKind::kMac, 1}};
    net.cycle_off = {0, 1, 2};
    net.expected = {5, 5};
    net.outputs = {{"res", 0, 1, 5}};
    net.stats.compacted = true;
    cases.push_back({"overlapping reuse", net, {},
                     {"compaction-safety error op#1@L1 'slot1'"}});
  }
  {
    auto net = small_tape();
    net.parameterised = true;
    net.params = {5, 99};
    cases.push_back({"oracle binding mismatch", net, {},
                     {"bind-plane error op#1 ''"}});
  }
  {
    auto net = provenanced_tape();
    net.provenance.op_lane = {5, compile::Provenance::kNone};
    cases.push_back({"attribution lane out of range", net, {},
                     {"provenance error op#0 ''"}});
  }
  {
    auto net = provenanced_tape();
    std::swap(net.provenance.binds[1], net.provenance.binds[2]);
    cases.push_back({"unsorted binds", net, {},
                     {"provenance error bind#2 ''"}});
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[2].stamp = 9;
    cases.push_back({"stamp past the replay", net, {},
                     {"provenance error bind#2 ''"}});
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].lane = 7;
    cases.push_back({"bind lane out of range", net, {},
                     {"provenance error bind#0 ''"}});
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[0].slot = 9;
    cases.push_back({"bind slot out of range", net, {},
                     {"provenance error bind#0 'acc'"}});
  }
  {
    auto net = provenanced_tape();
    net.provenance.binds[1] = {0, 0, 2};
    cases.push_back({"sampled before computed", net, {},
                     {"provenance error bind#1 'acc'"}});
  }
  {
    auto net = provenanced_tape();
    net.num_slots = 5;
    net.provenance.binds.push_back({2, 0, 4});
    cases.push_back({"binds an unwritten slot", net, {},
                     {"provenance error bind#3 'acc'"}});
  }
  {
    compile::CompiledNetlist net;
    net.num_slots = 7;
    net.init = {{0, 7}, {1, 2}, {2, 9}};
    net.ops = {{3, 0, 1, 0, 1, OpKind::kMac, 0},
               {4, 0, 2, 0, 1, OpKind::kMac, 1},
               {5, 3, 1, 2, 1, OpKind::kRelax, 2}};
    net.cycle_off = {0, 2, 3};
    net.expected = {3, 7, 3};
    net.outputs = {{"best", 0, 5, 3}};
    cases.push_back({"relax pair halves", net, {},
                     {"def-before-use error op#2@L1 'slot3'"}});
  }
  for (const Case& c : cases) {
    const auto rep = analysis::verify_tape(c.net, "fixture", c.opt);
    EXPECT_EQ(sites_of(rep), c.sites) << c.name;
  }
}

TEST(TapeVerifyText, OpSiteReportRendersExactly) {
  auto net = small_tape();
  net.ops = {{2, 0, 1, 0, 5, OpKind::kMac, 0},
             {2, 2, 1, 0, 7, OpKind::kMac, 1},
             {3, 2, 0, 0, 3, OpKind::kMac, 2}};
  net.cycle_off = {0, 1, 3};
  net.expected = {9, 9, 9};
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_EQ(rep.to_text(),
            "fixture: 1 error(s), 0 warning(s), 0 note(s)\n"
            "  tape: 3 ops / 4 slots / 2 levels (2 non-empty), depth 3, ssa, "
            "max |finite| 13 (int32-safe)\n"
            "  [error] single-assignment @ op#1@L1 'slot2': slot is written "
            "more than once on an uncompacted tape — single assignment "
            "violated (2 writes so far)\n");
  EXPECT_EQ(rep.to_json(),
            "{\"design\": \"fixture\", \"tape\": {\"ops\": 3, "
            "\"slots\": 4, \"levels\": 2, \"nonempty_levels\": 2, "
            "\"outputs\": 1, \"compacted\": false, \"parameterised\": "
            "false, \"in_level_chains\": 1, \"dependence_depth\": 3, "
            "\"transport_slack_ops\": 0, \"max_transport_slack\": 0, "
            "\"dead_ops\": 0, \"max_abs_finite\": 13, \"int32_safe\": "
            "true, \"provenance_lanes\": 0, \"provenance_binds\": 0, "
            "\"ops_attributed\": 0}, \"counts\": {\"errors\": 1, "
            "\"warnings\": 0, \"notes\": 0}, \"diagnostics\": "
            "[{\"check\": \"single-assignment\", \"severity\": "
            "\"error\", \"site\": \"op#1@L1\", \"storage\": \"slot2\", "
            "\"message\": \"slot is written more than once on an "
            "uncompacted tape — single assignment violated (2 writes "
            "so far)\"}]}");
}

TEST(TapeVerifyText, BindSiteReportRendersExactly) {
  auto net = provenanced_tape();
  net.provenance.binds[1] = {0, 0, 2};
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_EQ(rep.to_text(),
            "fixture: 1 error(s), 0 warning(s), 0 note(s)\n"
            "  tape: 2 ops / 4 slots / 2 levels (2 non-empty), depth 2, ssa, "
            "max |finite| 13 (int32-safe)\n"
            "  provenance: 1 lanes, 3 binds, 2 of 2 ops attributed\n"
            "  [error] provenance @ bind#1 'acc': stamp 0 samples slot2 "
            "defined at level 0 — the register would show a value before "
            "the tape computes it\n");
  EXPECT_EQ(rep.to_json(),
            "{\"design\": \"fixture\", \"tape\": {\"ops\": 2, "
            "\"slots\": 4, \"levels\": 2, \"nonempty_levels\": 2, "
            "\"outputs\": 1, \"compacted\": false, \"parameterised\": "
            "false, \"in_level_chains\": 0, \"dependence_depth\": 2, "
            "\"transport_slack_ops\": 0, \"max_transport_slack\": 0, "
            "\"dead_ops\": 0, \"max_abs_finite\": 13, \"int32_safe\": "
            "true, \"provenance_lanes\": 1, \"provenance_binds\": 3, "
            "\"ops_attributed\": 2}, \"counts\": {\"errors\": 1, "
            "\"warnings\": 0, \"notes\": 0}, \"diagnostics\": "
            "[{\"check\": \"provenance\", \"severity\": \"error\", "
            "\"site\": \"bind#1\", \"storage\": \"acc\", \"message\": "
            "\"stamp 0 samples slot2 defined at level 0 — the register "
            "would show a value before the tape computes it\"}]}");
}

// ---------------------------------------------------------------------
// Every registered design instance verifies clean in all three variants:
// the raw SSA tape, the compacted tape, and a parameterised tape under a
// perturbed rebinding.

// Dead-op chains interleaved with live ops across levels: a dead chain
// spanning three levels (op1 -> op3 -> op4) and a dead op fed by a live
// value (op6).  Reachability reports each dead op once, in tape order.
TEST(TapeVerifyText, DeadChainsAcrossLevelsReportInTapeOrder) {
  compile::CompiledNetlist net;
  net.num_slots = 9;
  net.init = {{0, 10}, {1, 4}};
  net.ops = {{2, 0, 1, 0, 1, OpKind::kMac, 0},   // L0 live
             {3, 0, 1, 0, 2, OpKind::kMac, 1},   // L0 dead
             {4, 2, 0, 0, 3, OpKind::kMac, 2},   // L1 live
             {5, 3, 1, 0, 1, OpKind::kMac, 3},   // L1 dead
             {6, 5, 0, 0, 1, OpKind::kMac, 4},   // L2 dead
             {7, 4, 1, 0, 1, OpKind::kMac, 5},   // L2 live: the output
             {8, 2, 0, 0, 5, OpKind::kMac, 6}};  // L2 dead, reads live op0
  net.cycle_off = {0, 2, 4, 7};
  net.expected = {5, 6, 5, 5, 5, 5, 5};
  net.outputs = {{"res", 0, 7, 5}};
  const auto rep = analysis::verify_tape(net, "fixture");
  EXPECT_EQ(rep.stats.dead_ops, 4u);
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  const std::vector<std::string> sites = {
      "output-reachability warning op#1@L0 'slot3'",
      "output-reachability warning op#3@L1 'slot5'",
      "output-reachability warning op#4@L2 'slot6'",
      "output-reachability warning op#6@L2 'slot8'",
      "level-schedule note tape ''"};
  EXPECT_EQ(sites_of(rep), sites) << rep.to_text();
}

// Reachability against a reference worklist search over random SSA tapes:
// same dead-op count, same warnings, same (tape) order.
TEST(TapeVerify, DeadOpsMatchReferenceReachability) {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto next = [&](std::uint64_t bound) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s % bound;
  };
  for (int trial = 0; trial < 50; ++trial) {
    compile::CompiledNetlist net;
    net.init = {{0, 10}, {1, 4}, {2, 7}};
    std::vector<std::uint32_t> def_of = {compile::Provenance::kNone,
                                         compile::Provenance::kNone,
                                         compile::Provenance::kNone};
    net.cycle_off = {0};
    const std::uint64_t levels = 2 + next(10);
    for (std::uint64_t t = 0; t < levels; ++t) {
      // Operands come from earlier levels only: no in-level chains.
      const auto visible = static_cast<std::uint32_t>(def_of.size());
      const std::uint64_t width = next(6);
      for (std::uint64_t k = 0; k < width; ++k) {
        const auto i = static_cast<std::uint32_t>(net.ops.size());
        const auto dst = static_cast<sim::SlotId>(def_of.size());
        net.ops.push_back({dst, static_cast<sim::SlotId>(next(visible)),
                           static_cast<sim::SlotId>(next(visible)), 0,
                           static_cast<Cost>(next(9)), OpKind::kMac, i});
        def_of.push_back(i);
      }
      net.cycle_off.push_back(static_cast<std::uint32_t>(net.ops.size()));
    }
    net.num_slots = static_cast<std::uint32_t>(def_of.size());
    for (std::uint64_t k = 0, outs = 1 + next(3); k < outs; ++k) {
      net.outputs.push_back({"res", k, static_cast<sim::SlotId>(
                                           next(net.num_slots)), 0});
    }
    // Reference: worklist search from each output's defining op.
    std::vector<std::uint8_t> live(net.ops.size(), 0);
    std::vector<std::uint32_t> work;
    const auto reach = [&](sim::SlotId slot) {
      const std::uint32_t d = def_of[slot];
      if (d != compile::Provenance::kNone && live[d] == 0) {
        live[d] = 1;
        work.push_back(d);
      }
    };
    for (const auto& o : net.outputs) reach(o.slot);
    while (!work.empty()) {
      const compile::Op& op = net.ops[work.back()];
      work.pop_back();
      reach(op.a);
      reach(op.b);
    }
    std::vector<std::string> expected_sites;
    for (std::uint32_t i = 0; i < net.ops.size(); ++i) {
      if (live[i] != 0) continue;
      expected_sites.push_back(
          "output-reachability warning op#" + std::to_string(i) + "@L" +
          std::to_string(net.level_of_op(i)) + " 'slot" +
          std::to_string(net.ops[i].dst) + "'");
    }
    const auto rep = analysis::verify_tape(net, "random");
    std::vector<std::string> reach_sites;
    for (const std::string& site : sites_of(rep)) {
      if (site.rfind("output-reachability", 0) == 0) {
        reach_sites.push_back(site);
      }
    }
    EXPECT_EQ(rep.stats.dead_ops, expected_sites.size()) << "trial " << trial;
    EXPECT_EQ(reach_sites, expected_sites) << "trial " << trial;
    EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  }
}

// A range fault in the last op is found by the range sweep and reported
// by the per-op loop exactly once, with the full message.
TEST(TapeVerifyText, StructureFaultInLastOpIsOneFinding) {
  {
    auto net = small_tape();
    net.ops.back().a = 9;
    const auto rep = analysis::verify_tape(net, "fixture");
    ASSERT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
    EXPECT_EQ(sites_of(rep),
              std::vector<std::string>{"tape-structure error op#1 'slot9'"});
    EXPECT_EQ(rep.diagnostics[0].message,
              "operand a names slot 9 but the tape declares only 4");
  }
  {
    // A relax whose destination pair runs one slot off the file.
    compile::CompiledNetlist net;
    net.num_slots = 4;
    net.init = {{0, 10}, {1, 0}, {2, 3}};
    net.ops = {{3, 0, 2, 1, 2, OpKind::kRelax, 0}};
    net.cycle_off = {0, 1};
    net.expected = {5};
    net.outputs = {{"best", 0, 3, 5}};
    const auto rep = analysis::verify_tape(net, "fixture");
    ASSERT_EQ(rep.diagnostics.size(), 1u) << rep.to_text();
    EXPECT_EQ(sites_of(rep),
              std::vector<std::string>{"tape-structure error op#0 'slot4'"});
    EXPECT_EQ(rep.diagnostics[0].message,
              "operand dst+1 names slot 4 but the tape declares only 4");
  }
}

TEST(TapeVerifyRegistry, AllDesignsAllVariantsVerifyClean) {
  for (const auto& spec : examples::all_designs()) {
    SCOPED_TRACE(spec.name);
    {
      compile::LowerOptions lopt;
      lopt.compact = false;
      const auto rep = analysis::verify_tape(spec.make()->lower(lopt).net,
                                             spec.name + "#ssa");
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_FALSE(rep.stats.compacted);
    }
    {
      const auto rep = analysis::verify_tape(spec.make()->lower({}).net,
                                             spec.name + "#compacted");
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_TRUE(rep.stats.compacted);
    }
    {
      compile::LowerOptions lopt;
      lopt.parameterise = true;
      const auto low = spec.make()->lower(lopt);
      TapeVerifyOptions vopt;
      vopt.bound_weights = low.net.params;
      for (Cost& w : vopt.bound_weights) {
        if (!is_inf(w) && !is_neg_inf(w)) w += 1;
      }
      const auto rep =
          analysis::verify_tape(low.net, spec.name + "#rebound", vopt);
      EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
      EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
      EXPECT_TRUE(rep.stats.parameterised);
    }
  }
}

// ---------------------------------------------------------------------
// The headline certification: the largest bench_all instance (the GKT
// chain array at n=96, same seed as the chain_modular_n96 bench entries)
// provably keeps every reachable value — including intermediates — inside
// int32, so the narrow-lane SIMD kernels are lossless for it.

TEST(TapeVerifyCertification, GktN96TapeIsInt32Safe) {
  Rng rng(96096);  // bench_all's chain_modular_n96 instance
  const ChainRule rule(random_chain_dims(96, rng));
  TriangularModularArray<ChainRule> arr(rule, rule.num_matrices());
  const auto low = compile::lower_array(arr);
  const auto rep = analysis::verify_tape(low.net, "gkt_n96");
  EXPECT_EQ(rep.errors(), 0u) << rep.to_text();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_text();
  EXPECT_TRUE(rep.stats.int32_safe);
  EXPECT_GT(rep.stats.max_abs_finite, 0);
  EXPECT_LE(rep.stats.max_abs_finite, Cost{2147483647});
}

}  // namespace
}  // namespace sysdp
