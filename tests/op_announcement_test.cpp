// Op-count announcements (sim::OpRecorder::reserve_ops).  Every narrating
// family announces its tape's op count from elaborate(), before the first
// cycle, so the recorder sizes its buffers once.  The announcement must be
// exact — the ops narrated, which is also the oracle's busy-step count —
// and it must stay a capacity hint: a lowering whose announcement is
// missing, short or long records the same tape, field for field.  The
// registry sweep also pins each lowering's reported cycle count to the
// interpreted run's, at optimizer levels 0 and 2.
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../examples/design_registry.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/compact.hpp"
#include "compile/recorder.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/record.hpp"
#include "tape_digest.hpp"

namespace sysdp {
namespace {

/// What to forward for an announcement of `ops`: a count, or nothing.
using Policy = std::function<std::optional<std::uint64_t>(std::uint64_t)>;

/// Forwards the narration to a compile::Recorder unchanged, except that
/// the announcement passes through `policy`; counts the announcements and
/// the ops actually narrated.
class AnnouncementProbe final : public sim::OpRecorder {
 public:
  AnnouncementProbe(compile::Recorder& inner, Policy policy)
      : inner_(inner), policy_(std::move(policy)) {}

  void reserve_ops(std::uint64_t ops) override {
    ++announcements;
    announced = ops;
    if (const auto n = policy_(ops)) inner_.reserve_ops(*n);
  }
  sim::SlotId constant(std::int64_t v) override { return inner_.constant(v); }
  sim::SlotId constant_pair(std::int64_t v, std::int64_t arg) override {
    return inner_.constant_pair(v, arg);
  }
  sim::SlotId lane(const void* key, std::int64_t live) override {
    return inner_.lane(key, live);
  }
  sim::SlotId lane_pair(const void* key, std::int64_t live,
                        std::int64_t arg) override {
    return inner_.lane_pair(key, live, arg);
  }
  void bind_now(const void* key, sim::SlotId slot) override {
    inner_.bind_now(key, slot);
  }
  void bind_staged(const void* key, sim::SlotId slot) override {
    inner_.bind_staged(key, slot);
  }
  sim::SlotId mac(sim::SlotId base, std::int64_t w, sim::SlotId x) override {
    ++narrated;
    return inner_.mac(base, w, x);
  }
  sim::SlotId fold(sim::SlotId best, sim::SlotId left, sim::SlotId right,
                   std::int64_t local) override {
    ++narrated;
    return inner_.fold(best, left, right, local);
  }
  sim::SlotId relax(sim::SlotId pair, sim::SlotId kh, std::int64_t edge,
                    std::int64_t station) override {
    ++narrated;
    return inner_.relax(pair, kh, edge, station);
  }
  void output(std::string_view tag, std::uint64_t index, sim::SlotId slot,
              std::int64_t observed) override {
    inner_.output(tag, index, slot, observed);
  }
  void output_arg(std::string_view tag, std::uint64_t index, sim::SlotId pair,
                  std::int64_t observed) override {
    inner_.output_arg(tag, index, pair, observed);
  }

  int announcements = 0;
  std::uint64_t announced = 0;
  std::uint64_t narrated = 0;

 private:
  compile::Recorder& inner_;
  Policy policy_;
};

struct Recorded {
  compile::CompiledNetlist net;
  int announcements = 0;
  std::uint64_t announced = 0;
  std::uint64_t narrated = 0;
  std::uint64_t busy_steps = 0;
};

/// Record one oracle run of a fresh design the way lower_array does (a
/// serial dense engine, the recorder also hearing the clock), with the
/// announcement rewritten by `policy`.  `run` drives the design on the
/// engine and returns its busy-step count.
Recorded record(const std::function<std::uint64_t(sim::Engine&)>& run,
                const Policy& policy) {
  sim::Engine oracle;
  compile::Recorder rec;
  AnnouncementProbe probe(rec, policy);
  oracle.set_recorder(&probe);
  oracle.add_observer(&rec);
  Recorded out;
  out.busy_steps = run(oracle);
  out.net = rec.finish(/*parameterise=*/true);
  out.announcements = probe.announcements;
  out.announced = probe.announced;
  out.narrated = probe.narrated;
  return out;
}

const Policy kExact = [](std::uint64_t ops) { return ops; };

void expect_exact_announcement(const Recorded& r, const std::string& name) {
  EXPECT_EQ(r.announcements, 1) << name;
  EXPECT_EQ(r.announced, r.narrated) << name;
  EXPECT_EQ(r.announced, r.net.num_ops()) << name;
  EXPECT_EQ(r.announced, r.busy_steps) << name;
}

TEST(OpAnnouncement, RegistryDesignsAnnounceTheirOpCount) {
  const auto designs = examples::all_designs();
  ASSERT_FALSE(designs.empty());
  for (const auto& spec : designs) {
    auto inst = spec.make();
    const Recorded r = record(
        [&](sim::Engine& e) {
          inst->run(e);
          return inst->stats().busy_steps;
        },
        kExact);
    expect_exact_announcement(r, spec.name);
    // A lowering reports the interpreted run's own cycle count, whatever
    // the optimizer does to the tape's levels.
    auto interpreted = spec.make();
    sim::Engine e(sim::Gating::kSparse);
    interpreted->run(e);
    for (const int level : {0, 2}) {
      compile::LowerOptions opt;
      opt.optimize = level;
      EXPECT_EQ(spec.make()->lower(opt).oracle_cycles,
                interpreted->stats().cycles)
          << spec.name << " opt=" << level;
    }
  }
}

// The per-family op-count formulas over shapes the registry does not
// cover: a single matrix, a one-row leftmost matrix, two stages, one-cell
// triangles.
TEST(OpAnnouncement, FamilyFormulasHoldAcrossShapes) {
  for (const auto& [q, m, r] : std::vector<std::array<std::size_t, 3>>{
           {1, 3, 3}, {1, 4, 1}, {2, 5, 1}, {3, 4, 2}, {4, 2, 2}}) {
    Rng rng(q * 31 + m * 7 + r);
    auto mats = random_matrix_string(q, m, rng);
    mats.front() = Matrix<Cost>(r, m, 3);
    const std::vector<Cost> v(m, 1);
    const std::string shape = "q=" + std::to_string(q) + " m=" +
                              std::to_string(m) + " r=" + std::to_string(r);
    Design1Modular d1(mats, v);
    expect_exact_announcement(
        record([&](sim::Engine& e) { return d1.run(e).busy_steps; }, kExact),
        "design1 " + shape);
    Design2Modular d2(mats, v);
    expect_exact_announcement(
        record([&](sim::Engine& e) { return d2.run(e).busy_steps; }, kExact),
        "design2 " + shape);
  }
  for (const auto& [stages, width] :
       std::vector<std::array<std::size_t, 2>>{{2, 3}, {2, 1}, {5, 3}}) {
    Rng rng(stages * 13 + width);
    const NodeValueGraph graph = traffic_control_instance(stages, width, rng);
    Design3Modular d3(graph);
    expect_exact_announcement(
        record([&](sim::Engine& e) { return d3.run(e).stats.busy_steps; },
               kExact),
        "design3 stages=" + std::to_string(stages) +
            " width=" + std::to_string(width));
  }
  for (std::size_t n : {1u, 2u, 5u, 9u}) {
    TriangularModularArray<BstRule> bst(BstRule(std::vector<Cost>(n, 3)), n);
    expect_exact_announcement(
        record([&](sim::Engine& e) { return bst.run(e).stats.busy_steps; },
               kExact),
        "bst n=" + std::to_string(n));
  }
}

// The announcement only sizes buffers: dropping it, shrinking it or
// inflating it leaves every field of the recorded tape — and of its
// compacted form — unchanged.
TEST(OpAnnouncement, MissingOrWrongAnnouncementRecordsTheSameTape) {
  const std::vector<std::pair<std::string, Policy>> policies = {
      {"missing", [](std::uint64_t) { return std::nullopt; }},
      {"zero", [](std::uint64_t) { return std::uint64_t{0}; }},
      {"one", [](std::uint64_t) { return std::uint64_t{1}; }},
      {"half", [](std::uint64_t ops) { return ops / 2; }},
      {"short by one", [](std::uint64_t ops) { return ops - 1; }},
      {"double", [](std::uint64_t ops) { return 2 * ops; }},
  };
  const auto designs = examples::all_designs();
  for (const auto& spec : designs) {
    const auto digests = [&](const Policy& policy) {
      auto inst = spec.make();
      Recorded r = record(
          [&](sim::Engine& e) {
            inst->run(e);
            return inst->stats().busy_steps;
          },
          policy);
      const std::uint64_t ssa = golden::tape_digest(r.net);
      compile::compact_slots(r.net);
      return std::make_pair(ssa, golden::tape_digest(r.net));
    };
    const auto exact = digests(kExact);
    for (const auto& [label, policy] : policies) {
      EXPECT_EQ(digests(policy), exact) << spec.name << ": " << label;
    }
  }
}

}  // namespace
}  // namespace sysdp
