// Netlist lookups and lane naming.  The captured netlist answers
// storage_of() from its storage index and has_wakeup() by binary search of
// its sorted wakeup edges; this file pins both lookups on hand-declared
// fixtures.  Lowering names its lanes from the arrays' own declare_lane()
// declarations, not from a netlist: the second half checks, for every
// registry design and a few more instances, that each lane's narrated
// (module, label, module id, named) equals what resolving the same key
// against a captured netlist gives — capture is the test-side oracle —
// and that lowering never calls describe_ports.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../examples/design_registry.hpp"
#include "analysis/netlist.hpp"
#include "arrays/design1_modular.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/lower.hpp"
#include "compile/program.hpp"
#include "compile/recorder.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/module.hpp"
#include "sim/observer.hpp"
#include "sim/port.hpp"
#include "sim/record.hpp"

namespace sysdp {
namespace {

using analysis::Netlist;

/// A do-nothing module that declares whatever ports the test hands it.
class PortsModule : public sim::Module {
 public:
  PortsModule(std::string name, std::function<void(sim::PortSet&)> ports)
      : Module(std::move(name)), ports_(std::move(ports)) {}

  void eval(sim::Cycle) override {}
  void commit() override {}
  void describe_ports(sim::PortSet& ports) const override { ports_(ports); }

 private:
  std::function<void(sim::PortSet&)> ports_;
};

// ------------------------------------------------------ Netlist lookups ---

TEST(NetlistIndex, StorageOfHitAndMiss) {
  int a = 0;
  int b = 0;
  int never = 0;
  PortsModule w("w", [&](sim::PortSet& p) {
    p.writes_register(&a, "a");
    p.writes_register(&b, "b");
  });
  PortsModule r("r", [&](sim::PortSet& p) { p.reads_register(&a, "a"); });
  sim::Engine engine;
  engine.add(w);
  engine.add(r);
  const Netlist net = analysis::capture(engine);

  ASSERT_EQ(net.storages.size(), 2u);
  const std::uint32_t sa = net.storage_of(&a);
  const std::uint32_t sb = net.storage_of(&b);
  ASSERT_NE(sa, Netlist::npos);
  ASSERT_NE(sb, Netlist::npos);
  EXPECT_EQ(net.storages[sa].key, &a);
  EXPECT_EQ(net.storages[sb].key, &b);
  EXPECT_EQ(net.storages[sa].label, "a");
  EXPECT_EQ(net.storage_of(&never), Netlist::npos);
  EXPECT_EQ(net.storage_of(nullptr), Netlist::npos);
}

TEST(NetlistIndex, KeyDeclaredTwiceReturnsItsFirstIndex) {
  int x = 0;
  int y = 0;
  // x is declared first, then y, then x again by the same module and once
  // more by a second one: one storage per key, indexed by first sight.
  PortsModule first("first", [&](sim::PortSet& p) {
    p.writes_register(&x, "x");
    p.writes_register(&y, "y");
    p.reads_register(&x, "x");
  });
  PortsModule second("second", [&](sim::PortSet& p) {
    p.reads_register(&y, "y");
    p.reads_register(&x, "x");
  });
  sim::Engine engine;
  engine.add(first);
  engine.add(second);
  const Netlist net = analysis::capture(engine);

  ASSERT_EQ(net.storages.size(), 2u);
  EXPECT_EQ(net.storage_of(&x), 0u);
  EXPECT_EQ(net.storage_of(&y), 1u);
  EXPECT_EQ(net.storages[0].readers.size(), 2u);
}

TEST(NetlistIndex, HasWakeupFindsExactlyTheDeclaredEdges) {
  int r0 = 0;
  int r1 = 0;
  int r2 = 0;
  PortsModule m0("m0", [&](sim::PortSet& p) { p.writes_register(&r0, "r0"); });
  PortsModule m1("m1", [&](sim::PortSet& p) {
    p.reads_register(&r0, "r0");
    p.writes_register(&r1, "r1");
  });
  PortsModule m2("m2", [&](sim::PortSet& p) {
    p.reads_register(&r1, "r1");
    p.writes_register(&r2, "r2");
  });
  sim::Engine engine;
  engine.add(m0);
  engine.add(m1);
  engine.add(m2);
  // Declared out of (src, dst) order: capture sorts them.
  engine.add_wakeup(m0, m2);
  engine.add_wakeup(m0, m1);
  engine.add_wakeup(m2, m1);
  const Netlist net = analysis::capture(engine);

  ASSERT_EQ(net.wakeups.size(), 3u);
  for (std::size_t k = 1; k < net.wakeups.size(); ++k) {
    const auto& lo = net.wakeups[k - 1];
    const auto& hi = net.wakeups[k];
    EXPECT_TRUE(lo.src < hi.src || (lo.src == hi.src && lo.dst <= hi.dst));
  }
  // Modules are nodes 0..2 in registration order.
  EXPECT_TRUE(net.has_wakeup(0, 1));
  EXPECT_TRUE(net.has_wakeup(0, 2));
  EXPECT_TRUE(net.has_wakeup(2, 1));
  EXPECT_FALSE(net.has_wakeup(1, 0));
  EXPECT_FALSE(net.has_wakeup(1, 2));
  EXPECT_FALSE(net.has_wakeup(2, 0));
  EXPECT_FALSE(net.has_wakeup(0, 0));
  EXPECT_FALSE(net.has_wakeup(net.environment, 0));

  // Erasing an edge keeps the order, so the lookup stays exact.
  Netlist cut = net;
  cut.wakeups.erase(cut.wakeups.begin() + 1);
  EXPECT_TRUE(cut.has_wakeup(0, 1));
  EXPECT_FALSE(cut.has_wakeup(0, 2));
  EXPECT_TRUE(cut.has_wakeup(2, 1));
}

// ------------------------------------ narrated names against capture ---

/// Capture-based naming, the oracle: each lane's key is looked up in the
/// captured netlist's storage table; a found storage names the lane with
/// its label and its first writer (the environment when nothing writes
/// it), module names interned in first-seen lane order.  Lanes whose key
/// no port declares keep "lane<N>".
compile::Provenance resolve_by_capture(const std::vector<const void*>& keys,
                                       const Netlist& netlist) {
  compile::Provenance prov;
  prov.lanes.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    compile::ProvenanceLane& lane = prov.lanes[i];
    lane.label = "lane" + std::to_string(i);
    std::uint32_t s = Netlist::npos;
    for (std::uint32_t j = 0; j < netlist.storages.size(); ++j) {
      if (netlist.storages[j].key == keys[i]) {
        s = j;
        break;
      }
    }
    if (s == Netlist::npos) continue;
    const analysis::Storage& storage = netlist.storages[s];
    if (!storage.label.empty()) lane.label = storage.label;
    lane.module = storage.writers.empty()
                      ? netlist.node(netlist.environment).name
                      : netlist.node(storage.writers.front()).name;
    std::uint32_t id = 0;
    while (id < prov.modules.size() && prov.modules[id] != lane.module) ++id;
    if (id == prov.modules.size()) prov.modules.push_back(lane.module);
    lane.module_id = id;
    lane.named = true;
  }
  return prov;
}

std::uint64_t named_count(const compile::Provenance& prov) {
  std::uint64_t named = 0;
  for (const auto& lane : prov.lanes) named += lane.named ? 1u : 0u;
  return named;
}

void expect_same_names(const compile::Provenance& got,
                       const compile::Provenance& want,
                       const std::string& what) {
  EXPECT_EQ(got.modules, want.modules) << what;
  ASSERT_EQ(got.lanes.size(), want.lanes.size()) << what;
  for (std::size_t i = 0; i < got.lanes.size(); ++i) {
    SCOPED_TRACE(what + " lane " + std::to_string(i));
    EXPECT_EQ(got.lanes[i].module, want.lanes[i].module);
    EXPECT_EQ(got.lanes[i].label, want.lanes[i].label);
    EXPECT_EQ(got.lanes[i].module_id, want.lanes[i].module_id);
    EXPECT_EQ(got.lanes[i].named, want.lanes[i].named);
  }
}

/// Forwards the narration to a compile::Recorder unchanged and mirrors its
/// lane numbering: a key becomes the next lane the first time the recorder
/// looks it up — at lane(), lane_pair() and bind_now(), and for
/// bind_staged() at the commit edge, in staging order.
class LaneKeyProbe final : public sim::OpRecorder, public sim::EngineObserver {
 public:
  explicit LaneKeyProbe(compile::Recorder& inner) : inner_(inner) {}

  void reserve_ops(std::uint64_t ops) override { inner_.reserve_ops(ops); }
  void declare_lane(const void* key, std::string_view module,
                    std::string_view label) override {
    inner_.declare_lane(key, module, label);
  }
  sim::SlotId constant(std::int64_t v) override { return inner_.constant(v); }
  sim::SlotId constant_pair(std::int64_t v, std::int64_t arg) override {
    return inner_.constant_pair(v, arg);
  }
  sim::SlotId lane(const void* key, std::int64_t live) override {
    note(key);
    return inner_.lane(key, live);
  }
  sim::SlotId lane_pair(const void* key, std::int64_t live,
                        std::int64_t arg) override {
    note(key);
    return inner_.lane_pair(key, live, arg);
  }
  void bind_now(const void* key, sim::SlotId slot) override {
    note(key);
    inner_.bind_now(key, slot);
  }
  void bind_staged(const void* key, sim::SlotId slot) override {
    staged_.push_back(key);
    inner_.bind_staged(key, slot);
  }
  sim::SlotId mac(sim::SlotId base, std::int64_t w, sim::SlotId x) override {
    return inner_.mac(base, w, x);
  }
  sim::SlotId fold(sim::SlotId best, sim::SlotId left, sim::SlotId right,
                   std::int64_t local) override {
    return inner_.fold(best, left, right, local);
  }
  sim::SlotId relax(sim::SlotId pair, sim::SlotId kh, std::int64_t edge,
                    std::int64_t station) override {
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
  void on_cycle(const sim::Engine& engine, sim::Cycle t) override {
    for (const void* key : staged_) note(key);
    staged_.clear();
    inner_.on_cycle(engine, t);
  }

  std::vector<const void*> keys;  ///< storage key per lane id

 private:
  void note(const void* key) {
    if (seen_.insert(key).second) keys.push_back(key);
  }

  compile::Recorder& inner_;
  std::vector<const void*> staged_;
  std::unordered_set<const void*> seen_;
};

/// One oracle run recorded the way lower_array() records it, plus the
/// lane keys and the netlist captured at elaboration.
struct Narrated {
  compile::CompiledNetlist net;
  std::vector<const void*> keys;
  Netlist netlist;
};

/// Captures the engine's netlist once it is fully elaborated.
class CaptureAtElaboration : public sim::EngineObserver {
 public:
  CaptureAtElaboration(analysis::CaptureOptions opts, Netlist& out)
      : opts_(std::move(opts)), out_(out) {}
  void on_elaborated(const sim::Engine& engine) override {
    out_ = analysis::capture(engine, opts_);
  }

 private:
  analysis::CaptureOptions opts_;
  Netlist& out_;
};

Narrated narrate(const std::function<void(sim::Engine&)>& run,
                 const std::function<void(sim::PortSet&)>& environment) {
  sim::Engine oracle;
  compile::Recorder rec;
  LaneKeyProbe probe(rec);
  Narrated out;
  analysis::CaptureOptions copts;
  environment(copts.environment);
  CaptureAtElaboration capturer(std::move(copts), out.netlist);
  oracle.set_recorder(&probe);
  oracle.add_observer(&capturer);
  oracle.add_observer(&probe);
  run(oracle);
  out.net = rec.finish();
  out.keys = std::move(probe.keys);
  return out;
}

/// The cross-check: the narrated names of one recording equal the
/// capture-based names of the same keys, and lower_array() on a twin
/// instance produces the same names and attribution.
void expect_narration_matches_capture(
    const std::string& what, const std::function<void(sim::Engine&)>& run,
    const std::function<void(sim::PortSet&)>& environment,
    const std::function<compile::Lowered()>& lower_twin) {
  const Narrated rec = narrate(run, environment);
  ASSERT_GT(rec.keys.size(), 0u) << what;
  ASSERT_EQ(rec.keys.size(), rec.net.stats.lanes_bound) << what;
  const compile::Provenance want = resolve_by_capture(rec.keys, rec.netlist);
  EXPECT_EQ(rec.net.stats.named_lanes, named_count(want)) << what;
  expect_same_names(rec.net.provenance, want, what + " (recorder)");

  const compile::Lowered low = lower_twin();
  EXPECT_EQ(low.net.stats.named_lanes, named_count(want)) << what;
  expect_same_names(low.net.provenance, want, what + " (lower_array)");
  EXPECT_EQ(low.net.provenance.op_lane, rec.net.provenance.op_lane) << what;
}

template <typename Make>
void check_against_capture(const std::string& what, Make make) {
  auto arr = make();
  auto twin = make();
  expect_narration_matches_capture(
      what, [&](sim::Engine& e) { (void)arr.run(e); },
      [&](sim::PortSet& p) { arr.describe_environment(p); },
      [&] { return compile::lower_array(twin); });
}

TEST(ProvenanceResolve, RegistryNarrationMatchesCapture) {
  const auto designs = examples::all_designs();
  ASSERT_EQ(designs.size(), 14u);
  for (const auto& d : designs) {
    const auto inst = d.make();
    const auto twin = d.make();
    expect_narration_matches_capture(
        d.name, [&](sim::Engine& e) { inst->run(e); },
        [&](sim::PortSet& p) { inst->describe_environment(p); },
        [&] { return twin->lower(); });
  }
}

TEST(ProvenanceResolve, Design1MatchesReference) {
  for (const std::size_t m : {3u, 5u}) {
    check_against_capture("design1 m" + std::to_string(m), [m] {
      Rng rng(40 + m);
      std::vector<Cost> costs(m);
      for (std::size_t i = 0; i < m; ++i) costs[i] = static_cast<Cost>(i + 1);
      return Design1Modular(random_matrix_string(3, m, rng), costs);
    });
  }
}

TEST(ProvenanceResolve, Design1NamesLanesAndMergesModules) {
  // Every Design 1 lane is a declared rail or the host feed, and each PE
  // owns two rails, so modules merge.
  Rng rng(41);
  Design1Modular arr(random_matrix_string(3, 4, rng), {1, 2, 3, 4});
  const compile::Lowered low = compile::lower_array(arr);
  EXPECT_EQ(low.net.stats.named_lanes, low.net.stats.lanes_bound);
  EXPECT_GT(low.net.provenance.modules.size(), 0u);
  EXPECT_LT(low.net.provenance.modules.size(), low.net.provenance.lanes.size());
}

TEST(ProvenanceResolve, GktMatchesReference) {
  for (const std::size_t m : {3u, 6u}) {
    check_against_capture("gkt m" + std::to_string(m), [m] {
      std::vector<Cost> dims(m + 1);
      for (std::size_t i = 0; i <= m; ++i) {
        dims[i] = static_cast<Cost>(2 + (i * 7) % 9);
      }
      return TriangularModularArray<ChainRule>(ChainRule(dims), m);
    });
  }
}

TEST(ProvenanceResolve, BstMatchesReference) {
  check_against_capture("bst n5", [] {
    return TriangularModularArray<BstRule>(BstRule({3, 1, 4, 1, 5}), 5);
  });
}

TEST(ProvenanceResolve, ChainRuleMatchesReference) {
  check_against_capture("chain n6", [] {
    return TriangularModularArray<ChainRule>(ChainRule({5, 3, 8, 2, 6, 4, 7}),
                                             6);
  });
}

TEST(ProvenanceResolve, TriangularTapesAreFullyNamed) {
  // Every triangle lane is a cell value m(i, j), declared by its cell: one
  // module per cell, every lane named.
  const auto expect_full = [](const compile::Lowered& low, std::size_t n,
                              const std::string& what) {
    const auto& prov = low.net.provenance;
    EXPECT_EQ(low.net.stats.named_lanes, low.net.stats.lanes_bound) << what;
    EXPECT_EQ(prov.modules.size(), n * (n + 1) / 2) << what;
    for (std::uint64_t i = 0; i < low.net.num_ops(); ++i) {
      ASSERT_LT(prov.module_of_op(i), prov.modules.size()) << what;
    }
  };
  for (const std::size_t n : {2u, 7u, 16u}) {
    std::vector<Cost> w(n);
    for (std::size_t i = 0; i < n; ++i) w[i] = static_cast<Cost>(3 + i % 5);
    std::vector<Cost> dims = w;
    dims.push_back(4);
    TriangularModularArray<ChainRule> chain(ChainRule(dims), n);
    expect_full(compile::lower_array(chain), n, "chain n" + std::to_string(n));
    TriangularModularArray<BstRule> bst(BstRule(w), n);
    expect_full(compile::lower_array(bst), n, "bst n" + std::to_string(n));
    TriangularModularArray<PolygonRule> poly(PolygonRule(w), n);
    expect_full(compile::lower_array(poly), n, "polygon n" + std::to_string(n));
  }
}

TEST(ProvenanceResolve, NamingOffLeavesTheTapeOtherwiseIdentical) {
  TriangularModularArray<ChainRule> named(ChainRule({5, 3, 8, 2, 6}), 4);
  TriangularModularArray<ChainRule> plain(ChainRule({5, 3, 8, 2, 6}), 4);
  compile::LowerOptions off;
  off.capture_netlist = false;
  const compile::Lowered a = compile::lower_array(named);
  const compile::Lowered b = compile::lower_array(plain, off);
  EXPECT_EQ(b.net.stats.named_lanes, 0u);
  EXPECT_TRUE(b.net.provenance.modules.empty());
  ASSERT_EQ(a.net.provenance.lanes.size(), b.net.provenance.lanes.size());
  for (std::size_t i = 0; i < b.net.provenance.lanes.size(); ++i) {
    EXPECT_FALSE(b.net.provenance.lanes[i].named);
    EXPECT_EQ(b.net.provenance.lanes[i].label, "lane" + std::to_string(i));
  }
  EXPECT_EQ(a.net.provenance.op_lane, b.net.provenance.op_lane);
  EXPECT_EQ(a.net.num_ops(), b.net.num_ops());
  EXPECT_EQ(a.net.expected, b.net.expected);
}

TEST(ProvenanceResolve, WritersSharingANameShareOneModuleId) {
  int a = 0;
  int b = 0;
  int c = 0;
  int tap = 0;
  int unknown = 0;
  // Two distinct modules named "pe", a third named "ctl", and a storage
  // only the environment touches.
  PortsModule pe0("pe", [&](sim::PortSet& p) { p.writes_register(&a, "a"); });
  PortsModule ctl("ctl", [&](sim::PortSet& p) { p.writes_register(&c, "c"); });
  PortsModule pe1("pe", [&](sim::PortSet& p) { p.writes_register(&b, "b"); });
  sim::Engine engine;
  engine.add(pe0);
  engine.add(ctl);
  engine.add(pe1);
  analysis::CaptureOptions copts;
  copts.environment.reads_register(&tap, "tap");
  const Netlist net = analysis::capture(engine, copts);

  // The same names through the hook: each writer declares its key, the
  // environment tap is declared under the environment's name, and a
  // second declaration of a key does not override the first.
  compile::Recorder rec;
  rec.declare_lane(&a, pe0.name(), "a");
  rec.declare_lane(&c, ctl.name(), "c");
  rec.declare_lane(&b, pe1.name(), "b");
  rec.declare_lane(&tap, "environment", "tap");
  rec.declare_lane(&a, ctl.name(), "a2");
  const std::vector<const void*> keys = {&b, &unknown, &c, &tap, &a};
  for (const void* key : keys) (void)rec.lane(key, 0);
  const compile::CompiledNetlist tape = rec.finish();
  const compile::Provenance& prov = tape.provenance;
  expect_same_names(prov, resolve_by_capture(keys, net), "fixture");

  EXPECT_EQ(tape.stats.named_lanes, 4u);
  EXPECT_EQ(prov.modules,
            (std::vector<std::string>{"pe", "ctl", "environment"}));
  EXPECT_EQ(prov.lanes[0].module_id, 0u);  // b, written by the second "pe"
  EXPECT_FALSE(prov.lanes[1].named);       // never declared
  EXPECT_EQ(prov.lanes[1].label, "lane1");
  EXPECT_EQ(prov.lanes[2].module_id, 1u);  // c
  EXPECT_EQ(prov.lanes[3].module_id, 2u);  // tap: nothing writes it
  EXPECT_EQ(prov.lanes[3].label, "tap");
  EXPECT_EQ(prov.lanes[4].module_id, 0u);  // a, written by the first "pe"
  EXPECT_EQ(prov.lanes[4].label, "a");
}

// ----------------------------------------- capture is off the lowering ---

/// A one-register array whose describe_ports and describe_environment
/// count their calls.  It narrates its register and declares its name the
/// way the shipped families do.
class CountingArray {
 public:
  struct Result {
    sim::Cycle cycles = 1;
    std::uint64_t busy_steps = 0;
  };

  Result run(sim::Engine& engine) {
    engine.add(reg_);
    rec_ = engine.recorder();
    if (rec_ != nullptr) rec_->declare_lane(&value_, reg_.name(), "value");
    engine.step();
    return {};
  }
  void describe_environment(sim::PortSet& ports) const {
    ++environment_calls;
    ports.reads_register(&value_, "value");
  }

  int describe_calls = 0;
  mutable int environment_calls = 0;

 private:
  class Reg : public sim::Module {
   public:
    explicit Reg(CountingArray& arr) : Module("reg"), arr_(arr) {}
    void eval(sim::Cycle) override {
      if (arr_.rec_ != nullptr) {
        arr_.rec_->bind_now(&arr_.value_, arr_.rec_->constant(arr_.value_));
      }
    }
    void commit() override {}
    void describe_ports(sim::PortSet& ports) const override {
      ++arr_.describe_calls;
      ports.writes_register(&arr_.value_, "value");
    }

   private:
    CountingArray& arr_;
  };

  Cost value_ = 7;
  sim::OpRecorder* rec_ = nullptr;
  Reg reg_{*this};
};

TEST(ProvenanceResolve, LoweringNeverDescribesPorts) {
  CountingArray arr;
  const compile::Lowered low = compile::lower_array(arr);
  EXPECT_EQ(arr.describe_calls, 0);
  EXPECT_EQ(arr.environment_calls, 0);
  // The lane is named all the same, from the declaration.
  ASSERT_EQ(low.net.provenance.lanes.size(), 1u);
  EXPECT_EQ(low.net.stats.named_lanes, 1u);
  EXPECT_EQ(low.net.provenance.lanes[0].module, "reg");
  EXPECT_EQ(low.net.provenance.lanes[0].label, "value");

  // The counters work: a capture of a second instance describes it.
  CountingArray probe;
  sim::Engine engine;
  (void)probe.run(engine);
  analysis::CaptureOptions copts;
  probe.describe_environment(copts.environment);
  (void)analysis::capture(engine, copts);
  EXPECT_EQ(probe.describe_calls, 1);
  EXPECT_EQ(probe.environment_calls, 1);
}

}  // namespace
}  // namespace sysdp
