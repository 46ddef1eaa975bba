// Netlist lookups and provenance resolution.  The captured netlist answers
// storage_of() from its storage index and has_wakeup() by binary search of
// its sorted wakeup edges; lowering names every recorder lane through
// them.  This file pins both lookups directly on hand-declared fixtures,
// and checks compile::detail::resolve_provenance against a reference copy
// of the plain algorithm (a scan of the storage table per lane, a scan of
// the module table per named lane) on real lowerings.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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
#include "sim/port.hpp"

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

// ------------------------------------- provenance against a reference ---

/// The plain resolution algorithm, kept here as the reference: for each
/// lane, scan the storage table for its key; intern the module name by
/// scanning the module table.
std::uint64_t reference_resolve(compile::Provenance& prov,
                                const std::vector<const void*>& keys,
                                const Netlist& netlist) {
  std::uint64_t named = 0;
  for (std::size_t i = 0; i < prov.lanes.size() && i < keys.size(); ++i) {
    std::uint32_t s = Netlist::npos;
    for (std::uint32_t j = 0; j < netlist.storages.size(); ++j) {
      if (netlist.storages[j].key == keys[i]) {
        s = j;
        break;
      }
    }
    if (s == Netlist::npos) continue;
    const analysis::Storage& storage = netlist.storages[s];
    compile::ProvenanceLane& lane = prov.lanes[i];
    if (!storage.label.empty()) lane.label = storage.label;
    lane.module = storage.writers.empty()
                      ? netlist.node(netlist.environment).name
                      : netlist.node(storage.writers.front()).name;
    std::uint32_t id = 0;
    while (id < prov.modules.size() && prov.modules[id] != lane.module) ++id;
    if (id == prov.modules.size()) prov.modules.push_back(lane.module);
    lane.module_id = id;
    lane.named = true;
    ++named;
  }
  return named;
}

void expect_same_provenance(const compile::Provenance& got,
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
  EXPECT_EQ(got.op_lane, want.op_lane) << what;
}

/// One oracle run recorded the way lower_array() records it, with the
/// provenance left unresolved.
struct Recorded {
  compile::CompiledNetlist net;
  std::vector<const void*> keys;
  Netlist netlist;
};

template <typename Array>
Recorded record(Array& arr) {
  sim::Engine oracle;
  compile::Recorder rec;
  oracle.set_recorder(&rec);
  oracle.add_observer(&rec);
  Recorded out;
  oracle.set_elaboration_check([&](const sim::Engine& e) {
    analysis::CaptureOptions copts;
    arr.describe_environment(copts.environment);
    out.netlist = analysis::capture(e, copts);
  });
  (void)arr.run(oracle);
  out.net = rec.finish();
  out.keys = rec.lane_key_table();
  return out;
}

/// Resolve one recording both ways, and lower a twin instance through
/// lower_array(): all three must agree lane for lane.
template <typename Make>
void check_against_reference(const std::string& what, Make make) {
  auto arr = make();
  Recorded rec = record(arr);
  ASSERT_GT(rec.keys.size(), 0u) << what;

  compile::Provenance lib = rec.net.provenance;
  compile::Provenance ref = rec.net.provenance;
  const std::uint64_t lib_named =
      compile::detail::resolve_provenance(lib, rec.keys, rec.netlist);
  const std::uint64_t ref_named = reference_resolve(ref, rec.keys, rec.netlist);
  EXPECT_EQ(lib_named, ref_named) << what;
  expect_same_provenance(lib, ref, what + " (resolve_provenance)");

  auto twin = make();
  compile::LowerOptions opt;
  opt.compact = false;
  const compile::Lowered low = compile::lower_array(twin, opt);
  EXPECT_EQ(low.net.stats.named_lanes, ref_named) << what;
  expect_same_provenance(low.net.provenance, ref, what + " (lower_array)");
}

TEST(ProvenanceResolve, Design1MatchesReference) {
  for (const std::size_t m : {3u, 5u}) {
    check_against_reference("design1 m" + std::to_string(m), [m] {
      Rng rng(40 + m);
      std::vector<Cost> costs(m);
      for (std::size_t i = 0; i < m; ++i) costs[i] = static_cast<Cost>(i + 1);
      return Design1Modular(random_matrix_string(3, m, rng), costs);
    });
  }
}

TEST(ProvenanceResolve, Design1NamesLanesAndMergesModules) {
  // Design 1 is the family whose lanes resolve, so the reference check
  // above compares real names, not only misses.
  Rng rng(41);
  Design1Modular arr(random_matrix_string(3, 4, rng), {1, 2, 3, 4});
  const compile::Lowered low = compile::lower_array(arr);
  EXPECT_GT(low.net.stats.named_lanes, 0u);
  EXPECT_GT(low.net.provenance.modules.size(), 0u);
  EXPECT_LT(low.net.provenance.modules.size(), low.net.provenance.lanes.size());
}

TEST(ProvenanceResolve, GktMatchesReference) {
  for (const std::size_t m : {3u, 6u}) {
    check_against_reference("gkt m" + std::to_string(m), [m] {
      std::vector<Cost> dims(m + 1);
      for (std::size_t i = 0; i <= m; ++i) {
        dims[i] = static_cast<Cost>(2 + (i * 7) % 9);
      }
      return TriangularModularArray<ChainRule>(ChainRule(dims), m);
    });
  }
}

TEST(ProvenanceResolve, BstMatchesReference) {
  check_against_reference("bst n5", [] {
    return TriangularModularArray<BstRule>(BstRule({3, 1, 4, 1, 5}), 5);
  });
}

TEST(ProvenanceResolve, ChainRuleMatchesReference) {
  check_against_reference("chain n6", [] {
    return TriangularModularArray<ChainRule>(ChainRule({5, 3, 8, 2, 6, 4, 7}),
                                             6);
  });
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

  compile::Provenance prov;
  const std::vector<const void*> keys = {&b, &unknown, &c, &tap, &a};
  prov.lanes.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    prov.lanes[i].label = "lane" + std::to_string(i);
  }
  compile::Provenance ref = prov;
  const std::uint64_t named =
      compile::detail::resolve_provenance(prov, keys, net);
  EXPECT_EQ(named, reference_resolve(ref, keys, net));
  expect_same_provenance(prov, ref, "fixture");

  EXPECT_EQ(named, 4u);
  EXPECT_EQ(prov.modules,
            (std::vector<std::string>{"pe", "ctl", "environment"}));
  EXPECT_EQ(prov.lanes[0].module_id, 0u);  // b, written by the second "pe"
  EXPECT_FALSE(prov.lanes[1].named);       // never declared
  EXPECT_EQ(prov.lanes[1].label, "lane1");
  EXPECT_EQ(prov.lanes[2].module_id, 1u);  // c
  EXPECT_EQ(prov.lanes[3].module_id, 2u);  // tap: nothing writes it
  EXPECT_EQ(prov.lanes[3].label, "tap");
  EXPECT_EQ(prov.lanes[4].module_id, 0u);  // a, written by the first "pe"
}

}  // namespace
}  // namespace sysdp
