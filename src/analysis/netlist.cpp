#include "analysis/netlist.hpp"

#include <algorithm>
#include <unordered_map>

#include "sim/engine.hpp"

namespace sysdp::analysis {

namespace {

/// Insert `id` into a deduplicated, sorted accessor list.
void note_accessor(std::vector<NodeId>& list, NodeId id) {
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) list.insert(it, id);
}

bool wakeup_less(const WakeupEdge& a, const WakeupEdge& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

}  // namespace

bool Netlist::has_wakeup(NodeId src, NodeId dst) const {
  const WakeupEdge probe{src, dst};
  const auto it =
      std::lower_bound(wakeups.begin(), wakeups.end(), probe, wakeup_less);
  return it != wakeups.end() && it->src == src && it->dst == dst;
}

std::uint32_t Netlist::storage_of(const void* key) const {
  const auto it = storage_index.find(key);
  return it == storage_index.end() ? npos : it->second;
}

Netlist capture(const sim::Engine& engine, const CaptureOptions& opts) {
  Netlist net;
  std::unordered_map<const sim::Module*, NodeId> node_of;

  const auto add_node = [&](const sim::Module* m, bool in_engine,
                            std::uint32_t order) {
    const auto id = static_cast<NodeId>(net.nodes.size());
    net.nodes.push_back(NetNode{m, m->name(), m->combinational(),
                                m->sleep_mode(), in_engine, order});
    node_of.emplace(m, id);
    return id;
  };

  for (std::uint32_t i = 0; i < engine.modules().size(); ++i) {
    add_node(engine.modules()[i], true, i);
  }
  for (const sim::Module* m : opts.extra_modules) {
    if (m != nullptr && node_of.find(m) == node_of.end()) {
      add_node(m, false, 0);
    }
  }
  net.environment = static_cast<NodeId>(net.nodes.size());
  net.nodes.push_back(
      NetNode{nullptr, "environment", false, sim::SleepMode::kNever, false, 0});

  // Collect every declared port use, building the storage table as keys
  // appear.  The first declaration fixes the kind and label; later
  // mismatching kinds are recorded as a conflict for the linter.
  const auto record = [&](NodeId node, const sim::Port& p) {
    auto [it, inserted] = net.storage_index.emplace(
        p.storage, static_cast<std::uint32_t>(net.storages.size()));
    if (inserted) {
      net.storages.push_back(
          Storage{p.storage, p.kind, false, false, p.label, {}, {}});
    }
    Storage& st = net.storages[it->second];
    if (st.kind != p.kind) st.kind_conflict = true;
    // Prefer a writer's label as the canonical storage name.
    if (p.dir == sim::PortDir::kOut && !p.label.empty()) st.label = p.label;
    if (p.dir == sim::PortDir::kOut && p.sample) st.sampled = true;
    note_accessor(p.dir == sim::PortDir::kOut ? st.writers : st.readers, node);
  };

  for (NodeId id = 0; id < net.environment; ++id) {
    sim::PortSet ports;
    net.nodes[id].module->describe_ports(ports);
    for (const sim::Port& p : ports.ports()) record(id, p);
    for (const sim::SignalDerivation& d : ports.derivations()) {
      net.derivations.push_back(d);
    }
  }
  for (const sim::Port& p : opts.environment.ports()) {
    record(net.environment, p);
  }
  for (const sim::SignalDerivation& d : opts.environment.derivations()) {
    net.derivations.push_back(d);
  }

  // Dataflow edges: every writer reaches every reader of its storage.
  // Self-loops are dropped — a module's private round-trip through its own
  // register is not inter-module dataflow.
  for (std::uint32_t s = 0; s < net.storages.size(); ++s) {
    const Storage& st = net.storages[s];
    for (const NodeId w : st.writers) {
      for (const NodeId r : st.readers) {
        if (w != r) net.edges.push_back(DataflowEdge{w, r, s, st.kind});
      }
    }
  }

  for (const auto& [src, dst] : engine.wakeup_edges()) {
    net.wakeups.push_back(WakeupEdge{node_of.at(src), node_of.at(dst)});
  }
  std::stable_sort(net.wakeups.begin(), net.wakeups.end(), wakeup_less);
  return net;
}

}  // namespace sysdp::analysis
