#include "analysis/lint.hpp"

#include <algorithm>
#include <utility>

namespace sysdp::analysis {

namespace {

/// Comma-joined node names for multi-module diagnostics.
std::string name_list(const Netlist& net, const std::vector<NodeId>& ids) {
  std::string out;
  for (const NodeId id : ids) {
    if (!out.empty()) out += ", ";
    out += net.node(id).name;
  }
  return out;
}

void check_multiple_drivers(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.kind_conflict) {
      emit(name_list(net, st.writers.empty() ? st.readers : st.writers),
           st.label,
           "storage '" + st.label +
               "' is declared both as a register and as a combinational "
               "signal — pick one timing domain");
    }
    if (st.writers.size() < 2) continue;
    const char* what = st.kind == sim::PortKind::kRegister
                           ? "register written by"
                           : "bus/signal driven by";
    emit(name_list(net, st.writers), st.label,
         std::string(what) + " " + std::to_string(st.writers.size()) +
             " modules (" + name_list(net, st.writers) +
             ") — the surviving value depends on evaluation order");
  }
}

void check_comb_hazard(const Netlist& net, const Emitter& emit) {
  // A signal driver that is not a declared combinational module: the
  // gated engine would sweep it with the listeners instead of ahead of
  // them, a same-phase read-after-write hazard.
  for (const Storage& st : net.storages) {
    if (st.kind != sim::PortKind::kSignal) continue;
    for (const NodeId w : st.writers) {
      const NetNode& n = net.node(w);
      if (n.module != nullptr && !n.combinational) {
        emit(n.name, st.label,
             "signal '" + st.label + "' is driven by " + n.name +
                 ", which does not report combinational() — the gated "
                 "engine does not order it ahead of same-cycle listeners");
      }
    }
  }
  // A listener registered before its driver reads the previous cycle's
  // value: the engine's serial order is the figure's broadcast order.
  for (const DataflowEdge& e : net.edges) {
    if (e.kind != sim::PortKind::kSignal) continue;
    const NetNode& src = net.node(e.src);
    const NetNode& dst = net.node(e.dst);
    if (!src.in_engine || !dst.in_engine) continue;
    if (src.engine_order > dst.engine_order) {
      emit(dst.name, net.storages[e.storage].label,
           "same-phase read-after-write hazard: " + dst.name +
               " (eval order " + std::to_string(dst.engine_order) +
               ") samples signal '" + net.storages[e.storage].label +
               "' before its driver " + src.name + " (order " +
               std::to_string(src.engine_order) + ") has spoken");
    }
  }
  // Combinational cycles: a loop of same-cycle dependencies has no valid
  // evaluation order at all.
  const std::size_t n = net.nodes.size();
  std::vector<std::vector<NodeId>> adj(n);
  for (const DataflowEdge& e : net.edges) {
    if (e.kind == sim::PortKind::kSignal) adj[e.src].push_back(e.dst);
  }
  std::vector<std::uint8_t> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<NodeId> stack;
  const auto dfs = [&](NodeId root, const auto& self) -> bool {
    color[root] = 1;
    stack.push_back(root);
    for (const NodeId next : adj[root]) {
      if (color[next] == 1) {
        std::vector<NodeId> cycle(
            std::find(stack.begin(), stack.end(), next), stack.end());
        emit(net.node(next).name, "",
             "combinational cycle: " + name_list(net, cycle) + " -> " +
                 net.node(next).name +
                 " — same-cycle dependencies form a loop");
        return true;
      }
      if (color[next] == 0 && self(next, self)) return true;
    }
    stack.pop_back();
    color[root] = 2;
    return false;
  };
  for (NodeId i = 0; i < n; ++i) {
    if (color[i] == 0 && dfs(i, dfs)) break;  // one cycle report suffices
  }
}

void check_dangling_port(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.writers.empty() && !st.readers.empty()) {
      emit(name_list(net, st.readers), st.label,
           "port '" + st.label + "' is read by " +
               name_list(net, st.readers) +
               " but never driven — only its initial value is observable");
    }
    if (st.readers.empty() && !st.writers.empty()) {
      emit(name_list(net, st.writers), st.label,
           "port '" + st.label + "' is written by " +
               name_list(net, st.writers) +
               " but nothing (module or environment tap) reads it",
           Severity::kNote);
    }
  }
}

void check_orphan_module(const Netlist& net, const Emitter& emit) {
  for (const NetNode& node : net.nodes) {
    if (node.module != nullptr && !node.in_engine) {
      emit(node.name, "",
           "module " + node.name +
               " was described but never registered with the Engine — it "
               "would not be simulated at all");
    }
  }
}

void check_wakeup_coverage(const Netlist& net, const Emitter& emit) {
  for (const DataflowEdge& e : net.edges) {
    const NetNode& src = net.node(e.src);
    const NetNode& dst = net.node(e.dst);
    if (src.module == nullptr || dst.module == nullptr) continue;
    if (!src.in_engine || !dst.in_engine) continue;
    if (dst.sleep != sim::SleepMode::kWakeable) continue;
    if (net.has_wakeup(e.src, e.dst)) continue;
    const Storage& st = net.storages[e.storage];
    // Retimed coverage: a combinational signal that re-presents a
    // registered value may be covered by an edge from the register's
    // writer — the writer was provably active the cycle the value was
    // staged, so its edge wakes the consumer in time.
    if (e.kind == sim::PortKind::kSignal) {
      bool covered = false;
      for (const sim::SignalDerivation& d : net.derivations) {
        if (d.signal != st.key) continue;
        const std::uint32_t reg = net.storage_of(d.reg);
        if (reg == Netlist::npos) continue;
        for (const NodeId w : net.storages[reg].writers) {
          if (net.has_wakeup(w, e.dst)) {
            covered = true;
            break;
          }
        }
        if (covered) break;
      }
      if (covered) continue;
    }
    emit(dst.name, st.label,
         "dataflow edge " + src.name + " -> " + dst.name + " via '" +
             st.label + "' has no covering wakeup edge: " + dst.name +
             " is wakeable, so Gating::kSparse can leave it asleep while "
             "this input reactivates — declare Engine::add_wakeup(" +
             src.name + ", " + dst.name + ")");
  }
}

void check_probe_coverage(const Netlist& net, const Emitter& emit) {
  for (const Storage& st : net.storages) {
    if (st.sampled || st.writers.empty()) continue;
    // Only engine modules matter: environment taps are testbench harvest
    // conveniences, not simulated hardware the waveform layer could show.
    bool module_written = false;
    for (const NodeId w : st.writers) {
      if (net.node(w).module != nullptr) {
        module_written = true;
        break;
      }
    }
    if (!module_written) continue;
    emit(name_list(net, st.writers), st.label,
         "storage '" + st.label +
             "' is written but no writing port attaches a telemetry "
             "sampler — VCD waveforms of this design omit it");
  }
}

}  // namespace

LintReport Linter::run(const Netlist& net, std::string design_name) const {
  LintReport report;
  report.design = std::move(design_name);
  check_multiple_drivers(net,
                         Emitter(kMultipleDrivers, Severity::kError, report));
  check_comb_hazard(net, Emitter(kCombHazard, Severity::kError, report));
  check_dangling_port(net, Emitter(kDanglingPort, Severity::kWarning, report));
  check_orphan_module(net, Emitter(kOrphanModule, Severity::kError, report));
  check_wakeup_coverage(net,
                        Emitter(kWakeupCoverage, Severity::kError, report));
  check_probe_coverage(net, Emitter(kProbeCoverage, Severity::kNote, report));
  return report;
}

}  // namespace sysdp::analysis
