// Dataflow-graph reconstruction from a fully elaborated Engine.
//
// capture() walks every registered module's declared ports (sim/port.hpp)
// and rebuilds the netlist the C++ object graph only implies: nodes are
// modules (plus one synthetic "environment" node for testbench taps),
// storages are the distinct register/signal keys the modules named, and
// dataflow edges connect each storage's writers to its readers.  The
// engine's declared wakeup edges ride along so the linter can compare the
// two graphs — the systolic correctness arguments (Kung-style "data moves
// only through registers", the PR 2 quiescence contract) are statements
// about exactly this structure.
//
// The capture is purely structural: no module is evaluated, no state
// mutated, so it is safe to run between elaboration and cycle 0 (the
// engine's elaboration-check hook does precisely that).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/module.hpp"
#include "sim/port.hpp"

namespace sysdp::sim {
class Engine;
}  // namespace sysdp::sim

namespace sysdp::analysis {

/// Index into Netlist::nodes.
using NodeId = std::uint32_t;

/// One vertex of the dataflow graph: a module, or the environment.
struct NetNode {
  const sim::Module* module = nullptr;  ///< null for the environment node
  std::string name;
  bool combinational = false;
  sim::SleepMode sleep = sim::SleepMode::kNever;
  bool in_engine = false;
  std::uint32_t engine_order = 0;  ///< registration index; valid if in_engine
};

/// One distinct storage key with its declared accessors (deduplicated, in
/// node order).  `kind_conflict` records a key declared both kRegister and
/// kSignal — a modelling bug the linter reports.
struct Storage {
  const void* key = nullptr;
  sim::PortKind kind = sim::PortKind::kRegister;
  bool kind_conflict = false;
  /// True if any writing port attached a telemetry sampler (sim/port.hpp):
  /// the waveform layer can observe this storage.  The probe-coverage lint
  /// notes written storages no sampler covers.
  bool sampled = false;
  std::string label;
  std::vector<NodeId> writers;
  std::vector<NodeId> readers;
};

/// Writer-to-reader dataflow through one storage.  Self-loops (a module
/// reading its own register) are structural no-ops and are not emitted.
struct DataflowEdge {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t storage = 0;  ///< index into Netlist::storages
  sim::PortKind kind = sim::PortKind::kRegister;
};

/// A declared Engine::add_wakeup edge.
struct WakeupEdge {
  NodeId src = 0;
  NodeId dst = 0;
};

struct Netlist {
  std::vector<NetNode> nodes;  ///< engine modules first (in registration
                               ///< order), then extras, environment last
  NodeId environment = 0;
  std::vector<Storage> storages;
  /// Storage index per key, filled by capture() alongside `storages`.
  std::unordered_map<const void*, std::uint32_t> storage_index;
  std::vector<DataflowEdge> edges;
  /// Sorted by (src, dst), so has_wakeup() is a binary search.  Erasing
  /// entries keeps the order; an inserted edge must keep it too.
  std::vector<WakeupEdge> wakeups;
  /// Declared signal-from-register derivations (keys are global).
  std::vector<sim::SignalDerivation> derivations;

  [[nodiscard]] const NetNode& node(NodeId id) const { return nodes[id]; }
  [[nodiscard]] bool has_wakeup(NodeId src, NodeId dst) const;
  /// Storage index for a key (its first declaration), or npos if never
  /// declared.
  [[nodiscard]] std::uint32_t storage_of(const void* key) const;

  static constexpr std::uint32_t npos = static_cast<std::uint32_t>(-1);
};

struct CaptureOptions {
  /// Modules the design constructed that may or may not be registered with
  /// the engine; unregistered ones become orphan-module findings.
  std::vector<const sim::Module*> extra_modules;
  /// Testbench-side taps: storage the run loop itself reads (result
  /// harvests, boundary sinks) or writes.  Reads here silence unread-port
  /// findings for genuinely observed outputs.
  sim::PortSet environment;
};

/// Rebuild the dataflow graph of a fully elaborated engine.
[[nodiscard]] Netlist capture(const sim::Engine& engine,
                              const CaptureOptions& opts = {});

}  // namespace sysdp::analysis
