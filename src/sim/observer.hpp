// Telemetry hooks for the clocked engine.
//
// Observability is opt-in and composable: an EngineObserver attaches to an
// Engine before time starts and is notified once after elaboration and once
// per completed cycle.  The engine guards every notification behind a single
// empty()-check, so an engine with no observers pays one branch per cycle —
// the "zero overhead when off" contract the bench gate enforces.
//
// Two roles, deliberately separate:
//
//   * EngineObserver — a *clocked* probe.  It sees the engine after each
//     commit phase, when all registers hold their new values, and samples
//     whatever it cares about (VCD writers sample declared ports, timeline
//     sinks sample busy counters).  Observers are passive: they must not
//     mutate modules or the engine.
//   * EventSink — a destination for named scalar events, the replacement
//     for the ad-hoc `Trace*` plumbing array models used to carry.  Sinks
//     own their bounding policy and report how many events they discarded,
//     so overflow is an explicit, queryable fact instead of a latent flag.
//
// sim::Trace implements EventSink, so existing call sites keep working;
// src/obs builds richer sinks (VCD, timelines, chrome traces) on top of
// EngineObserver.
#pragma once

#include <cstdint>
#include <string>

#include "sim/module.hpp"

namespace sysdp::sim {

class Engine;

/// Passive per-cycle probe attached via Engine::add_observer.  Attach
/// before the first step(); the engine rejects late attachment because
/// on_elaborated would never fire for a late observer.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// Fired at the first step(), after the netlist is complete and before
  /// any module evaluates.  This is where a probe walks
  /// Module::describe_ports and builds its sample plan; throwing aborts
  /// the run before cycle 0 (analysis::DebugLint).
  virtual void on_elaborated(const Engine& engine) { (void)engine; }

  /// Fired after cycle `t` fully completed (eval + commit done, so all
  /// registers hold their post-edge values; Engine::now() == t + 1).
  virtual void on_cycle(const Engine& engine, Cycle t) {
    (void)engine;
    (void)t;
  }
};

/// Destination for named (cycle, signal, value) events.  Implementations
/// choose their own bounding policy and account for discarded events.
class EventSink {
 public:
  virtual ~EventSink() = default;

  virtual void record(Cycle t, std::string signal, std::int64_t value) = 0;

  /// Events this sink had to discard under its bounding policy; 0 for
  /// unbounded sinks.  Array models propagate this into RunResult so a
  /// truncated trace is visible at the API surface.
  [[nodiscard]] virtual std::uint64_t dropped_events() const noexcept {
    return 0;
  }
};

}  // namespace sysdp::sim
