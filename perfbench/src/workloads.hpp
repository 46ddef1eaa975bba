// The benchmark's three workloads.  Each generates its inputs from the
// seed, sets up (several times, for a median set-up time), then runs a
// closed loop of rounds — one problem of every size in a fixed ladder, in
// a seeded order — until the run time is spent, checking every answer and
// correcting every time for the host's momentary speed.  The traced
// variant records spans around the same library calls and turns them into
// the per-layer ledger.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small size ladders, one set-up and no sample floor: the self-test's
  /// smoke run of every workload.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Sample counts and other run facts for the metadata record.
  std::vector<std::pair<std::string, double>> counts;
  /// The first few failure descriptions.
  std::vector<std::string> failures;
  /// Traced run only: the per-layer ledger text and every recorded span.
  std::string ledger;
  std::vector<Span> spans;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Names and units of the end-to-end and per-layer metrics, in print order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Run one workload.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& opt);

/// Peak resident set of this process in MB (VmHWM), 0 if unavailable.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
