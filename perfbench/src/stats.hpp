// Arithmetic and span plumbing of the end-to-end benchmark: percentile
// selection, power-law fits, and the span recorder whose self times make
// up the per-layer ledger.  Kept free of library types so the tests can
// pin it on synthetic data.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the `permille`/1000 quantile among `n` sorted
/// samples: ceil(permille * n / 1000), at least 1.  Integer arithmetic, so
/// p90 of 100 samples is rank 90 exactly.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, unsigned permille);

/// Samples strictly ranked above the nearest-rank quantile: n - rank.
[[nodiscard]] std::size_t samples_above(std::size_t n, unsigned permille);

/// Smallest sample count that leaves at least `k` samples above the
/// quantile (100 for p90 with k = 10).
[[nodiscard]] std::size_t samples_needed(unsigned permille, std::size_t k);

/// Nearest-rank quantile of `v` (copied and sorted); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, unsigned permille);

/// Median as the mean of the two middle values for even counts.
[[nodiscard]] double median(std::vector<double> v);

/// Least-squares slope of log(y) against log(x): the exponent b of
/// y = a * x^b.  Points with a non-positive coordinate are skipped; the
/// fit needs at least three points over at least two distinct x values,
/// otherwise `ok` is false and the exponent is 0.
struct PowerFit {
  double exponent = 0.0;
  std::size_t points = 0;
  bool ok = false;
};
[[nodiscard]] PowerFit fit_power_law(const std::vector<double>& x,
                                     const std::vector<double>& y);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Smallest non-zero step between successive steady_clock readings.
[[nodiscard]] std::int64_t clock_resolution_ns();

/// Host-speed calibration kernel, owned by the benchmark so no library
/// change can move it: a dependent walk over a 4 MiB random cycle plus an
/// unordered_map build, the cache-latency and allocation patterns that
/// lowering and replay lean on, sized so both halves take about the same
/// time.  Timed between blocks of solves, its slowdown against
/// kNominalMs tracks what co-tenants on a shared host are costing right
/// now.
class Calibrator {
 public:
  /// Builds the walk table (untimed).
  Calibrator();
  /// Run the kernel once; returns its wall time in ms.
  double run();
  /// The kernel's time on an otherwise idle 4-thread x86-64 reference
  /// host: the speed every normalised time is expressed at.
  static constexpr double kNominalMs = 8.0;

 private:
  std::vector<std::uint32_t> next_;
};

/// One traced call: a named interval, the span that contained it (-1 for
/// a root) and the problem it served.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t problem = 0;

  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children are clipped to the
/// parent and overlaps between them count once).
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<Span>& spans);

/// In-memory span recorder.  Spans nest by call order: a span opened
/// while another is open becomes its child.  Nothing is written until the
/// caller asks for the spans at the end of the run.
class Tracer {
 public:
  /// Open a span; returns its index.
  std::size_t open(std::string name, std::uint32_t problem);
  /// Close span `index` (the innermost open one when scopes nest).
  void close(std::size_t index) noexcept;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: a no-op when the tracer is null, so one code path serves the
/// traced and the untraced run.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t problem)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, problem) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
