// Determinism of the simulation backend across execution modes.
//
// The batch runner fans whole simulations across a pool: a sweep must
// return exactly the results of the serial loop, in index order, for
// every thread count (including a pool with zero workers, the degenerate
// serial case).  Within one run, the telemetry documents must not depend
// on the gating mode.
#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "arrays/design1_modular.hpp"
#include "arrays/gkt_array.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "graph/generators.hpp"
#include "obs/timeline.hpp"
#include "obs/vcd.hpp"
#include "sim/batch.hpp"
#include "sim/thread_pool.hpp"

namespace sysdp {
namespace {

// Worker counts to sweep: 0 = no workers (inline), 1 = single worker
// thread, then a few genuinely concurrent shapes.
const std::size_t kWorkerCounts[] = {0, 1, 2, 3, 7};

// Both gating modes must reproduce the dense run bit-for-bit.
const sim::Gating kGatings[] = {sim::Gating::kDense, sim::Gating::kSparse};

struct Instance {
  std::vector<Matrix<Cost>> mats;
  std::vector<Cost> v;
};

Instance string_instance(std::size_t q, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Instance ins;
  ins.mats = random_matrix_string(q, m, rng);
  ins.v.resize(m);
  std::uniform_int_distribution<Cost> dist(0, 99);
  for (auto& x : ins.v) x = dist(rng);
  return ins;
}

// Telemetry determinism: probes read
// committed state on cycle boundaries, so the VCD dump and the utilisation
// timeline must be *byte-identical* across both gating modes, not merely
// the scalar results.  One divergent waveform byte means an observer saw
// mid-cycle or gating-dependent state.
struct TelemetryDoc {
  std::string vcd;
  std::string timeline;
};

template <typename Array>
TelemetryDoc capture_telemetry(Array& arr, sim::Gating gating) {
  sim::Engine engine(gating);
  obs::VcdSink vcd;
  obs::TimelineSink timeline(
      arr.num_pes(), [&arr](std::size_t pe) { return arr.pe_busy(pe); });
  engine.add_observer(&vcd);
  engine.add_observer(&timeline);
  (void)arr.run(engine);
  timeline.finalize();
  return TelemetryDoc{vcd.str(), timeline.to_json()};
}

TEST(ParallelDeterminism, Design1TelemetryBitIdenticalAcrossModes) {
  const auto ins = string_instance(3, 8, 3008);
  Design1Modular ref_arr(ins.mats, ins.v);
  const auto ref = capture_telemetry(ref_arr, sim::Gating::kDense);
  ASSERT_FALSE(ref.vcd.empty());
  for (const sim::Gating gating : kGatings) {
    Design1Modular arr(ins.mats, ins.v);
    const auto doc = capture_telemetry(arr, gating);
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    EXPECT_EQ(ref.vcd, doc.vcd);
    EXPECT_EQ(ref.timeline, doc.timeline);
  }
}

TEST(ParallelDeterminism, GktModularTelemetryBitIdenticalAcrossModes) {
  Rng rng(308);
  const ChainRule rule(random_chain_dims(8, rng));
  TriangularModularArray<ChainRule> ref_arr(rule, rule.num_matrices());
  const auto ref = capture_telemetry(ref_arr, sim::Gating::kDense);
  ASSERT_FALSE(ref.vcd.empty());
  for (const sim::Gating gating : kGatings) {
    TriangularModularArray<ChainRule> arr(rule, rule.num_matrices());
    const auto doc = capture_telemetry(arr, gating);
    SCOPED_TRACE("sparse=" + std::to_string(gating == sim::Gating::kSparse));
    EXPECT_EQ(ref.vcd, doc.vcd);
    EXPECT_EQ(ref.timeline, doc.timeline);
  }
}

// The GKT and triangular arrays are closed-form dataflow simulations (no
// engine), so parallelism reaches them through the batch runner: an
// N-sweep fanned across the pool must reproduce the serial loop exactly.
TEST(ParallelDeterminism, GktBatchSweepMatchesSerialLoop) {
  const std::size_t sizes[] = {4, 8, 12, 16, 24, 32, 40, 48};
  const auto job = [&](std::size_t i) {
    Rng rng(100 + i);
    GktArray arr(random_chain_dims(sizes[i], rng));
    return arr.run();
  };
  sim::BatchRunner serial(nullptr);
  const auto base = serial.run(std::size(sizes), job);
  for (const std::size_t workers : kWorkerCounts) {
    sim::ThreadPool pool(workers);
    sim::BatchRunner batched(&pool);
    const auto par = batched.run(std::size(sizes), job);
    ASSERT_EQ(par.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " job=" + std::to_string(i));
      EXPECT_EQ(base[i].total(), par[i].total());
      EXPECT_EQ(base[i].completion(), par[i].completion());
      EXPECT_EQ(base[i].stats.busy_steps, par[i].stats.busy_steps);
      EXPECT_DOUBLE_EQ(base[i].stats.utilization_wall(),
                       par[i].stats.utilization_wall());
    }
  }
}

TEST(ParallelDeterminism, TriangularBstBatchSweepMatchesSerialLoop) {
  const std::size_t sizes[] = {4, 8, 16, 24, 32, 48};
  const auto job = [&](std::size_t i) {
    Rng rng(7 * (i + 1));
    std::uniform_int_distribution<Cost> freq(1, 40);
    std::vector<Cost> f(sizes[i]);
    for (auto& x : f) x = freq(rng);
    return run_bst_array(f);
  };
  sim::BatchRunner serial(nullptr);
  const auto base = serial.run(std::size(sizes), job);
  for (const std::size_t workers : kWorkerCounts) {
    sim::ThreadPool pool(workers);
    sim::BatchRunner batched(&pool);
    const auto par = batched.run(std::size(sizes), job);
    ASSERT_EQ(par.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " job=" + std::to_string(i));
      EXPECT_EQ(base[i].total(), par[i].total());
      EXPECT_EQ(base[i].completion(), par[i].completion());
      EXPECT_EQ(base[i].stats.busy_steps, par[i].stats.busy_steps);
    }
  }
}

}  // namespace
}  // namespace sysdp
