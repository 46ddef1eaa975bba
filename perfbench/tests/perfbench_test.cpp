// Tests of the benchmark's own arithmetic and plumbing: percentile
// selection, span self time, power-law fits, and a tiny-size smoke run of
// every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankIsIntegerExact) {
  EXPECT_EQ(nearest_rank(100, 900), 90u);
  EXPECT_EQ(nearest_rank(101, 900), 91u);
  EXPECT_EQ(nearest_rank(10, 500), 5u);
  EXPECT_EQ(nearest_rank(1, 900), 1u);
  EXPECT_EQ(nearest_rank(0, 900), 1u);
}

TEST(Percentile, SelectsTheRankedSample) {
  EXPECT_EQ(quantile(one_to(100), 900), 90.0);
  EXPECT_EQ(quantile(one_to(100), 500), 50.0);
  EXPECT_EQ(quantile(one_to(10), 900), 9.0);
  EXPECT_EQ(quantile(one_to(1), 900), 1.0);
  EXPECT_EQ(quantile({}, 500), 0.0);
}

TEST(Percentile, SampleCountForTenAboveP90) {
  EXPECT_EQ(samples_above(100, 900), 10u);
  EXPECT_EQ(samples_above(99, 900), 9u);
  EXPECT_EQ(samples_needed(900, 10), 100u);
  EXPECT_EQ(samples_needed(500, 10), 20u);
  for (std::size_t n = 1; n < 400; ++n) {
    EXPECT_EQ(samples_above(n, 900) >= 10, n >= 100) << n;
  }
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(const char* name, std::int64_t a, std::int64_t b, int parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  const std::vector<Span> spans = {
      span("root", 0, 100, -1),
      span("a", 10, 30, 0),
      span("b", 20, 50, 0),    // overlaps a: [10, 50) counts once
      span("c", 90, 120, 0),   // clipped to the parent's end
      span("a.x", 12, 18, 1),  // a grandchild: covered by a, not root's
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SelfTime, LeafSpansKeepTheirDuration) {
  const auto self = self_times({span("x", 5, 9, -1), span("y", 0, 3, -1)});
  EXPECT_EQ(self[0], 4);
  EXPECT_EQ(self[1], 3);
}

TEST(Tracer, ScopesNestByCallOrder) {
  Tracer tr;
  {
    Scope a(&tr, "a", 7);
    { Scope b(&tr, "b", 7); }
    { Scope c(&tr, "c", 7); }
  }
  { Scope d(&tr, "d", 8); }
  Scope off(nullptr, "ignored", 0);  // untraced scopes record nothing
  const auto& s = tr.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[3].problem, 8u);
  for (const Span& x : s) EXPECT_LE(x.start_ns, x.end_ns);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_GE(s[0].end_ns, s[2].end_ns);
}

TEST(PowerFit, RecoversKnownExponents) {
  for (const double b : {0.5, 1.0, 1.5, 3.0}) {
    std::vector<double> x, y;
    for (int i = 1; i <= 40; ++i) {
      x.push_back(1000.0 * i);
      y.push_back(3.0 * std::pow(1000.0 * i, b));
    }
    const PowerFit f = fit_power_law(x, y);
    ASSERT_TRUE(f.ok);
    EXPECT_EQ(f.points, 40u);
    EXPECT_NEAR(f.exponent, b, 1e-9) << b;
  }
}

TEST(PowerFit, ToleratesMultiplicativeNoise) {
  std::vector<double> x, y;
  for (int i = 1; i <= 60; ++i) {
    x.push_back(i * 500.0);
    // +-5% alternating noise on a y ~ x^1.2 law.
    y.push_back(std::pow(i * 500.0, 1.2) * (i % 2 == 0 ? 1.05 : 0.95));
  }
  EXPECT_NEAR(fit_power_law(x, y).exponent, 1.2, 0.02);
}

TEST(PowerFit, NeedsThreePointsOverTwoSizes) {
  EXPECT_FALSE(fit_power_law({1, 2}, {1, 2}).ok);
  EXPECT_FALSE(fit_power_law({5, 5, 5}, {1, 2, 3}).ok);
  const PowerFit f = fit_power_law({1, 2, -3, 4}, {1, 2, 3, 0});
  EXPECT_EQ(f.points, 2u);  // non-positive points are skipped
  EXPECT_FALSE(f.ok);
}

std::map<std::string, double> by_name(const Report& r) {
  std::map<std::string, double> m;
  for (const Metric& x : r.metrics) m[x.name] = x.value;
  return m;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, TinyRunAnswersEveryProblem) {
  Options opt;
  opt.workload = GetParam();
  opt.seed = 3;
  opt.seconds = 0.05;
  opt.tiny = true;
  const Report r = run_workload(opt);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures.front());
  const auto m = by_name(r);
  ASSERT_EQ(m.size(), end_to_end_metrics().size());
  for (const auto& [name, unit] : end_to_end_metrics()) {
    ASSERT_TRUE(m.count(name)) << name;
  }
  EXPECT_EQ(m.at("answer_ok_frac"), 1.0);
  EXPECT_GT(m.at("solve_p50_ms"), 0.0);
  EXPECT_GE(m.at("solve_p90_ms"), m.at("solve_p50_ms"));
  EXPECT_GT(m.at("setup_s"), 0.0);
  EXPECT_GE(m.at("sim_cycle_ratio"), 1.0);
}

TEST_P(Smoke, TinyTracedRunReportsEveryLayer) {
  Options opt;
  opt.workload = GetParam();
  opt.seed = 4;
  opt.seconds = 0.05;
  opt.tiny = true;
  opt.trace = true;
  const Report r = run_workload(opt);
  EXPECT_EQ(r.failed, 0u) << (r.failures.empty() ? "" : r.failures.front());
  const auto m = by_name(r);
  ASSERT_EQ(m.size(), per_layer_metrics().size());
  for (const auto& [name, unit] : per_layer_metrics()) {
    ASSERT_TRUE(m.count(name)) << name;
  }
  EXPECT_EQ(m.at("analysis.verify_findings"), 0.0);
  EXPECT_GT(m.at("sim.run_ms"), 0.0);
  EXPECT_GT(m.at("baseline.solve_ms"), 0.0);
  EXPECT_FALSE(r.spans.empty());
  EXPECT_NE(r.ledger.find("[" + std::string(opt.workload == "rebind_mixed"
                                                 ? "request"
                                                 : "solve") +
                          "]"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("cold_mixed", "rebind_mixed",
                                           "sim_sweep"));

TEST(Workloads, UnknownNameThrows) {
  Options opt;
  opt.workload = "nope";
  EXPECT_THROW((void)run_workload(opt), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
