// Differential tests for the engine-backed generic triangular array:
// TriangularModularCore must agree with the analytic TriangularArray on
// every rule in the interval-DP family, cycle for cycle, agree with the
// chain-specialised GKT arrays on chain inputs, and be bit-identical across
// engine modes.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arrays/gkt_array.hpp"
#include "arrays/gkt_rtl.hpp"
#include "arrays/triangular_array.hpp"
#include "arrays/triangular_modular.hpp"
#include "compile/lower.hpp"
#include "tape_digest.hpp"

namespace sysdp {
namespace {

// Deterministic pseudo-random costs in [1, 20] (xorshift; no global RNG
// so test order cannot change inputs).
std::vector<Cost> make_costs(std::size_t n, std::uint64_t seed) {
  std::vector<Cost> out(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    out[i] = static_cast<Cost>(s % 20) + 1;
  }
  return out;
}

// Upper-triangle cost equality between the modular and analytic results.
template <typename Analytic>
void expect_costs_match(const TriangularModularCore::Result& mod,
                        const Analytic& ref) {
  ASSERT_EQ(mod.cost.rows(), ref.cost.rows());
  ASSERT_EQ(mod.cost.cols(), ref.cost.cols());
  for (std::size_t i = 0; i < mod.cost.rows(); ++i) {
    for (std::size_t j = i; j < mod.cost.cols(); ++j) {
      EXPECT_EQ(mod.cost(i, j), ref.cost(i, j)) << "cell (" << i << ", " << j
                                                << ")";
    }
  }
  EXPECT_EQ(mod.total(), ref.total());
}

TEST(TriangularModular, BstMatchesAnalytic) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 12u}) {
    const auto freq = make_costs(n, 11 * n + 3);
    const auto mod = run_bst_modular(freq);
    const auto ref = run_bst_array(freq);
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_costs_match(mod, ref);
  }
}

TEST(TriangularModular, PolygonMatchesAnalytic) {
  for (std::size_t n : {2u, 3u, 4u, 6u, 9u, 13u}) {
    const auto weights = make_costs(n, 7 * n + 1);
    const auto mod = run_polygon_modular(weights);
    const auto ref = run_polygon_array(weights);
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_costs_match(mod, ref);
  }
}

TEST(TriangularModular, ChainMatchesAnalytic) {
  for (std::size_t m : {1u, 2u, 4u, 7u, 11u}) {
    const auto dims = make_costs(m + 1, 5 * m + 9);
    const auto mod = run_chain_modular(dims);
    const auto ref = run_chain_array(dims);
    SCOPED_TRACE("matrices = " + std::to_string(m));
    expect_costs_match(mod, ref);
  }
}

// The chain rule cross-checks the chain-specialised GKT witnesses,
// closing the triangle: the engine-backed chain triangle equals the
// analytic GktArray cell for cell — cost and completion cycle — and both
// count the same cycles as the RTL GktRtlArray.
TEST(TriangularModular, ChainMatchesGktArrays) {
  for (std::size_t m : {1u, 3u, 6u, 10u}) {
    const auto dims = make_costs(m + 1, 13 * m + 5);
    SCOPED_TRACE("matrices = " + std::to_string(m));
    const auto mod = run_chain_modular(dims);
    const auto rtl = GktRtlArray(dims).run();
    const auto gkt = GktArray(dims).run();
    EXPECT_EQ(mod.total(), rtl.total());
    EXPECT_EQ(mod.total(), gkt.total());
    EXPECT_EQ(mod.stats.cycles, rtl.stats.cycles);
    EXPECT_EQ(mod.stats.cycles, gkt.stats.cycles);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = i + 1; j < m; ++j) {
        EXPECT_EQ(mod.cost(i, j), gkt.cost(i, j))
            << "cell (" << i << ", " << j << ")";
        EXPECT_EQ(mod.done(i, j), gkt.ready(i, j))
            << "cell (" << i << ", " << j << ")";
      }
    }
  }
}

// Classic fixed instance (CLRS 15.2): dims 30x35x15x5x10x20x25, optimal
// cost 15125.
TEST(TriangularModular, ChainClassicInstance) {
  const std::vector<Cost> dims{30, 35, 15, 5, 10, 20, 25};
  EXPECT_EQ(run_chain_modular(dims).total(), 15125);
}

// Bit-identity across dense/sparse: cost AND completion cycles match
// exactly (active/dense eval counters are simulator-side and excluded by
// design).
TEST(TriangularModular, BitIdenticalAcrossEngineModes) {
  struct Case {
    const char* name;
    sim::Gating gating;
  };
  const Case cases[] = {
      {"dense", sim::Gating::kDense},
      {"sparse", sim::Gating::kSparse},
  };
  const auto freq = make_costs(9, 42);
  const auto weights = make_costs(9, 43);
  const auto dims = make_costs(9, 44);
  const auto ref_bst = run_bst_modular(freq);
  const auto ref_poly = run_polygon_modular(weights);
  const auto ref_chain = run_chain_modular(dims);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    for (const auto* ref : {&ref_bst, &ref_poly, &ref_chain}) {
      auto got = ref == &ref_bst    ? run_bst_modular(freq, c.gating)
                 : ref == &ref_poly ? run_polygon_modular(weights, c.gating)
                                    : run_chain_modular(dims, c.gating);
      ASSERT_EQ(got.cost.rows(), ref->cost.rows());
      for (std::size_t i = 0; i < got.cost.rows(); ++i) {
        for (std::size_t j = i; j < got.cost.cols(); ++j) {
          EXPECT_EQ(got.cost(i, j), ref->cost(i, j));
          EXPECT_EQ(got.done(i, j), ref->done(i, j));
        }
      }
      EXPECT_EQ(got.stats.busy_steps, ref->stats.busy_steps);
      EXPECT_EQ(got.stats.cycles, ref->stats.cycles);
    }
  }
}

// Activity gating must actually save evals on a sparse workload while the
// dense run evaluates every cell every cycle.
TEST(TriangularModular, SparseGatingSkipsIdleCells) {
  const auto freq = make_costs(12, 77);
  const auto dense = run_bst_modular(freq, sim::Gating::kDense);
  const auto sparse = run_bst_modular(freq, sim::Gating::kSparse);
  EXPECT_EQ(dense.stats.active_evals, dense.stats.dense_evals);
  EXPECT_LT(sparse.stats.active_evals, sparse.stats.dense_evals);
  EXPECT_EQ(dense.total(), sparse.total());
}

TEST(TriangularModular, SingleCellArrays) {
  EXPECT_EQ(run_bst_modular({5}).total(), 5);
  EXPECT_EQ(run_chain_modular({3, 4}).total(), 0);
  EXPECT_EQ(run_polygon_modular({2, 3}).total(), 0);
}

// A malformed rule whose sub-intervals leave the consumer's row/column
// must be rejected at compile time, not silently mis-wired.
struct BadRule {
  [[nodiscard]] Cost base(std::size_t) const { return 0; }
  [[nodiscard]] std::size_t splits(std::size_t, std::size_t) const {
    return 1;
  }
  [[nodiscard]] Cost candidate(std::size_t, std::size_t, std::size_t, Cost l,
                               Cost r) const {
    return l + r;
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t, std::size_t) const {
    return {i + 1, i + 1};  // not on the consumer's row
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t, std::size_t j, std::size_t) const {
    return {j, j};
  }
};

TEST(TriangularModular, RejectsOffAxisRule) {
  EXPECT_THROW((TriangularModularArray<BadRule>(BadRule{}, 3)),
               std::invalid_argument);
}

// A valid chain rule that lists its splits right to left: every origin
// names a launching cell on the consumer's row and column, but the
// origins decrease in t, which the binary-search matching cannot serve.
struct ReversedChainRule {
  ChainRule chain;
  [[nodiscard]] Cost base(std::size_t i) const { return chain.base(i); }
  [[nodiscard]] std::size_t splits(std::size_t i, std::size_t j) const {
    return chain.splits(i, j);
  }
  [[nodiscard]] std::size_t flip(std::size_t i, std::size_t j,
                                 std::size_t t) const {
    return splits(i, j) - 1 - t;
  }
  [[nodiscard]] Cost candidate(std::size_t i, std::size_t j, std::size_t t,
                               Cost l, Cost r) const {
    return chain.candidate(i, j, flip(i, j, t), l, r);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> left_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    return chain.left_interval(i, j, flip(i, j, t));
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> right_interval(
      std::size_t i, std::size_t j, std::size_t t) const {
    return chain.right_interval(i, j, flip(i, j, t));
  }
};

TEST(TriangularModular, RejectsUnorderedOrigins) {
  const ReversedChainRule rule{ChainRule(make_costs(5, 1))};
  EXPECT_THROW((TriangularModularArray<ReversedChainRule>(rule, 4)),
               std::invalid_argument);
  // n = 2 has one split per cell, so there is no order to violate.
  EXPECT_NO_THROW((TriangularModularArray<ReversedChainRule>(
      ReversedChainRule{ChainRule(make_costs(3, 1))}, 2)));
}

// Every candidate must be matched exactly once, including origins shared
// by two candidates: the BST rule clamps t = 0 and t = 1 to row origin i
// and t = d - 1 and t = d to column origin j.  Per cell, the cost and
// completion cycle equal the analytic model's, the analytic winning split
// reproduces the cost from the modular sub-interval values, and the busy
// count equals the split count (the analytic model's per-cell work).  The
// reported cycle count is the analytic model's too: the root's completion
// cycle, not the number of cycles the engine stepped.
template <typename Rule>
void expect_matches_analytic_per_cell(const Rule& rule, std::size_t n,
                                      sim::Gating gating) {
  const auto ref = TriangularArray<Rule>(rule, n).run();
  TriangularModularArray<Rule> arr(rule, n);
  const auto mod = arr.run(gating);
  ASSERT_EQ(mod.cost.rows(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      SCOPED_TRACE("cell (" + std::to_string(i) + ", " +
                   std::to_string(j) + ")");
      ASSERT_EQ(mod.cost(i, j), ref.cost(i, j));
      ASSERT_EQ(arr.pe_busy(TriangularModularCore::cell_id(n, i, j)),
                i == j ? 0 : rule.splits(i, j));
      if (i == j) continue;
      ASSERT_EQ(mod.done(i, j), ref.ready(i, j));
      if (rule.splits(i, j) == 0) continue;
      const std::size_t t = ref.split(i, j);
      const auto [li, lj] = rule.left_interval(i, j, t);
      const auto [ri, rj] = rule.right_interval(i, j, t);
      ASSERT_EQ(rule.candidate(i, j, t, mod.cost(li, lj), mod.cost(ri, rj)),
                mod.cost(i, j));
    }
  }
  EXPECT_EQ(mod.stats.busy_steps, ref.stats.busy_steps);
  EXPECT_EQ(mod.stats.cycles, ref.stats.cycles);
}

TEST(TriangularModular, SharedOriginsAllMatch) {
  for (const sim::Gating gating : {sim::Gating::kDense, sim::Gating::kSparse}) {
    for (std::size_t n = 2; n <= 40; ++n) {
      SCOPED_TRACE("n = " + std::to_string(n) +
                   (gating == sim::Gating::kDense ? " dense" : " sparse"));
      expect_matches_analytic_per_cell(BstRule(make_costs(n, 2 * n + 1)), n,
                                       gating);
      expect_matches_analytic_per_cell(ChainRule(make_costs(n + 1, 2 * n)),
                                       n, gating);
      expect_matches_analytic_per_cell(PolygonRule(make_costs(n, 2 * n + 3)),
                                       n, gating);
    }
  }
}

// Lower rule `which` ("bst", "polygon", "chain") at size n under `opt`;
// the digest covers the lane names unless `names` is false.
std::uint64_t lowered_digest(const std::string& which, std::size_t n,
                             const compile::LowerOptions& opt,
                             bool names = true) {
  if (which == "bst") {
    TriangularModularArray<BstRule> arr(BstRule(make_costs(n, 3 * n + 1)), n);
    return golden::tape_digest(compile::lower_array(arr, opt).net, names);
  }
  if (which == "polygon") {
    TriangularModularArray<PolygonRule> arr(
        PolygonRule(make_costs(n, 3 * n + 2)), n);
    return golden::tape_digest(compile::lower_array(arr, opt).net, names);
  }
  TriangularModularArray<ChainRule> arr(ChainRule(make_costs(n + 1, 3 * n)),
                                        n);
  return golden::tape_digest(compile::lower_array(arr, opt).net, names);
}

struct Golden {
  const char* rule;
  std::size_t n;
  int optimize;
  bool parameterise;
  std::uint64_t digest;
};

// Golden all-field digests of the lowered chain / BST / polygon tapes.
// The matching and table layout of the interpreted array may change; the
// tapes it narrates may not, byte for byte.  Every lane is named after
// its cell: cell[i,j] in module t<i>_<j>.
TEST(TriangularModular, LoweredTapesMatchGoldenDigests) {
  const Golden golden[] = {
      {"bst", 8, 0, false, 0xa4c871cedf7ea1b2ull},
      {"bst", 8, 0, true, 0x5531a7fc0c9cbce5ull},
      {"bst", 8, 2, false, 0xaf5909f1b98ebe84ull},
      {"bst", 8, 2, true, 0x8f348209bf34f77bull},
      {"bst", 24, 0, false, 0x2c6b7aea1f06bc48ull},
      {"bst", 24, 0, true, 0xcca275d01638d463ull},
      {"bst", 24, 2, false, 0x94ae1cf7739ca431ull},
      {"bst", 24, 2, true, 0x5f14f772b0318aeaull},
      {"bst", 48, 0, false, 0x0af3ed935583a929ull},
      {"bst", 48, 0, true, 0xad58111432f24524ull},
      {"bst", 48, 2, false, 0x1890479b03b300b6ull},
      {"bst", 48, 2, true, 0x358f8112dcbc1ae3ull},
      {"polygon", 8, 0, false, 0x1df193f16552a1adull},
      {"polygon", 8, 0, true, 0xa7c2581e1fb71702ull},
      {"polygon", 8, 2, false, 0x1776c9722941344aull},
      {"polygon", 8, 2, true, 0x29e4f982dc72abb1ull},
      {"polygon", 24, 0, false, 0x439a291104d386f1ull},
      {"polygon", 24, 0, true, 0x7690f7e3698e6808ull},
      {"polygon", 24, 2, false, 0x807585708d6c5e55ull},
      {"polygon", 24, 2, true, 0x139cad0d4d5cc9dcull},
      {"polygon", 48, 0, false, 0x71bba4dda13a9274ull},
      {"polygon", 48, 0, true, 0xc0669ae4648f8807ull},
      {"polygon", 48, 2, false, 0xf32076a90cdd3815ull},
      {"polygon", 48, 2, true, 0xd04149c3af8f9ee2ull},
      {"chain", 8, 0, false, 0x53eaec3db416e9f6ull},
      {"chain", 8, 0, true, 0x58f972e2aa4cb932ull},
      {"chain", 8, 2, false, 0xe6387b57121859baull},
      {"chain", 8, 2, true, 0xbc29e1418550ca92ull},
      {"chain", 24, 0, false, 0xa18da752538c8cd9ull},
      {"chain", 24, 0, true, 0x6da502d93618543eull},
      {"chain", 24, 2, false, 0x2353a91e402dfeb9ull},
      {"chain", 24, 2, true, 0x0f0653987029ff96ull},
      {"chain", 48, 0, false, 0x7e7b981cfa08b3feull},
      {"chain", 48, 0, true, 0x051bac2b5375f745ull},
      {"chain", 48, 2, false, 0x09f94fd6e96a81ceull},
      {"chain", 48, 2, true, 0x67c6d59f19ab6b7dull},
  };
  for (const Golden& g : golden) {
    compile::LowerOptions opt;
    opt.optimize = g.optimize;
    opt.parameterise = g.parameterise;
    EXPECT_EQ(lowered_digest(g.rule, g.n, opt), g.digest)
        << g.rule << " n=" << g.n << " opt=" << g.optimize
        << " parameterise=" << g.parameterise;
  }
}

// The same tapes with the lane names left out of the digest.  These
// values were recorded before the cells declared their value lanes, when
// no triangle lane had a name: naming moved the digests above and nothing
// else — same ops, levels, slots, outputs, binds and op attribution.
TEST(TriangularModular, LoweredTapesMatchNameBlindGoldens) {
  const Golden golden[] = {
      {"bst", 8, 0, false, 0xa8d9c242e91c7c72ull},
      {"bst", 8, 0, true, 0xe4b177e1ef863e2dull},
      {"bst", 8, 2, false, 0xc071f4be20177a5cull},
      {"bst", 8, 2, true, 0x7ce6804aee78d77bull},
      {"bst", 24, 0, false, 0x92c269d52216ac02ull},
      {"bst", 24, 0, true, 0x0373f418e32e2ba5ull},
      {"bst", 24, 2, false, 0x17f12ded97526743ull},
      {"bst", 24, 2, true, 0x40acc506c8ce04dcull},
      {"bst", 48, 0, false, 0x209b834e10a4b1e9ull},
      {"bst", 48, 0, true, 0x19e259f830e4a050ull},
      {"bst", 48, 2, false, 0x3e91911aa3d3c86aull},
      {"bst", 48, 2, true, 0x1f99f926678d8a9bull},
      {"polygon", 8, 0, false, 0xee723296ae47a601ull},
      {"polygon", 8, 0, true, 0x8ed841772d67da2eull},
      {"polygon", 8, 2, false, 0xbe175b21db22faf6ull},
      {"polygon", 8, 2, true, 0xed0645a91e2f5245ull},
      {"polygon", 24, 0, false, 0xb6ce7d3e3a6a45dbull},
      {"polygon", 24, 0, true, 0x44885f4d200db20aull},
      {"polygon", 24, 2, false, 0x08379208f9480c4full},
      {"polygon", 24, 2, true, 0x5bbe5d133d2e5f9eull},
      {"polygon", 48, 0, false, 0x5c9d9252d70413a8ull},
      {"polygon", 48, 0, true, 0x40c82eb75b0569b7ull},
      {"polygon", 48, 2, false, 0x8187a8e4595fd185ull},
      {"polygon", 48, 2, true, 0x6d7e08be0eff9166ull},
      {"chain", 8, 0, false, 0x8c346d9cee8c4e56ull},
      {"chain", 8, 0, true, 0x8a50b9a5c2756802ull},
      {"chain", 8, 2, false, 0x7ce00a40674ef2baull},
      {"chain", 8, 2, true, 0x68efba3778fba612ull},
      {"chain", 24, 0, false, 0x4b68df268e7e4307ull},
      {"chain", 24, 0, true, 0x362b9cc4efcb9c1cull},
      {"chain", 24, 2, false, 0x0040150253de593bull},
      {"chain", 24, 2, true, 0xad290bc11c496b28ull},
      {"chain", 48, 0, false, 0x45f3d598cd2711e6ull},
      {"chain", 48, 0, true, 0x8507d51cad0d094dull},
      {"chain", 48, 2, false, 0xb8f5f729b924c48aull},
      {"chain", 48, 2, true, 0xfff2409c15609649ull},
  };
  for (const Golden& g : golden) {
    compile::LowerOptions opt;
    opt.optimize = g.optimize;
    opt.parameterise = g.parameterise;
    EXPECT_EQ(lowered_digest(g.rule, g.n, opt, /*names=*/false), g.digest)
        << g.rule << " n=" << g.n << " opt=" << g.optimize
        << " parameterise=" << g.parameterise;
  }
}

}  // namespace
}  // namespace sysdp
