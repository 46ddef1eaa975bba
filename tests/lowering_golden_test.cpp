// Golden all-field tape digests for the matrix-string and multistage
// lowerings: Design 1, Design 2 and Design 3, each at two sizes x
// optimizer level {0, 2} x parameter plane {off, on}.  (The triangular
// family's goldens, the GKT matrix-chain triangle included, live in
// triangular_modular_test.cpp.)  How the recorder, the optimizer and the
// compactor organise their work may change; the tapes they emit may not,
// byte for byte.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arrays/design1_modular.hpp"
#include "arrays/design2_modular.hpp"
#include "arrays/design3_modular.hpp"
#include "compile/lower.hpp"
#include "graph/node_value_graph.hpp"
#include "semiring/matrix.hpp"
#include "tape_digest.hpp"

namespace sysdp {
namespace {

// Deterministic costs in [lo, hi] (xorshift; no standard distribution, so
// the inputs do not depend on the library's RNG implementation).
std::vector<Cost> xorshift_costs(std::size_t n, std::uint64_t seed, Cost lo,
                                 Cost hi) {
  std::vector<Cost> out(n);
  std::uint64_t s = seed * 2654435761u + 1;
  for (auto& x : out) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = lo + static_cast<Cost>(s % static_cast<std::uint64_t>(hi - lo + 1));
  }
  return out;
}

// A string of q matrices for Designs 1 and 2: the leftmost r x m (r <= m),
// the others m x m.
std::vector<Matrix<Cost>> matrix_string(std::size_t q, std::size_t m,
                                        std::size_t r, std::uint64_t seed) {
  std::vector<Matrix<Cost>> mats;
  for (std::size_t k = 0; k < q; ++k) {
    const std::size_t rows = k == 0 ? r : m;
    const auto c = xorshift_costs(rows * m, seed + k, 0, 99);
    Matrix<Cost> mat(rows, m);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < m; ++j) mat(i, j) = c[i * m + j];
    }
    mats.push_back(std::move(mat));
  }
  return mats;
}

// A node-value graph for Design 3: `stages` stages of `width` quantised
// values, edge cost |u - v| + 1.
NodeValueGraph node_values(std::size_t stages, std::size_t width,
                           std::uint64_t seed) {
  std::vector<std::vector<Cost>> values;
  for (std::size_t k = 0; k < stages; ++k) {
    values.push_back(xorshift_costs(width, seed + k, 0, 40));
  }
  return NodeValueGraph(std::move(values), [](Cost u, Cost v) {
    return (u > v ? u - v : v - u) + 1;
  });
}

struct Golden {
  const char* family;
  std::size_t size;
  int optimize;
  bool parameterise;
  std::uint64_t digest;
};

// Lower `family` at `size` under `opt`.  Sizes: Design 1/2 run q = size
// matrices of width m = size + 1 with a 2-row leftmost one; Design 3 runs
// `size` stages of width size - 2.
std::uint64_t lowered_digest(const std::string& family, std::size_t size,
                             const compile::LowerOptions& opt) {
  if (family == "design1") {
    Design1Modular arr(matrix_string(size, size + 1, 2, 3 * size),
                       xorshift_costs(size + 1, size, 0, 50));
    return golden::tape_digest(compile::lower_array(arr, opt).net);
  }
  if (family == "design2") {
    Design2Modular arr(matrix_string(size, size + 1, 2, 5 * size),
                       xorshift_costs(size + 1, size + 1, 0, 50));
    return golden::tape_digest(compile::lower_array(arr, opt).net);
  }
  const NodeValueGraph graph = node_values(size, size - 2, 7 * size);
  Design3Modular arr(graph);
  return golden::tape_digest(compile::lower_array(arr, opt).net);
}

void expect_goldens(const std::vector<Golden>& goldens) {
  for (const Golden& g : goldens) {
    compile::LowerOptions opt;
    opt.optimize = g.optimize;
    opt.parameterise = g.parameterise;
    EXPECT_EQ(lowered_digest(g.family, g.size, opt), g.digest)
        << g.family << " size=" << g.size << " opt=" << g.optimize
        << " parameterise=" << g.parameterise;
  }
}

TEST(LoweringGolden, Design1TapesMatchGoldenDigests) {
  expect_goldens({
      {"design1", 3, 0, false, 0x8a5e5476fb2fb9fbull},
      {"design1", 3, 0, true, 0x7067f11666b7de48ull},
      {"design1", 3, 2, false, 0xffff95fa5ad01dbbull},
      {"design1", 3, 2, true, 0xbb1c9ff3def0770cull},
      {"design1", 8, 0, false, 0xa66fbc3df1dbf030ull},
      {"design1", 8, 0, true, 0x0d90523afa95f710ull},
      {"design1", 8, 2, false, 0xb628a2291f572856ull},
      {"design1", 8, 2, true, 0xe6f48d38fe4c9096ull},
  });
}

TEST(LoweringGolden, Design2TapesMatchGoldenDigests) {
  expect_goldens({
      {"design2", 3, 0, false, 0x6247c9fb3887ea91ull},
      {"design2", 3, 0, true, 0x4faa6047ae6bd1bfull},
      {"design2", 3, 2, false, 0x06372e7504a6531full},
      {"design2", 3, 2, true, 0x3be7082948d7a081ull},
      {"design2", 8, 0, false, 0x00e1646009806966ull},
      {"design2", 8, 0, true, 0xceee1ce0cd2bbc24ull},
      {"design2", 8, 2, false, 0xb1051ea38dcc57f0ull},
      {"design2", 8, 2, true, 0x8291ffd4d44150c6ull},
  });
}

TEST(LoweringGolden, Design3TapesMatchGoldenDigests) {
  expect_goldens({
      {"design3", 4, 0, false, 0x3a0e0145e4081dfaull},
      {"design3", 4, 0, true, 0x97a3c105d0bd15ebull},
      {"design3", 4, 2, false, 0xce986e8622a19335ull},
      {"design3", 4, 2, true, 0x11c2e548824112b8ull},
      {"design3", 9, 0, false, 0xb203c2c35d17ea94ull},
      {"design3", 9, 0, true, 0x33f1b6252c629517ull},
      {"design3", 9, 2, false, 0x9ecda9f94237eecdull},
      {"design3", 9, 2, true, 0xe6485a84be1457c2ull},
  });
}

}  // namespace
}  // namespace sysdp
