// Complete binary AND-tree over a matrix string (Section 4).
//
// A polyadic-serial DP problem lets the matrix string be multiplied
// recursively: the leaves are the N stage matrices and every internal node
// is one matrix product evaluated by one systolic array in T_1 time.  The
// tree shape (left subtree takes the ceiling half) matches
// balanced_string_mat_mul, so executing the tree reproduces the sequential
// result exactly.
#pragma once

#include <cstddef>
#include <vector>

namespace sysdp {

struct AndTreeNode {
  std::size_t lo = 0;       ///< [lo, hi) range of leaf matrices covered
  std::size_t hi = 0;
  std::size_t left = kNone;   ///< child indices (kNone for leaves)
  std::size_t right = kNone;
  std::size_t parent = kNone;
  std::size_t height = 0;   ///< longest path to a leaf (leaves: 0)
  std::size_t depth = 0;    ///< distance from the root (root: 0) — Hu's
                            ///< level for in-tree scheduling

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  [[nodiscard]] bool is_leaf() const noexcept { return left == kNone; }
};

/// The AND-tree for a string of `num_leaves` matrices.
class AndTree {
 public:
  explicit AndTree(std::size_t num_leaves);

  [[nodiscard]] std::size_t num_leaves() const noexcept { return leaves_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const AndTreeNode& node(std::size_t i) const {
    return nodes_.at(i);
  }
  [[nodiscard]] std::size_t root() const noexcept { return root_; }

  /// Height of the tree: ceil(log2(num_leaves)).
  [[nodiscard]] std::size_t height() const { return nodes_.at(root_).height; }

 private:
  std::size_t build(std::size_t lo, std::size_t hi);

  std::size_t leaves_;
  std::size_t root_ = 0;
  std::vector<AndTreeNode> nodes_;
};

}  // namespace sysdp
