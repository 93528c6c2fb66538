#pragma once
// The paper's special collective operations (Sections 3.2, 3.3):
//
//   reduce_balanced(op, unit)  — reduction over the unique balanced tree,
//       for operators that are NOT associative (e.g. op_sr of rule
//       SR-Reduction).  `op(lo, hi)` combines two sibling values; `unit(x)`
//       is the paper's op((), x) case applied at unit nodes (nodes with an
//       empty left subtree).
//
//   allreduce_balanced         — same, plus redistribution of the result.
//       For p = 2^k the balanced tree *is* the complete tree and the
//       computation runs as a single butterfly (every rank computes the
//       root value locally); otherwise reduce_balanced + bcast.
//
//   scan_balanced(op2, degrade) — butterfly scan with a non-associative
//       operator producing a PAIR of results per exchange (rule SS-Scan):
//       op2(lo, hi) = (new_lo, new_hi).  `degrade(x)` is applied when a
//       rank has no partner in a phase (partner id >= p): the paper keeps
//       the first tuple component and marks the rest undefined.

#include <optional>
#include <utility>

#include "colop/mpsim/balanced_tree.h"
#include "colop/mpsim/collectives/bcast.h"
#include "colop/mpsim/comm.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Balanced-tree reduction (Fig. 4).  The root rank (0, or `root`) returns
/// the combined value; other ranks return their input unchanged.
template <typename T, typename Op, typename UnitOp>
[[nodiscard]] T reduce_balanced(const Comm& comm, T value, Op op,
                                UnitOp unit_op, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(root >= 0 && root < p, "reduce_balanced: invalid root");
  const int tag = comm.next_collective_tag();

  const BalancedTree tree = BalancedTree::build(p);
  // Non-root ranks return their input unchanged (Eq 5); the root's is
  // consumed, so only the others keep a copy.
  std::optional<T> original;
  if (r != root) original.emplace(value);
  T acc = std::move(value);

  // Process internal nodes bottom-up; height levels are combining phases.
  for (const int ni : tree.internal_by_height()) {
    const BalancedNode& node = tree.node(ni);
    if (node.is_unit()) {
      if (r == node.owner()) acc = unit_op(std::move(acc));
      continue;
    }
    const int right_owner = tree.node(node.right).owner();
    if (r == right_owner) {
      // After sending, this rank takes no further part (it is never the
      // owner or right-child owner of any ancestor) and returns `original`.
      comm.send_raw(node.owner(), std::move(acc), tag);
    } else if (r == node.owner()) {
      acc = op(std::move(acc), comm.recv_raw<T>(right_owner, tag));
    }
  }

  if (root == 0) return r == 0 ? std::move(acc) : std::move(*original);
  if (r == 0) comm.send_raw(root, std::move(acc), tag);
  if (r == root) return comm.recv_raw<T>(0, tag);
  return std::move(*original);
}

/// Balanced all-reduction ("the tree can be extended to a butterfly").
template <typename T, typename Op, typename UnitOp>
[[nodiscard]] T allreduce_balanced(const Comm& comm, T value, Op op,
                                   UnitOp unit_op) {
  const int p = comm.size();
  if (p == 1) return value;
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    // Complete tree: the butterfly computes the identical combination on
    // every rank (both partners combine (lower, upper) in block order).
    const int r = comm.rank();
    const int tag = comm.next_collective_tag();
    for (int k = 0; (1 << k) < p; ++k) {
      const int partner = r ^ (1 << k);
      T other = comm.sendrecv_tagged(partner, value, tag);
      value = partner > r ? op(std::move(value), std::move(other))
                          : op(std::move(other), std::move(value));
    }
    return value;
  }
  value = reduce_balanced(comm, std::move(value), op, unit_op);
  return bcast(comm, std::move(value));
}

/// Balanced butterfly scan (Fig. 5).  Returns each rank's final value; the
/// caller extracts the scan result (first tuple component) afterwards.
///
/// `strip` is applied to the value before transmission: components that the
/// partner never reads (the scan component s) need not travel — this is why
/// the paper charges 3*tw, not 4*tw, for rule SS-Scan.  Defaults to the
/// identity (transmit everything).
template <typename T, typename Op2, typename Degrade,
          typename Strip = std::nullptr_t>
[[nodiscard]] T scan_balanced(const Comm& comm, T value, Op2 op2,
                              Degrade degrade, Strip strip = nullptr) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();

  auto stripped = [&](const T& v) -> T {
    if constexpr (std::is_same_v<Strip, std::nullptr_t>) {
      return v;
    } else {
      return strip(v);
    }
  };

  for (int k = 0; (1 << k) < p; ++k) {
    const int partner = r ^ (1 << k);
    if (partner >= p) {
      // No partner this phase: keep the scan component, the auxiliary
      // components become undefined (paper: op((s,t,u,v), ()) = ((s,_,_,_),())).
      value = degrade(std::move(value));
      continue;
    }
    T other = comm.sendrecv_tagged(partner, stripped(value), tag);
    if (partner > r) {
      auto [lo, hi] = op2(std::move(value), std::move(other));
      value = std::move(lo);
    } else {
      auto [lo, hi] = op2(std::move(other), std::move(value));
      value = std::move(hi);
    }
  }
  return value;
}

}  // namespace colop::mpsim
