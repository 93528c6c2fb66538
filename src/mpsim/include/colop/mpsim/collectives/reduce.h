#pragma once
// Reduction (Eq 5/6 of the paper).
//
//   reduce:    [x1, ..., xn] -> [y, x2, ..., xn],   y = x1 # x2 # ... # xn
//   allreduce: [x1, ..., xn] -> [y, y, ..., y]
//
// Operators only need to be ASSOCIATIVE: every schedule here combines
// values strictly in rank (list) order, so non-commutative operators (e.g.
// matrix multiply, function composition) are safe — same guarantee MPI
// gives for user ops.

#include <optional>
#include <utility>

#include "colop/mpsim/comm.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Tree reduction to `root`.  The root rank returns the combined value;
/// every other rank returns its own input unchanged (Eq 5).
///
/// Schedule: binomial tree over real ranks toward rank 0 (combines in rank
/// order, so associativity suffices), then one extra hop if root != 0.
template <typename T, typename Op>
[[nodiscard]] T reduce(const Comm& comm, T value, Op op, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(root >= 0 && root < p, "reduce: invalid root");
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();

  // Non-root ranks return their input unchanged (Eq 5); the root's is
  // consumed, so only the others keep a copy.
  std::optional<T> original;
  if (r != root) original.emplace(value);
  T acc = std::move(value);
  bool sent = false;
  for (int mask = 1; mask < p && !sent; mask <<= 1) {
    if (r & mask) {
      comm.send_raw(r - mask, std::move(acc), tag);
      sent = true;
    } else if (r + mask < p) {
      // acc covers [r, r+mask), the received value covers [r+mask, ...):
      // combine left-to-right to preserve list order.
      acc = op(std::move(acc), comm.recv_raw<T>(r + mask, tag));
    }
  }
  if (root == 0) return r == 0 ? std::move(acc) : std::move(*original);
  if (r == 0) comm.send_raw(root, std::move(acc), tag);
  if (r == root) return comm.recv_raw<T>(0, tag);
  return std::move(*original);
}

/// All-reduce via recursive doubling (butterfly).  Non-power-of-two ranks
/// are handled with an order-preserving pre-fold: among the first 2*rem
/// ranks, odd ranks fold into their even neighbour (keeping segments
/// contiguous), the remaining q = 2^k virtual ranks run the butterfly, and
/// the folded ranks receive the result back at the end.
template <typename T, typename Op>
[[nodiscard]] T allreduce(const Comm& comm, T value, Op op) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();

  const int q = 1 << log2_floor(static_cast<std::uint64_t>(p));
  const int rem = p - q;

  // --- pre-fold: ranks [0, 2*rem) pair up (even keeps, odd waits) --------
  int vrank;  // virtual rank in [0, q), or -1 for folded-out odd ranks
  if (r < 2 * rem) {
    if (r % 2 == 1) {
      comm.send_raw(r - 1, std::move(value), tag);
      return comm.recv_raw<T>(r - 1, tag);  // final result arrives post-fold
    }
    value = op(std::move(value), comm.recv_raw<T>(r + 1, tag));
    vrank = r / 2;
  } else {
    vrank = r - rem;
  }
  auto real = [&](int v) { return v < rem ? 2 * v : v + rem; };

  // --- butterfly over q = 2^k virtual ranks ------------------------------
  for (int k = 0; (1 << k) < q; ++k) {
    const int partner = vrank ^ (1 << k);
    const T other = comm.sendrecv_tagged(real(partner), value, tag);
    // Virtual ranks own contiguous, ordered segments: combine low-first.
    value = partner > vrank ? op(std::move(value), std::move(other))
                            : op(std::move(other), std::move(value));
  }

  // --- post-fold: even ranks forward the result to their odd neighbour ---
  if (r < 2 * rem) comm.send_raw(r + 1, value, tag);
  return value;
}

}  // namespace colop::mpsim
