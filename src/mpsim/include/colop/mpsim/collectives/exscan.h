#pragma once
// Exclusive scan and reduce-scatter: the remaining members of MPI's
// reduction family, rounding out the substrate (MPI_Exscan,
// MPI_Reduce_scatter_block).

#include <optional>
#include <utility>
#include <vector>

#include "colop/mpsim/collectives/gatherscatter.h"
#include "colop/mpsim/comm.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Exclusive scan: rank r > 0 returns x_0 # ... # x_{r-1}; rank 0 returns
/// nullopt (MPI leaves its buffer undefined).  Doubling schedule, combines
/// strictly in rank order (associativity suffices).
template <typename T, typename Op>
[[nodiscard]] std::optional<T> exscan(const Comm& comm, T value, Op op) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = comm.next_collective_tag();

  // buf covers [r - 2^k + 1, r] after phase k; acc covers [.., r-1].
  T buf = std::move(value);
  std::optional<T> acc;
  for (int d = 1; d < p; d <<= 1) {
    if (r + d < p) comm.send_raw(r + d, buf, tag);
    if (r - d >= 0) {
      T got = comm.recv_raw<T>(r - d, tag);  // covers [r-2d+1, r-d]
      acc = acc ? op(got, std::move(*acc)) : got;
      buf = op(std::move(got), std::move(buf));
    }
  }
  return acc;
}

/// Reduce-scatter (block variant): every rank contributes one block per
/// destination; rank i returns the rank-ordered reduction of the blocks
/// addressed to it.
///
/// Schedules: recursive halving for p = 2^k — but halving interleaves
/// non-contiguous rank sets, so (exactly as in MPICH) it is used only when
/// the operator is declared COMMUTATIVE.  Non-commutative operators and
/// non-powers of two use alltoall + a strictly rank-ordered local fold.
template <typename T, typename Op>
[[nodiscard]] T reduce_scatter(const Comm& comm, std::vector<T> blocks, Op op,
                               bool commutative = true) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                "reduce_scatter: need one block per rank");
  if (p == 1) return std::move(blocks[0]);

  if (commutative && is_pow2(static_cast<std::uint64_t>(p))) {
    const int tag = comm.next_collective_tag();
    // Current index range [lo, lo+len) this rank is responsible for.
    int lo = 0, len = p;
    std::vector<T> mine = std::move(blocks);
    while (len > 1) {
      const int half = len / 2;
      const int mask = half;  // partner differs in this bit of the range
      const int partner = r ^ mask;
      const bool upper = (r & mask) != 0;
      // Ship the half that belongs to the partner's side.
      const int ship_lo = upper ? 0 : half;  // offsets within `mine`
      std::vector<T> outgoing(
          std::make_move_iterator(mine.begin() + ship_lo),
          std::make_move_iterator(mine.begin() + ship_lo + half));
      comm.send_raw(partner, std::move(outgoing), tag);
      auto incoming = comm.recv_raw<std::vector<T>>(partner, tag);
      const int keep_lo = upper ? half : 0;
      std::vector<T> kept(std::make_move_iterator(mine.begin() + keep_lo),
                          std::make_move_iterator(mine.begin() + keep_lo + half));
      // Combine in rank order: the partner's accumulated rank set is an
      // aligned block entirely below or above ours.
      for (int j = 0; j < half; ++j) {
        kept[static_cast<std::size_t>(j)] =
            partner < r ? op(std::move(incoming[static_cast<std::size_t>(j)]),
                             std::move(kept[static_cast<std::size_t>(j)]))
                        : op(std::move(kept[static_cast<std::size_t>(j)]),
                             std::move(incoming[static_cast<std::size_t>(j)]));
      }
      mine = std::move(kept);
      lo += upper ? half : 0;
      len = half;
    }
    COLOP_ASSERT(lo == r, "reduce_scatter: range did not converge to rank");
    return std::move(mine[0]);
  }

  // General p: alltoall then a rank-ordered local fold.
  auto received = alltoall(comm, std::move(blocks));
  T acc = std::move(received[0]);
  for (int i = 1; i < p; ++i)
    acc = op(std::move(acc), std::move(received[static_cast<std::size_t>(i)]));
  return acc;
}

}  // namespace colop::mpsim
