#pragma once
// Inclusive scan / parallel prefix (Eq 7 of the paper):
//   [x1, x2, ..., xn] -> [x1, x1#x2, ..., x1#x2#...#xn]
//
// Two schedules:
//   * butterfly (default) — each rank maintains (prefix, block-total) and
//     exchanges totals with rank XOR 2^k; two operator applications per
//     element per phase, matching the paper's T_scan = log p*(ts+m*(tw+2)).
//     Works for any p: a rank whose upper partner does not exist simply
//     keeps going — its block total becomes stale, but stale totals are
//     only ever produced in the topmost incomplete block and are never
//     consumed as a lower-block total (proved in tests).
//   * doubling (Hillis–Steele) — one-directional sends, one operator
//     application per phase; alternative cost profile used in ablations.
//
// Operators need only be associative; combinations happen in rank order.

#include <utility>

#include "colop/mpsim/comm.h"

namespace colop::mpsim {

enum class ScanAlgo { butterfly, doubling };

template <typename T, typename Op>
[[nodiscard]] T scan(const Comm& comm, T value, Op op,
                     ScanAlgo algo = ScanAlgo::butterfly) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();

  if (algo == ScanAlgo::butterfly) {
    T prefix = value;
    T total = std::move(value);
    for (int k = 0; (1 << k) < p; ++k) {
      const int partner = r ^ (1 << k);
      if (partner >= p) continue;  // topmost incomplete block: idle
      T other_total = comm.sendrecv_tagged(partner, total, tag);
      if (partner < r) {
        prefix = op(other_total, std::move(prefix));
        total = op(std::move(other_total), std::move(total));
      } else {
        total = op(std::move(total), std::move(other_total));
      }
    }
    return prefix;
  }

  // Hillis–Steele doubling: after phase k a rank holds the combination of
  // the last 2^(k+1) inputs up to and including its own.
  for (int d = 1; d < p; d <<= 1) {
    if (r + d < p) comm.send_raw(r + d, value, tag);
    if (r - d >= 0)
      value = op(comm.recv_raw<T>(r - d, tag), std::move(value));
  }
  return value;
}

}  // namespace colop::mpsim
