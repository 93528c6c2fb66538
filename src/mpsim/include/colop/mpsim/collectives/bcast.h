#pragma once
// Broadcast (Eq 8 of the paper): [x1, _, ..., _] -> [x1, x1, ..., x1].
//
// Two schedules:
//   * binomial tree  — log2(p) rounds, the MPICH default for small/medium p;
//   * butterfly      — pairwise-exchange dissemination, the implementation
//                      the paper's cost model (Eq 15) assumes.
// Both take ceil(log2 p) phases, matching T_bcast = log p * (ts + m*tw).

#include <optional>
#include <utility>

#include "colop/mpsim/comm.h"

namespace colop::mpsim {

enum class BcastAlgo { binomial, butterfly };

/// Broadcast `value` from `root` to all ranks; every rank returns the
/// root's value.  Non-root inputs are ignored (the paper's `_`).
template <typename T>
[[nodiscard]] T bcast(const Comm& comm, T value, int root = 0,
                      BcastAlgo algo = BcastAlgo::binomial) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(root >= 0 && root < p, "bcast: invalid root");
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();
  const int vr = (r - root + p) % p;  // virtual rank: root becomes 0
  auto real = [&](int v) { return (v + root) % p; };

  if (algo == BcastAlgo::binomial) {
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vr < mask) {
        const int partner = vr + mask;
        if (partner < p) comm.send_raw(real(partner), value, tag);
      } else if (vr < 2 * mask) {
        value = comm.recv_raw<T>(real(vr - mask), tag);
      }
    }
    return value;
  }

  // Butterfly: phase k exchanges with vr XOR 2^k; a rank holds the value
  // once vr < 2^(k+1).  Ranks without a partner (partner >= p) idle.
  std::optional<T> held;
  if (vr == 0) held = std::move(value);
  for (int k = 0; (1 << k) < p; ++k) {
    const int partner = vr ^ (1 << k);
    if (partner >= p) continue;
    comm.send_raw(real(partner), held, tag);
    auto other = comm.recv_raw<std::optional<T>>(real(partner), tag);
    if (!held && other) held = std::move(other);
  }
  COLOP_ASSERT(held.has_value(), "butterfly bcast did not reach this rank");
  return std::move(*held);
}

}  // namespace colop::mpsim
