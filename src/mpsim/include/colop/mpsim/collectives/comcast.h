#pragma once
// Comcast — "compute after broadcast" (Section 3.4 of the paper):
//
//   [b, _, ..., _]  ->  [b, g b, g^2 b, ..., g^(n-1) b]
//
// Three implementations:
//   * comcast_naive   — bcast, then rank k applies g k times: O(p) local work.
//   * comcast_repeat  — bcast, then rank k runs the `repeat` schema over the
//     binary digits of k with step functions e (digit 0) and o (digit 1):
//     O(log p) local work (Fig. 6).  This is the RHS of the Comcast rules.
//   * comcast_costopt — the paper's cost-optimal doubling scheme: no value
//     is recomputed, but whole auxiliary tuples travel over the network, so
//     its communication term is larger (the paper measures it slower).
//
// The state machinery is generic: `init` builds the auxiliary tuple from
// the broadcast value (pair/triple/quadruple), `e`/`o` advance it, and
// `extract` projects the result (π1).

#include <optional>
#include <utility>

#include "colop/mpsim/collectives/bcast.h"
#include "colop/mpsim/comm.h"

namespace colop::mpsim {

/// The paper's `repeat` schema (Eq 14): traverse the binary digits of `k`
/// from least to most significant, applying `e` on digit 0 and `o` on 1.
template <typename S, typename E, typename O>
[[nodiscard]] S repeat_bits(S state, unsigned k, E e, O o) {
  while (k != 0) {
    state = (k & 1u) ? o(std::move(state)) : e(std::move(state));
    k >>= 1u;
  }
  return state;
}

/// bcast + linear local iteration: rank k returns g^k(b).
template <typename B, typename G>
[[nodiscard]] B comcast_naive(const Comm& comm, B value, G g, int root = 0) {
  value = bcast(comm, std::move(value), root);
  const int k = (comm.rank() - root + comm.size()) % comm.size();
  for (int i = 0; i < k; ++i) value = g(std::move(value));
  return value;
}

/// bcast + logarithmic local computation via `repeat` (rule RHS, Fig. 6).
template <typename B, typename Init, typename E, typename O, typename Extract>
[[nodiscard]] B comcast_repeat(const Comm& comm, B value, Init init, E e, O o,
                               Extract extract, int root = 0,
                               BcastAlgo algo = BcastAlgo::binomial) {
  value = bcast(comm, std::move(value), root, algo);
  const unsigned k =
      static_cast<unsigned>((comm.rank() - root + comm.size()) % comm.size());
  auto state = repeat_bits(init(std::move(value)), k, e, o);
  return extract(std::move(state));
}

/// Cost-optimal doubling: at step 2^k, every rank i < 2^k sends the
/// advanced state o(s) to rank i + 2^k and keeps e(s).  No redundant
/// computation, but each message carries the full auxiliary tuple.
template <typename B, typename Init, typename E, typename O, typename Extract>
[[nodiscard]] B comcast_costopt(const Comm& comm, B value, Init init, E e, O o,
                                Extract extract) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = comm.next_collective_tag();
  using S = decltype(init(std::move(value)));

  std::optional<S> state;
  if (r == 0) state.emplace(init(std::move(value)));
  for (int step = 1; step < p; step <<= 1) {
    if (r < step) {
      if (r + step < p) comm.send_raw(r + step, o(*state), tag);
      state.emplace(e(std::move(*state)));
    } else if (r < 2 * step) {
      state.emplace(comm.recv_raw<S>(r - step, tag));
    }
  }
  return extract(std::move(*state));
}

}  // namespace colop::mpsim
