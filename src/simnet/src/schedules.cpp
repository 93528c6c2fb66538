#include "colop/simnet/schedules.h"

#include <algorithm>

#include "colop/support/bits.h"

namespace colop::simnet {
namespace {

using colop::is_pow2;
using colop::log2_floor;

}  // namespace

void bcast_binomial(SimMachine& mach, double m, double w, int root) {
  const int p = mach.size();
  const double words = m * w;
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int vr = 0; vr < mask; ++vr) {
      const int partner = vr + mask;
      if (partner < p)
        mach.send((vr + root) % p, (partner + root) % p, words);
    }
    for (int vr = mask; vr < 2 * mask && vr < p; ++vr)
      mach.recv((vr + root) % p, (vr - mask + root) % p);
  }
}

void bcast_butterfly(SimMachine& mach, double m, double w, int root) {
  const int p = mach.size();
  const double words = m * w;
  for (int k = 0; (1 << k) < p; ++k) {
    if (root % p == 0) {
      mach.exchange_xor(1 << k, words);
      continue;
    }
    // A rotated root relabels the ranks: its pairs are not XOR partners.
    for (int vr = 0; vr < p; ++vr) {
      const int partner = vr ^ (1 << k);
      if (partner >= p || partner < vr) continue;  // each pair once
      mach.exchange((vr + root) % p, (partner + root) % p, words);
    }
  }
}

void bcast_vdg(SimMachine& mach, double m, double w) {
  const int p = mach.size();
  if (p == 1) return;
  const double seg = m / p;
  // Binomial scatter: at mask, vr (vr % 2mask == 0) ships the upper half
  // of its current span (min(mask, span - mask) segments) to vr + mask.
  for (int mask = static_cast<int>(next_pow2(static_cast<std::uint64_t>(p)) / 2);
       mask >= 1; mask >>= 1) {
    for (int vr = 0; vr + mask < p; vr += 2 * mask) {
      // span of vr before this step: up to 2*mask segments (clipped by p)
      const int span = std::min(2 * mask, p - vr);
      const int ship = span - mask;
      if (ship <= 0) continue;
      mach.send(vr, vr + mask, ship * seg * w);
      mach.recv(vr + mask, vr);
    }
  }
  // Bruck allgather of the m/p segments.
  for (int step = 1; step < p; step <<= 1) {
    const int chunk = std::min(step, p - step);
    for (int r = 0; r < p; ++r) mach.send(r, (r - step + p) % p, chunk * seg * w);
    for (int r = 0; r < p; ++r) mach.recv(r, (r + step) % p);
  }
}

void allreduce_vdg(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  if (p == 1) return;
  const double seg = m / p;
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    // Recursive halving: exchange half the remaining range each step and
    // combine it.
    int len = p;
    while (len > 1) {
      const int half = len / 2;
      mach.exchange_xor(half, half * seg * w);
      mach.compute_all(half * seg * ops);
      len = half;
    }
  } else {
    // alltoall of segments + local fold (the general-p fallback).
    for (int i = 1; i < p; ++i) {
      for (int r = 0; r < p; ++r) mach.send(r, (r + i) % p, seg * w);
      for (int r = 0; r < p; ++r) {
        mach.recv(r, (r - i + p) % p);
        mach.compute(r, seg * ops);
      }
    }
  }
  // Allgather of the combined segments (Bruck).
  for (int step = 1; step < p; step <<= 1) {
    const int chunk = std::min(step, p - step);
    for (int r = 0; r < p; ++r) mach.send(r, (r - step + p) % p, chunk * seg * w);
    for (int r = 0; r < p; ++r) mach.recv(r, (r + step) % p);
  }
}

void reduce_binomial(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  const double words = m * w;
  for (int mask = 1; mask < p; mask <<= 1) {
    for (int r = 0; r < p; ++r) {
      if ((r & ((mask << 1) - 1)) != 0) continue;  // r participates as recv
      if (r + mask >= p) continue;
      mach.send(r + mask, r, words);
      mach.recv(r, r + mask);
      mach.compute(r, m * ops);
    }
  }
}

void allreduce_butterfly(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  if (p == 1) return;
  const double words = m * w;
  const int q = 1 << log2_floor(static_cast<std::uint64_t>(p));
  const int rem = p - q;

  // pre-fold: odd ranks among the first 2*rem fold into the even neighbour
  for (int r = 0; r < 2 * rem; r += 2) {
    mach.send(r + 1, r, words);
    mach.recv(r, r + 1);
    mach.compute(r, m * ops);
  }
  auto real = [&](int v) { return v < rem ? 2 * v : v + rem; };
  for (int k = 0; (1 << k) < q; ++k) {
    if (rem == 0) {
      mach.exchange_xor(1 << k, words);
      mach.compute_all(m * ops);
      continue;
    }
    // After the fold the survivors are not contiguous: pair by real().
    for (int vr = 0; vr < q; ++vr) {
      const int partner = vr ^ (1 << k);
      if (partner < vr) continue;
      mach.exchange(real(vr), real(partner), words);
    }
    for (int vr = 0; vr < q; ++vr) mach.compute(real(vr), m * ops);
  }
  // post-fold: results back to the folded odd ranks
  for (int r = 0; r < 2 * rem; r += 2) {
    mach.send(r, r + 1, words);
    mach.recv(r + 1, r);
  }
}

void scan_butterfly(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  const double words = m * w;
  for (int k = 0; (1 << k) < p; ++k) {
    mach.exchange_xor(1 << k, words);
    // Upper side updates prefix and total (2 ops/element), lower side
    // only the total (1 op/element).
    mach.compute_xor(1 << k, m * ops, m * ops * 2);
  }
}

void reduce_balanced(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  const double words = m * w;
  const auto tree = mpsim::BalancedTree::build(p);
  for (const int ni : tree.internal_by_height()) {
    const auto& node = tree.node(ni);
    if (node.is_unit()) {
      mach.compute(node.owner(), m * ops);
      continue;
    }
    const int right_owner = tree.node(node.right).owner();
    mach.send(right_owner, node.owner(), words);
    mach.recv(node.owner(), right_owner);
    mach.compute(node.owner(), m * ops);
  }
}

void scan_balanced(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  const double words = m * w;
  for (int k = 0; (1 << k) < p; ++k) {
    mach.exchange_xor(1 << k, words);
    mach.compute_xor(1 << k, m * ops, m * ops);
  }
}

void allreduce_balanced(SimMachine& mach, double m, double w, double ops) {
  const int p = mach.size();
  if (is_pow2(static_cast<std::uint64_t>(p))) {
    const double words = m * w;
    for (int k = 0; (1 << k) < p; ++k) {
      mach.exchange_xor(1 << k, words);
      mach.compute_all(m * ops);
    }
    return;
  }
  reduce_balanced(mach, m, w, ops);
  bcast_butterfly(mach, m, w);
}

void comcast_repeat(SimMachine& mach, double m, double w, double ops_per_level,
                    bool butterfly_bcast) {
  if (butterfly_bcast)
    bcast_butterfly(mach, m, w);
  else
    bcast_binomial(mach, m, w);
  for (int r = 0; r < mach.size(); ++r)
    mach.compute(r, m * ops_per_level *
                        binary_digits(static_cast<std::uint64_t>(r)));
}

void comcast_costopt(SimMachine& mach, double m, double state_w, double ops_o,
                     double ops_e) {
  const int p = mach.size();
  const double words = m * state_w;
  for (int step = 1; step < p; step <<= 1) {
    for (int r = 0; r < step && r < p; ++r) {
      if (r + step < p) {
        mach.compute(r, m * ops_o);  // compute o(state) to ship
        mach.send(r, r + step, words);
      }
      mach.compute(r, m * ops_e);  // keep e(state)
    }
    for (int r = step; r < 2 * step && r < p; ++r) mach.recv(r, r - step);
  }
}

void comcast_naive(SimMachine& mach, double m, double w, double ops_g,
                   bool butterfly_bcast) {
  if (butterfly_bcast)
    bcast_butterfly(mach, m, w);
  else
    bcast_binomial(mach, m, w);
  for (int r = 0; r < mach.size(); ++r) mach.compute(r, m * ops_g * r);
}

void local_map(SimMachine& mach, double m, double ops) {
  if (ops == 0) return;
  mach.compute_all(m * ops);
}

void local_iter(SimMachine& mach, double m, double ops, double levels) {
  mach.compute(0, m * ops * levels);
}

}  // namespace colop::simnet
