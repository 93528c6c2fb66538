#pragma once
// Data-movement collectives that round out the substrate: scatter, gather,
// allgather, alltoall and a message-based dissemination barrier.  The
// optimization rules themselves only need bcast/reduce/scan, but a usable
// collective-operations library (and the paper's intro: "scatter, etc.")
// provides these as well.

#include <cstdint>
#include <utility>
#include <vector>

#include "colop/mpsim/comm.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Scatter: root holds [b_0, ..., b_{p-1}]; rank i receives b_i.
/// Binomial-tree schedule: each internal step forwards the half of the
/// blocks destined for the subtree, so total traffic is O(p) blocks.
template <typename T>
[[nodiscard]] T scatter(const Comm& comm, std::vector<T> blocks, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(root >= 0 && root < p, "scatter: invalid root");
  if (p == 1) {
    COLOP_REQUIRE(blocks.size() == 1, "scatter: root needs one block per rank");
    return std::move(blocks[0]);
  }
  const int tag = comm.next_collective_tag();
  const int vr = (r - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };

  // `span` = number of consecutive virtual ranks my current payload serves.
  std::vector<T> payload;
  int span = 0;
  if (vr == 0) {
    COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                  "scatter: root needs one block per rank");
    // The distribution runs in virtual-rank space: payload[j] must be the
    // block destined for virtual rank j = real rank (j + root) % p.
    payload.reserve(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j)
      payload.push_back(std::move(blocks[static_cast<std::size_t>((j + root) % p)]));
    span = p;
  } else {
    // Receive my subtree's payload from the binomial-tree parent, which is
    // the virtual rank with my lowest set bit cleared (it sent to me at
    // mask = lowest set bit, mirroring the forwarding loop below).
    const int mask = vr & (-vr);
    payload = comm.recv_raw<std::vector<T>>(real(vr - mask), tag);
    span = static_cast<int>(payload.size());
  }
  // Forward the upper halves to children (virtual ranks vr + mask).
  for (int mask = next_pow2(static_cast<std::uint64_t>(p)) / 2; mask >= 1; mask >>= 1) {
    if (vr % (2 * mask) != 0 || vr + mask >= p || mask >= span) continue;
    std::vector<T> upper(std::make_move_iterator(payload.begin() + mask),
                         std::make_move_iterator(payload.end()));
    payload.resize(static_cast<std::size_t>(mask));
    span = mask;
    comm.send_raw(real(vr + mask), std::move(upper), tag);
  }
  COLOP_ASSERT(!payload.empty(), "scatter: rank received no block");
  return std::move(payload[0]);
}

/// Gather: rank i contributes x_i; root returns [x_0, ..., x_{p-1}] (others
/// return an empty vector).  Binomial tree mirrored from scatter.
template <typename T>
[[nodiscard]] std::vector<T> gather(const Comm& comm, T value, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(root >= 0 && root < p, "gather: invalid root");
  const int tag = comm.next_collective_tag();
  const int vr = (r - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };

  std::vector<T> acc;
  acc.push_back(std::move(value));
  for (int mask = 1; mask < p; mask <<= 1) {
    if (vr & mask) {
      comm.send_raw(real(vr - mask), std::move(acc), tag);
      return {};
    }
    if (vr + mask < p) {
      auto part = comm.recv_raw<std::vector<T>>(real(vr + mask), tag);
      acc.insert(acc.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
    }
  }
  // Only the root reaches here.  Rotate from virtual to real rank order.
  if (root != 0) {
    std::vector<T> rotated(static_cast<std::size_t>(p));
    for (int v = 0; v < p; ++v)
      rotated[static_cast<std::size_t>(real(v))] = std::move(acc[static_cast<std::size_t>(v)]);
    return rotated;
  }
  return acc;
}

/// Allgather via the Bruck dissemination algorithm (works for any p in
/// ceil(log2 p) phases): every rank returns [x_0, ..., x_{p-1}].
template <typename T>
[[nodiscard]] std::vector<T> allgather(const Comm& comm, T value) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return {std::move(value)};
  const int tag = comm.next_collective_tag();

  // have[j] = value originating at rank (r + j) % p, once known.
  std::vector<std::pair<int, T>> have;  // (offset j, value)
  have.push_back({0, std::move(value)});
  for (int step = 1; step < p; step <<= 1) {
    const int to = (r - step + p) % p;
    const int from = (r + step) % p;
    // Only offsets the receiver still needs (j + step < p) are sent.
    std::vector<std::pair<int, T>> outgoing;
    for (const auto& [j, v] : have)
      if (j + step < p) outgoing.push_back({j, v});
    comm.send_raw(to, std::move(outgoing), tag);
    auto incoming = comm.recv_raw<std::vector<std::pair<int, T>>>(from, tag);
    for (auto& [j, v] : incoming) have.push_back({j + step, std::move(v)});
  }
  std::vector<T> result(static_cast<std::size_t>(p));
  for (auto& [j, v] : have) result[static_cast<std::size_t>((r + j) % p)] = std::move(v);
  return result;
}

/// Alltoall: rank i sends blocks[j] to rank j; returns the received blocks
/// indexed by source.  Direct pairwise exchange (p-1 messages per rank).
template <typename T>
[[nodiscard]] std::vector<T> alltoall(const Comm& comm, std::vector<T> blocks) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                "alltoall: need one block per rank");
  const int tag = comm.next_collective_tag();
  std::vector<T> result(static_cast<std::size_t>(p));
  result[static_cast<std::size_t>(r)] = std::move(blocks[static_cast<std::size_t>(r)]);
  for (int i = 1; i < p; ++i) {
    const int to = (r + i) % p;
    const int from = (r - i + p) % p;
    comm.send_raw(to, std::move(blocks[static_cast<std::size_t>(to)]), tag);
    result[static_cast<std::size_t>(from)] = comm.recv_raw<T>(from, tag);
  }
  return result;
}

/// Dissemination barrier implemented with messages (so it is visible in
/// traffic statistics, unlike Group::barrier's shared-memory barrier).
inline void barrier_dissemination(const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = comm.next_collective_tag();
  for (int step = 1; step < p; step <<= 1) {
    comm.send_raw((r + step) % p, std::uint8_t{1}, tag);
    (void)comm.recv_raw<std::uint8_t>((r - step % p + p) % p, tag);
  }
}

}  // namespace colop::mpsim
