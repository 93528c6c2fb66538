#pragma once
// Both data planes behind one interface, and the sequential reference.
//
// How a block is stored does not change what a stage does, so each stage is
// written once over the block type B (Block or PackedBlock): the reference
// eval_stage<B> below and the executor's exec::exec_stage<B> read all that
// is plane-specific from Plane<B> — a stage's kernels, iter's local step,
// the undefined block, and the segment slice/join of an overlap window.
// Kernels reach the mpsim collectives by reference: packed ones as std::cref
// of the stage's PackedBinFn, which computes a combine in the buffer of an
// operand the collective gives up (std::move), boxed ones as lifts
// capturing the stage's function by reference (a copied std::function may
// allocate).
// Plane<PackedBlock> needs every kernel the stage calls; packable()
// (packed_eval.h) checks that first.

#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "colop/ir/packed.h"
#include "colop/ir/stage.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::ir {

template <typename B>
struct Plane;

template <>
struct Plane<Block> {
  /// A Value function lifted to blocks (MPI count semantics: collectives
  /// combine blocks elementwise).
  template <typename F>
  static auto lift2(const F& f) {
    return [&f](const Block& a, const Block& b) {
      COLOP_ASSERT(a.size() == b.size(), "block size mismatch in collective");
      Block out(a.size());
      for (std::size_t j = 0; j < a.size(); ++j) out[j] = f(a[j], b[j]);
      return out;
    };
  }
  template <typename F>
  static auto lift1(const F& f) {
    return [&f](const Block& a) {
      Block out(a.size());
      for (std::size_t j = 0; j < a.size(); ++j) out[j] = f(a[j]);
      return out;
    };
  }

  static auto binop(const BinOp& op) { return lift2(op); }
  static auto combine(const BalancedOp& op) { return lift2(op.combine); }
  static auto unit(const BalancedOp& op) { return lift1(op.unit_case); }
  static auto combine2(const BalancedOp2& op) {
    return [&op](const Block& a, const Block& b) {
      COLOP_ASSERT(a.size() == b.size(), "block size mismatch in scan_balanced");
      std::pair<Block, Block> out{Block(a.size()), Block(a.size())};
      for (std::size_t j = 0; j < a.size(); ++j)
        std::tie(out.first[j], out.second[j]) = op.combine2(a[j], b[j]);
      return out;
    };
  }
  static auto degrade(const BalancedOp2& op) { return lift1(op.degrade); }
  static auto strip(const BalancedOp2& op) { return lift1(op.strip); }

  static void map(const ElemFn& f, Block& b) {
    for (auto& v : b) v = f(v);
  }
  static void map(const ElemIdxFn& f, int rank, Block& b) {
    for (auto& v : b) v = f(rank, v);
  }
  static void iter_local(const IterStage& s, int p, Block& b) {
    for (auto& v : b) v = s.apply_local(p, v);
  }
  static void make_undefined(Block& b) { b.assign(b.size(), Value::undefined()); }

  static Block slice(const Block& b, std::size_t lo, std::size_t hi) {
    return {b.begin() + static_cast<std::ptrdiff_t>(lo),
            b.begin() + static_cast<std::ptrdiff_t>(hi)};
  }
  static Block join(std::vector<Block> segments) {
    Block out;
    for (Block& s : segments)
      out.insert(out.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
    return out;
  }
};

template <>
struct Plane<PackedBlock> {
  static auto binop(const BinOp& op) { return std::cref(op.packed()); }
  static auto combine(const BalancedOp& op) { return std::cref(op.packed_combine); }
  static auto unit(const BalancedOp& op) { return std::cref(op.packed_unit); }
  static auto combine2(const BalancedOp2& op) { return std::cref(op.packed_combine2); }
  static auto degrade(const BalancedOp2& op) { return std::cref(op.packed_degrade); }
  static auto strip(const BalancedOp2& op) { return std::cref(op.packed_strip); }

  static void map(const ElemFn& f, PackedBlock& b) { b = f.packed_fn(std::move(b)); }
  static void map(const ElemIdxFn& f, int rank, PackedBlock& b) {
    b = f.packed_fn(rank, std::move(b));
  }
  /// packable() admits iter only for p = 2^k, where the doubling step
  /// applies verbatim (IterStage::apply_local, power-of-two branch).
  static void iter_local(const IterStage& s, int p, PackedBlock& b) {
    const auto n = static_cast<std::uint64_t>(p);
    COLOP_REQUIRE(is_pow2(n), "iter: packed plane requires a power-of-two p");
    for (unsigned i = 0; i < log2_floor(n); ++i) b = s.step.packed_fn(std::move(b));
  }
  static void make_undefined(PackedBlock& b) { b = PackedBlock::wild(b.size()); }

  static PackedBlock slice(const PackedBlock& b, std::size_t lo, std::size_t hi) {
    return b.slice(lo, hi);
  }
  static PackedBlock join(std::span<const PackedBlock> segments) {
    return PackedBlock::join(segments);
  }
};

/// Elements [m*k/K, m*(k+1)/K) of `b` as segment k of K >= 1 (empty where
/// K > m); Plane<B>::join(split(b, K)) == b.
template <typename B>
[[nodiscard]] std::vector<B> split(const B& b, std::size_t K) {
  std::vector<B> out;
  out.reserve(K);
  for (std::size_t k = 0; k < K; ++k)
    out.push_back(Plane<B>::slice(b, b.size() * k / K, b.size() * (k + 1) / K));
  return out;
}

/// Sequential reference semantics of one stage (Eqs 4-8, 13, Section 3) as
/// a blockwise fold over the rank set: state[r] is processor r's block.
/// Collectives need a non-empty list of uniform block sizes and a root in
/// [0, p).  Never touches the mpsim runtime: an independent oracle for the
/// executors.
template <typename B>
void eval_stage(const Stage& stage, std::vector<B>& state);

extern template void eval_stage<Block>(const Stage&, std::vector<Block>&);
extern template void eval_stage<PackedBlock>(const Stage&, std::vector<PackedBlock>&);

}  // namespace colop::ir
