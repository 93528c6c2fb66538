#pragma once
// Compiled elementwise kernels over PackedBlock.
//
// A kernel mirrors the boxed semantics EXACTLY — including undefined
// gating (BinOp::apply yields `_` when either element is `_`), int/real
// widening (binop.cpp's numeric()), and the operation ORDER of the
// derived operators, so that doubles come out bit-for-bit identical to
// the boxed evaluator.  The differential fuzz suite
// (tests/test_fuzz_dataplane.cpp) holds this equivalence to exact
// structural equality.
//
// A scalar operator is written once, as a lane kernel (PackedLaneFn): one
// tight loop over a lane's payload words plus the AND of the two defined
// masks.  Its block kernel is zip_lanes() of it.  The derived operators
// (rules/derived_ops.cpp) call their base operators' lane kernels lane by
// lane, each result lane straight into their one output block -- usually
// an operand's own buffer (PackedBinFn) -- so no formula builds a block of
// its own, and every formula stays literally parallel to its boxed twin.
// Slots under a clear mask bit compute garbage over canonical zeros until
// the block kernel's final canonicalize() zeroes them.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "colop/ir/packed.h"
#include "colop/support/error.h"

namespace colop::ir::pk {

namespace detail {

[[nodiscard]] inline double slot_as_double(DType dtype, std::uint64_t w) {
  if (dtype == DType::f64) return std::bit_cast<double>(w);
  return static_cast<double>(std::bit_cast<std::int64_t>(w));
}

inline void and_masks(LaneView a, LaneView b, std::uint64_t* defined,
                      std::size_t n) {
  for (std::size_t w = 0; w < mask_words(n); ++w)
    defined[w] = a.defined[w] & b.defined[w];
}

}  // namespace detail

/// Lane kernel of a numeric operator, a mirror of binop.cpp's numeric():
/// both lanes integer -> fi, anything real -> fr over widened operands.
/// force_real models fadd/fmul, which always produce reals.
template <typename IntFn, typename RealFn>
[[nodiscard]] PackedLaneFn lane_numeric(IntFn fi, RealFn fr, bool force_real = false) {
  return [fi, fr, force_real](LaneView a, LaneView b, std::uint64_t* out,
                              std::uint64_t* defined, std::size_t n) {
    const bool int_path = !force_real && a.dtype == DType::i64 && b.dtype == DType::i64;
    if (int_path) {
      for (std::size_t i = 0; i < n; ++i)
        out[i] = std::bit_cast<std::uint64_t>(
            fi(std::bit_cast<std::int64_t>(a.data[i]),
               std::bit_cast<std::int64_t>(b.data[i])));
    } else {
      for (std::size_t i = 0; i < n; ++i)
        out[i] = std::bit_cast<std::uint64_t>(
            fr(detail::slot_as_double(a.dtype, a.data[i]),
               detail::slot_as_double(b.dtype, b.data[i])));
    }
    detail::and_masks(a, b, defined, n);
    return int_path ? DType::i64 : DType::f64;
  };
}

/// Lane kernel of an always-real operator (fadd, fmul: number() widening).
template <typename RealFn>
[[nodiscard]] PackedLaneFn lane_real(RealFn fr) {
  return lane_numeric([](std::int64_t, std::int64_t) { return std::int64_t{0}; }, fr,
                      /*force_real=*/true);
}

/// Lane kernel of an integer-only operator (band, bor, gcd, modadd,
/// modmul).  A real operand is the boxed as_int() error -- but only when a
/// defined pair actually exists, matching where the boxed path throws; with
/// none, the result is all undefined and fi never sees a real's bits.
template <typename IntFn>
[[nodiscard]] PackedLaneFn lane_int(std::string name, IntFn fi) {
  return [name = std::move(name), fi](LaneView a, LaneView b, std::uint64_t* out,
                                      std::uint64_t* defined, std::size_t n) {
    if (a.dtype != DType::i64 || b.dtype != DType::i64) {
      const MaskView da(a.defined, mask_words(n)), db(b.defined, mask_words(n));
      COLOP_REQUIRE(mask_disjoint(da, db), name + ": not an integer");
      std::fill(out, out + n, std::uint64_t{0});
      std::fill(defined, defined + mask_words(n), std::uint64_t{0});
      return DType::i64;
    }
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::bit_cast<std::uint64_t>(fi(std::bit_cast<std::int64_t>(a.data[i]),
                                               std::bit_cast<std::int64_t>(b.data[i])));
    detail::and_masks(a, b, defined, n);
    return DType::i64;
  };
}

/// Lane kernel of op_first: the left word wherever both sides are defined.
[[nodiscard]] PackedLaneFn lane_first();

/// The block kernel of a scalar operator: its lane kernel over the one lane
/// of two scalar blocks, written into `out`'s buffer.
[[nodiscard]] PackedBinFn zip_lanes(std::string name, PackedLaneFn lane);

/// op_first: keep the left element wherever both sides are defined.
[[nodiscard]] PackedBinFn bin_first();

/// op_mat2: 2x2 integer matrix product on 4-tuples.
[[nodiscard]] PackedBinFn bin_mat2();

// --- map kernels (auxiliary-variable builders) ---------------------------

/// pair/triple/quadruple: n copies of a scalar element (an undefined
/// scalar becomes a tuple of undefineds, exactly like the boxed builders).
[[nodiscard]] PackedMapFn map_replicate(int n, std::string name);
/// pi_1: first component, moved to the front of the block's own buffer;
/// undefined elements pass through.
[[nodiscard]] PackedMapFn map_proj1();
[[nodiscard]] PackedMapFn map_id();

}  // namespace colop::ir::pk
