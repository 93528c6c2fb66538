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
// Scalar kernels run one tight loop over the lane arrays; masked-out
// slots compute garbage over the canonical zeros and are re-zeroed by
// canonicalize().  Tuple kernels (the derived operators) are composed
// from scalar kernels over individual lanes via lane_scalar()/tuple_of(),
// which keeps every formula literally parallel to its boxed twin in
// rules/derived_ops.cpp.

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "colop/ir/packed.h"
#include "colop/support/error.h"

namespace colop::ir::pk {

/// View lane `l` of a tuple block as a standalone scalar block (undefined
/// components become undefined scalars; an empty lane collapses to wild).
[[nodiscard]] PackedBlock lane_scalar(const PackedBlock& b, std::size_t l);

/// Copy scalar component `c` into lane l of tuple block `out` (a wild
/// component leaves the lane all-undefined).  Callers canonicalize.
void set_lane(PackedBlock& out, std::size_t l, const PackedBlock& c);

/// Assemble a tuple block from per-component scalar blocks (wild
/// components become all-undefined lanes) under the given element mask.
[[nodiscard]] PackedBlock tuple_of(std::span<const PackedBlock* const> components,
                                   MaskView elem, std::size_t m);
template <typename... Components>
[[nodiscard]] PackedBlock tuple_of(MaskView elem, std::size_t m,
                                   const Components&... components) {
  const PackedBlock* const parts[] = {&components...};
  return tuple_of(parts, elem, m);
}

/// Shorthand: all-undefined scalar component for tuple_of().
[[nodiscard]] inline PackedBlock undef_component(std::size_t m) {
  return PackedBlock::wild(m);
}

namespace detail {

[[nodiscard]] inline double slot_as_double(DType dtype, std::uint64_t w) {
  if (dtype == DType::f64) return std::bit_cast<double>(w);
  return static_cast<double>(std::bit_cast<std::int64_t>(w));
}

/// Common scalar-zip prologue.  True when the result is all-undefined (one
/// side is wild, or no element is defined on both sides); otherwise checks
/// that both operands really are scalar blocks of equal size.
[[nodiscard]] inline bool zip_trivial(const PackedBlock& a,
                                      const PackedBlock& b,
                                      const std::string& name) {
  COLOP_REQUIRE(a.size() == b.size(), name + ": packed block size mismatch");
  if (a.is_wild() || b.is_wild()) return true;
  COLOP_REQUIRE(a.is_scalar() && b.is_scalar(),
                name + ": packed kernel expects scalar elements");
  return mask_disjoint(a.defined(0), b.defined(0));
}

/// The result's defined mask (a AND b, in place) and canonical form.
inline void zip_finish(const PackedBlock& a, const PackedBlock& b,
                       PackedBlock& out) {
  const MaskSpan def = out.defined(0);
  const MaskView da = a.defined(0);
  const MaskView db = b.defined(0);
  for (std::size_t w = 0; w < def.size(); ++w) def[w] = da[w] & db[w];
  out.canonicalize();
}

// Mirror of binop.cpp's numeric(): both lanes integer -> integer kernel,
// anything real -> real kernel over widened operands.  force_real models
// fadd/fmul, which always produce reals.
template <typename IntFn, typename RealFn>
PackedBlock zip_numeric(const PackedBlock& a, const PackedBlock& b, IntFn fi,
                        RealFn fr, bool force_real, const std::string& name) {
  const std::size_t m = a.size();
  const bool trivial = zip_trivial(a, b, name);
  const bool int_path = !trivial && !force_real && a.dtype(0) == DType::i64 &&
                        b.dtype(0) == DType::i64;
  // One result object on every path, so it is built in place.
  PackedBlock out = trivial ? PackedBlock::wild(m)
                            : PackedBlock::scalars(m, int_path ? DType::i64 : DType::f64);
  if (trivial) return out;
  const DType ta = a.dtype(0);
  const DType tb = b.dtype(0);
  const std::uint64_t* xa = a.data(0).data();
  const std::uint64_t* xb = b.data(0).data();
  std::uint64_t* xo = out.data(0).data();
  if (int_path) {
    for (std::size_t i = 0; i < m; ++i)
      xo[i] = std::bit_cast<std::uint64_t>(fi(std::bit_cast<std::int64_t>(xa[i]),
                                              std::bit_cast<std::int64_t>(xb[i])));
  } else {
    for (std::size_t i = 0; i < m; ++i)
      xo[i] = std::bit_cast<std::uint64_t>(
          fr(slot_as_double(ta, xa[i]), slot_as_double(tb, xb[i])));
  }
  zip_finish(a, b, out);
  return out;
}

// Integer-only operators (band, gcd, modadd, ...): a real operand is the
// boxed as_int() error — but only when a defined pair actually exists
// (zip_trivial already returned `_` otherwise), matching where the boxed
// path throws.
template <typename IntFn>
PackedBlock zip_int(const PackedBlock& a, const PackedBlock& b, IntFn fi,
                    const std::string& name) {
  const std::size_t m = a.size();
  const bool trivial = zip_trivial(a, b, name);
  COLOP_REQUIRE(trivial || (a.dtype(0) == DType::i64 && b.dtype(0) == DType::i64),
                name + ": not an integer");
  PackedBlock out = trivial ? PackedBlock::wild(m) : PackedBlock::scalars(m, DType::i64);
  if (trivial) return out;
  const std::uint64_t* xa = a.data(0).data();
  const std::uint64_t* xb = b.data(0).data();
  std::uint64_t* xo = out.data(0).data();
  for (std::size_t i = 0; i < m; ++i)
    xo[i] = std::bit_cast<std::uint64_t>(fi(std::bit_cast<std::int64_t>(xa[i]),
                                            std::bit_cast<std::int64_t>(xb[i])));
  zip_finish(a, b, out);
  return out;
}

}  // namespace detail

/// Kernel for a numeric operator with int/real widening (op_add & co).
template <typename IntFn, typename RealFn>
[[nodiscard]] PackedBinFn bin_numeric(std::string name, IntFn fi, RealFn fr) {
  return [name = std::move(name), fi, fr](const PackedBlock& a,
                                          const PackedBlock& b) {
    return detail::zip_numeric(a, b, fi, fr, /*force_real=*/false, name);
  };
}

/// Kernel for an integer-only operator (band, bor, gcd, modadd, modmul).
template <typename IntFn>
[[nodiscard]] PackedBinFn bin_int(std::string name, IntFn fi) {
  return [name = std::move(name), fi](const PackedBlock& a,
                                      const PackedBlock& b) {
    return detail::zip_int(a, b, fi, name);
  };
}

/// Kernel for an always-real operator (fadd, fmul: number() widening).
template <typename RealFn>
[[nodiscard]] PackedBinFn bin_real(std::string name, RealFn fr) {
  return [name = std::move(name), fr](const PackedBlock& a,
                                      const PackedBlock& b) {
    return detail::zip_numeric(
        a, b, [](std::int64_t, std::int64_t) { return std::int64_t{0}; }, fr,
        /*force_real=*/true, name);
  };
}

/// op_first: keep the left element wherever both sides are defined.
[[nodiscard]] PackedBinFn bin_first();

/// op_mat2: 2x2 integer matrix product on 4-tuples.
[[nodiscard]] PackedBinFn bin_mat2();

// --- map kernels (auxiliary-variable builders) ---------------------------

/// pair/triple/quadruple: n copies of a scalar element (an undefined
/// scalar becomes a tuple of undefineds, exactly like the boxed builders).
[[nodiscard]] PackedMapFn map_replicate(int n, std::string name);
/// pi_1: first component; undefined elements pass through.
[[nodiscard]] PackedMapFn map_proj1();
[[nodiscard]] PackedMapFn map_id();

}  // namespace colop::ir::pk
