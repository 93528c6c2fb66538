#include "colop/ir/packed_kernels.h"

#include <algorithm>

namespace colop::ir::pk {

PackedBlock lane_scalar(const PackedBlock& b, std::size_t l) {
  const std::size_t m = b.size();
  if (b.is_wild()) return PackedBlock::wild(m);
  COLOP_REQUIRE(l < b.lane_count(), "lane_scalar: lane out of range");
  // A canonical lane is already a canonical scalar block (undefined words
  // zero, tail bits clear, i64 when empty) unless it is empty.
  if (mask_none(b.defined(l))) return PackedBlock::wild(m);
  PackedBlock out = PackedBlock::scalars(m, b.dtype(l));
  out.copy_lane(0, b, l);
  return out;
}

void set_lane(PackedBlock& out, std::size_t l, const PackedBlock& c) {
  COLOP_REQUIRE(c.size() == out.size(), "tuple_of: component size mismatch");
  if (c.is_wild()) return;  // all-undefined lane
  COLOP_REQUIRE(c.is_scalar(), "tuple_of: component is not scalar");
  out.copy_lane(l, c, 0);
}

PackedBlock tuple_of(std::span<const PackedBlock* const> components,
                     MaskView elem, std::size_t m) {
  COLOP_REQUIRE(!components.empty(), "tuple_of: no components");
  PackedBlock out = PackedBlock::tuples(static_cast<int>(components.size()), m);
  const MaskSpan out_elem = out.elem_mask();
  for (std::size_t w = 0; w < out_elem.size() && w < elem.size(); ++w)
    out_elem[w] = elem[w];
  for (std::size_t l = 0; l < components.size(); ++l)
    set_lane(out, l, *components[l]);
  out.canonicalize();
  return out;
}

PackedBinFn bin_first() {
  return [](const PackedBlock& a, const PackedBlock& b) {
    COLOP_REQUIRE(a.size() == b.size(), "first: packed block size mismatch");
    if (a.is_wild() || b.is_wild()) return PackedBlock::wild(a.size());
    // Keep a's element wholesale where both elements are defined; the
    // boxed `first` never looks at shapes, so neither do we.
    PackedBlock out = a;
    mask_and_into(out.elem_mask(), b.elem_mask());
    out.canonicalize();
    return out;
  };
}

PackedBinFn bin_mat2() {
  return [](const PackedBlock& a, const PackedBlock& b) {
    COLOP_REQUIRE(a.size() == b.size(), "mat2: packed block size mismatch");
    const std::size_t m = a.size();
    if (a.is_wild() || b.is_wild()) return PackedBlock::wild(m);
    if (mask_disjoint(a.elem_mask(), b.elem_mask())) return PackedBlock::wild(m);
    COLOP_REQUIRE(a.arity() == 4 && b.arity() == 4, "mat2: need 4-tuples");
    PackedBlock out = PackedBlock::tuples(4, m);
    const MaskSpan inter = out.elem_mask();
    std::copy(a.elem_mask().begin(), a.elem_mask().end(), inter.begin());
    mask_and_into(inter, b.elem_mask());
    for (const PackedBlock* side : {&a, &b})
      for (std::size_t l = 0; l < 4; ++l) {
        // The boxed kernel as_int()s every component of every defined
        // pair: an undefined or real component there is an error.
        COLOP_REQUIRE(mask_subset(inter, side->defined(l)) &&
                          side->dtype(l) == DType::i64,
                      "mat2: component is not an integer");
      }
    // Unsigned words: products and sums wrap mod 2^64 instead of
    // overflowing, exactly as the boxed op_mat2 does.
    const std::uint64_t* x[4];
    const std::uint64_t* y[4];
    std::uint64_t* z[4];
    for (std::size_t l = 0; l < 4; ++l) {
      x[l] = a.data(l).data();
      y[l] = b.data(l).data();
      z[l] = out.data(l).data();
    }
    for (std::size_t i = 0; i < m; ++i) {
      z[0][i] = x[0][i] * y[0][i] + x[1][i] * y[2][i];
      z[1][i] = x[0][i] * y[1][i] + x[1][i] * y[3][i];
      z[2][i] = x[2][i] * y[0][i] + x[3][i] * y[2][i];
      z[3][i] = x[2][i] * y[1][i] + x[3][i] * y[3][i];
    }
    for (std::size_t l = 0; l < 4; ++l)
      std::copy(inter.begin(), inter.end(), out.defined(l).begin());
    out.canonicalize();
    return out;
  };
}

PackedMapFn map_replicate(int n, std::string name) {
  return [n, name = std::move(name)](PackedBlock in) {
    const std::size_t m = in.size();
    // pair `_` = (`_`, `_`): every element of the result is a defined
    // tuple, even where the input scalar was undefined.
    PackedBlock out = PackedBlock::tuples(n, m);
    mask_fill(out.elem_mask(), m);
    if (!in.is_wild()) {
      COLOP_REQUIRE(in.is_scalar(),
                    name + ": packed kernel expects scalar elements");
      for (std::size_t l = 0; l < static_cast<std::size_t>(n); ++l)
        out.copy_lane(l, in, 0);
    }
    out.canonicalize();
    return out;
  };
}

PackedMapFn map_proj1() {
  return [](PackedBlock in) {
    if (in.is_wild()) return in;  // pi_1 `_` = `_`
    COLOP_REQUIRE(in.is_tuple(), "pi1: packed kernel expects tuple elements");
    return lane_scalar(in, 0);
  };
}

PackedMapFn map_id() {
  return [](PackedBlock in) { return in; };
}

}  // namespace colop::ir::pk
