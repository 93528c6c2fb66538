#include "colop/ir/packed_kernels.h"

namespace colop::ir::pk {

PackedBlock lane_scalar(const PackedBlock& b, std::size_t l) {
  const std::size_t m = b.size();
  if (b.is_wild()) return PackedBlock::wild(m);
  COLOP_REQUIRE(l < b.lane_count(), "lane_scalar: lane out of range");
  PackedBlock out = PackedBlock::scalars(m, b.lane(l).dtype);
  out.lane(0) = b.lane(l);
  out.canonicalize();  // empty lanes collapse to wild
  return out;
}

PackedBlock tuple_of(std::vector<PackedBlock> components, const Mask& elem,
                     std::size_t m) {
  COLOP_REQUIRE(!components.empty(), "tuple_of: no components");
  PackedBlock out = PackedBlock::tuples(static_cast<int>(components.size()), m);
  out.set_elem_mask(elem);
  for (std::size_t l = 0; l < components.size(); ++l) {
    const PackedBlock& c = components[l];
    COLOP_REQUIRE(c.size() == m, "tuple_of: component size mismatch");
    if (c.is_wild()) continue;  // all-undefined lane
    COLOP_REQUIRE(c.is_scalar(), "tuple_of: component is not scalar");
    out.lane(l) = c.lane(0);
  }
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
    const Mask inter = mask_and(a.elem_mask(), b.elem_mask());
    if (out.is_scalar()) {
      out.lane(0).defined = inter;
    } else {
      out.set_elem_mask(inter);
    }
    out.canonicalize();
    return out;
  };
}

PackedBinFn bin_mat2() {
  return [](const PackedBlock& a, const PackedBlock& b) {
    COLOP_REQUIRE(a.size() == b.size(), "mat2: packed block size mismatch");
    const std::size_t m = a.size();
    if (a.is_wild() || b.is_wild()) return PackedBlock::wild(m);
    const Mask inter = mask_and(a.elem_mask(), b.elem_mask());
    if (mask_none(inter)) return PackedBlock::wild(m);
    COLOP_REQUIRE(a.arity() == 4 && b.arity() == 4, "mat2: need 4-tuples");
    for (const PackedBlock* side : {&a, &b})
      for (std::size_t l = 0; l < 4; ++l) {
        const auto& lane = side->lane(l);
        // The boxed kernel as_int()s every component of every defined
        // pair: an undefined or real component there is an error.
        COLOP_REQUIRE(mask_subset(inter, lane.defined) && lane.dtype == DType::i64,
                      "mat2: component is not an integer");
      }
    PackedBlock out = PackedBlock::tuples(4, m);
    out.set_elem_mask(inter);
    // Unsigned words: products and sums wrap mod 2^64 instead of
    // overflowing, exactly as the boxed op_mat2 does.
    const auto x = [&a](std::size_t l, std::size_t i) {
      return a.lane(l).data[i];
    };
    const auto y = [&b](std::size_t l, std::size_t i) {
      return b.lane(l).data[i];
    };
    for (std::size_t i = 0; i < m; ++i) {
      out.lane(0).data[i] = x(0, i) * y(0, i) + x(1, i) * y(2, i);
      out.lane(1).data[i] = x(0, i) * y(1, i) + x(1, i) * y(3, i);
      out.lane(2).data[i] = x(2, i) * y(0, i) + x(3, i) * y(2, i);
      out.lane(3).data[i] = x(2, i) * y(1, i) + x(3, i) * y(3, i);
    }
    for (std::size_t l = 0; l < 4; ++l) out.lane(l).defined = inter;
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
    out.set_elem_mask(mask_full(m));
    if (!in.is_wild()) {
      COLOP_REQUIRE(in.is_scalar(),
                    name + ": packed kernel expects scalar elements");
      for (int l = 0; l < n; ++l) out.lane(static_cast<std::size_t>(l)) = in.lane(0);
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
