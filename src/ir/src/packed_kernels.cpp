#include "colop/ir/packed_kernels.h"

#include <algorithm>
#include <cstring>
#include <functional>

namespace colop::ir::pk {

PackedLaneFn lane_first() {
  return [](LaneView a, LaneView b, std::uint64_t* out, std::uint64_t* defined,
            std::size_t n) {
    if (out != a.data) std::memcpy(out, a.data, n * 8);
    detail::and_masks(a, b, defined, n);
    return a.dtype;
  };
}

PackedBinFn zip_lanes(std::string name, PackedLaneFn lane) {
  return [name = std::move(name), lane = std::move(lane)](
             const PackedBlock& a, const PackedBlock& b, PackedBlock& out) {
    const std::size_t m = a.size();
    COLOP_REQUIRE(m == b.size(), name + ": packed block size mismatch");
    if (a.is_wild() || b.is_wild()) {
      out = PackedBlock::wild(m);
      return;
    }
    COLOP_REQUIRE(a.is_scalar() && b.is_scalar(),
                  name + ": packed kernel expects scalar elements");
    const LaneView x{a.dtype(0), a.data(0).data(), a.defined(0).data()};
    const LaneView y{b.dtype(0), b.data(0).data(), b.defined(0).data()};
    if (&out != &a && &out != &b) out.reshape(0, m);
    out.set_dtype(0, lane(x, y, out.data(0).data(), out.defined(0).data(), m));
    out.canonicalize();
  };
}

PackedBinFn bin_first() {
  return [](const PackedBlock& a, const PackedBlock& b, PackedBlock& out) {
    COLOP_REQUIRE(a.size() == b.size(), "first: packed block size mismatch");
    if (a.is_wild() || b.is_wild()) {
      out = PackedBlock::wild(a.size());
      return;
    }
    // Keep a's element wholesale where both elements are defined; the
    // boxed `first` never looks at shapes, so neither do we.
    if (&out == &b && &out != &a && a.arity() == b.arity()) {
      // In b's buffer: its element mask first, then a's lanes over it.
      mask_and_into(out.elem_mask(), a.elem_mask());
      if (a.is_scalar()) {
        std::copy(a.data(0).begin(), a.data(0).end(), out.data(0).begin());
        out.set_dtype(0, a.dtype(0));
      } else {
        for (std::size_t l = 0; l < a.lane_count(); ++l) out.copy_lane(l, a, l);
      }
    } else if (&out == &b && &out != &a) {
      PackedBlock kept = a;
      mask_and_into(kept.elem_mask(), b.elem_mask());
      out = std::move(kept);
    } else {
      if (&out != &a) out = a;
      mask_and_into(out.elem_mask(), b.elem_mask());
    }
    out.canonicalize();
  };
}

PackedBinFn bin_mat2() {
  return [](const PackedBlock& a, const PackedBlock& b, PackedBlock& out) {
    COLOP_REQUIRE(a.size() == b.size(), "mat2: packed block size mismatch");
    const std::size_t m = a.size();
    if (a.is_wild() || b.is_wild() || mask_disjoint(a.elem_mask(), b.elem_mask())) {
      out = PackedBlock::wild(m);
      return;
    }
    COLOP_REQUIRE(a.arity() == 4 && b.arity() == 4, "mat2: need 4-tuples");
    if (&out != &a && &out != &b) out.reshape(4, m);
    // The element mask a AND b, in place (out may be either operand).
    const MaskSpan inter = out.elem_mask();
    std::transform(a.elem_mask().begin(), a.elem_mask().end(), b.elem_mask().begin(),
                   inter.begin(), std::bit_and<>());
    for (const PackedBlock* side : {&a, &b})
      for (std::size_t l = 0; l < 4; ++l) {
        // The boxed kernel as_int()s every component of every defined
        // pair: an undefined or real component there is an error.
        COLOP_REQUIRE(mask_subset(inter, side->defined(l)) &&
                          side->dtype(l) == DType::i64,
                      "mat2: component is not an integer");
      }
    // Unsigned words: products and sums wrap mod 2^64 instead of
    // overflowing, exactly as the boxed op_mat2 does.  Each element's
    // eight words are read before its four are written.
    const std::uint64_t* x[4];
    const std::uint64_t* y[4];
    std::uint64_t* z[4];
    for (std::size_t l = 0; l < 4; ++l) {
      x[l] = a.data(l).data();
      y[l] = b.data(l).data();
      z[l] = out.data(l).data();
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t x0 = x[0][i], x1 = x[1][i], x2 = x[2][i], x3 = x[3][i];
      const std::uint64_t y0 = y[0][i], y1 = y[1][i], y2 = y[2][i], y3 = y[3][i];
      z[0][i] = x0 * y0 + x1 * y2;
      z[1][i] = x0 * y1 + x1 * y3;
      z[2][i] = x2 * y0 + x3 * y2;
      z[3][i] = x2 * y1 + x3 * y3;
    }
    for (std::size_t l = 0; l < 4; ++l)
      std::copy(inter.begin(), inter.end(), out.defined(l).begin());
    out.canonicalize();
  };
}

PackedMapFn map_replicate(int n, std::string name) {
  return [n, name = std::move(name)](PackedBlock in) {
    const std::size_t m = in.size();
    // pair `_` = (`_`, `_`): every element of the result is a defined
    // tuple, even where the input scalar was undefined.
    if (in.is_wild()) {
      PackedBlock out = PackedBlock::tuples(n, m);
      mask_fill(out.elem_mask(), m);
      out.canonicalize();
      return out;
    }
    COLOP_REQUIRE(in.is_scalar(), name + ": packed kernel expects scalar elements");
    // Every word is written: the element mask, then each lane a copy of
    // the canonical scalar lane.
    PackedBlock out;
    out.reshape(n, m);
    mask_fill(out.elem_mask(), m);
    for (std::size_t l = 0; l < static_cast<std::size_t>(n); ++l)
      out.copy_lane(l, in, 0);
    return out;
  };
}

PackedMapFn map_proj1() {
  return [](PackedBlock in) {
    if (in.is_wild()) return in;  // pi_1 `_` = `_`
    COLOP_REQUIRE(in.is_tuple(), "pi1: packed kernel expects tuple elements");
    in.keep_lane(0);
    return in;
  };
}

PackedMapFn map_id() {
  return [](PackedBlock in) { return in; };
}

}  // namespace colop::ir::pk
