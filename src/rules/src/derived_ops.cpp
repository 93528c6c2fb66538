#include "colop/rules/derived_ops.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "colop/support/error.h"

namespace colop::rules {

using ir::DType;
using ir::PackedBlock;
using ir::Tuple;

namespace {

// Tuples are built with reserve + emplace to avoid the extra Value copies
// of initializer-list construction (these run once per element per hop on
// the boxed path).
template <typename... Vs>
Value make_tuple(Vs&&... vs) {
  Tuple t;
  t.reserve(sizeof...(Vs));
  (t.push_back(std::forward<Vs>(vs)), ...);
  return Value(std::move(t));
}

// Packed-kernel preamble for a derived operator over n-tuples whose boxed
// twin as_tuple()s every element unconditionally (no undefined gating).
// False for the empty block, which has no element to reject and which the
// kernel returns as it is (empty blocks are wild).
bool full_tuples(const PackedBlock& b, int arity, const char* name) {
  if (b.size() == 0) return false;
  COLOP_REQUIRE(b.arity() == arity,
                std::string(name) + ": packed kernel expects " +
                    std::to_string(arity) + "-tuples");
  COLOP_REQUIRE(ir::mask_popcount(b.elem_mask()) == b.size(),
                std::string(name) + ": undefined element");
  return true;
}

// --- packed derived kernels ----------------------------------------------
//
// Each writes its result lane by lane through the base operators' lane
// kernels, into one output block that may be an operand itself.  So every
// step below writes a result lane only after the last read, in that step
// or any later one, of the operand lanes that share its words (lane l of
// `a` or of `b`); a lane kernel may read and write the same words.  A
// formula with no such order (op_sr2, op_bsr2) keeps one intermediate lane
// on the stack and runs a chunk of elements at a time.

// Lane l of b from element lo on, as a lane kernel reads it.
ir::LaneView lane(const PackedBlock& b, std::size_t l, std::size_t lo = 0) {
  return {b.dtype(l), b.data(l).data() + lo, b.defined(l).data() + lo / 64};
}

// A result lane being written, from element lo on: its words, and the dtype
// the last kernel that wrote them returned.
struct Result {
  DType dtype = DType::i64;
  std::uint64_t* data;
  std::uint64_t* defined;

  Result(PackedBlock& b, std::size_t l, std::size_t lo = 0)
      : data(b.data(l).data() + lo), defined(b.defined(l).data() + lo / 64) {}
  Result(std::uint64_t* d, std::uint64_t* m) : data(d), defined(m) {}
  [[nodiscard]] ir::LaneView view() const { return {dtype, data, defined}; }
  void set(const ir::PackedLaneFn& f, ir::LaneView x, ir::LaneView y, std::size_t n) {
    dtype = f(x, y, data, defined, n);
  }
};

// Elements per pass of a kernel with a stack lane: 2 KB of payload.
constexpr std::size_t kChunk = 256;

// step(lo, n, scratch) over the chunks of m elements (lo a multiple of 64).
template <typename Step>
void by_chunks(std::size_t m, Step step) {
  std::uint64_t data[kChunk] = {};
  std::uint64_t defined[kChunk / 64] = {};
  for (std::size_t lo = 0; lo < m; lo += kChunk)
    step(lo, std::min(kChunk, m - lo), Result(data, defined));
}

// A result block that is not an operand: m arity-tuples, every element
// defined (the kernels that call this take full tuples).
void shape_full(PackedBlock& out, std::size_t m, int arity) {
  out.reshape(arity, m);
  ir::mask_fill(out.elem_mask(), m);
}

// Lane l all undefined.
void clear_lane(PackedBlock& b, std::size_t l) {
  std::fill(b.data(l).begin(), b.data(l).end(), std::uint64_t{0});
  std::fill(b.defined(l).begin(), b.defined(l).end(), std::uint64_t{0});
  b.set_dtype(l, DType::i64);
}

}  // namespace

Value pow_assoc(const ir::BinOp& op, const Value& base, std::uint64_t n) {
  COLOP_REQUIRE(n >= 1, "pow_assoc: exponent must be >= 1");
  std::optional<Value> acc;
  Value pw = base;
  while (n != 0) {
    if (n & 1u) acc = acc ? op(*acc, pw) : pw;
    n >>= 1u;
    if (n != 0) pw = op(pw, pw);
  }
  return *acc;
}

BinOpPtr make_op_sr2(BinOpPtr otimes, BinOpPtr oplus) {
  COLOP_REQUIRE(otimes->distributes_over(*oplus),
                "op_sr2 requires " + otimes->name() + " to distribute over " +
                    oplus->name());
  const double ops = 2 * otimes->ops_cost() + oplus->ops_cost();
  ir::PackedBinFn packed;
  if (otimes->has_packed_lane() && oplus->has_packed_lane()) {
    packed = [pt = otimes->packed_lane(), pp = oplus->packed_lane()](
                 const PackedBlock& a, const PackedBlock& b, PackedBlock& out) {
      const std::size_t m = a.size();
      COLOP_REQUIRE(m == b.size(), "op_sr2: packed size mismatch");
      if (a.is_wild() || b.is_wild()) {
        out = PackedBlock::wild(m);
        return;
      }
      COLOP_REQUIRE(a.arity() == 2 && b.arity() == 2,
                    "op_sr2: packed kernel expects pairs");
      if (&out != &a && &out != &b) out.reshape(2, m);
      std::transform(a.elem_mask().begin(), a.elem_mask().end(), b.elem_mask().begin(),
                     out.elem_mask().begin(), std::bit_and<>());
      DType d0 = DType::i64, d1 = DType::i64;
      by_chunks(m, [&](std::size_t lo, std::size_t n, Result r1y0) {
        const ir::LaneView x0 = lane(a, 0, lo), x1 = lane(a, 1, lo);
        Result o0(out, 0, lo), o1(out, 1, lo);
        r1y0.set(pt, x1, lane(b, 0, lo), n);
        o0.set(pp, x0, r1y0.view(), n);
        o1.set(pt, x1, lane(b, 1, lo), n);
        d0 = o0.dtype;
        d1 = o1.dtype;
      });
      out.set_dtype(0, d0);
      out.set_dtype(1, d1);
      out.canonicalize();
    };
  }
  return ir::BinOp::make({
      .name = "op_sr2[" + otimes->name() + "," + oplus->name() + "]",
      .fn =
          [ot = otimes, op = oplus](const Value& a, const Value& b) {
            const auto& x = a.as_tuple();
            const auto& y = b.as_tuple();
            return make_tuple((*op)(x[0], (*ot)(x[1], y[0])),
                              (*ot)(x[1], y[1]));
          },
      .associative = true,
      .commutative = false,
      .ops_cost = ops,
      .packed_fn = std::move(packed),
  });
}

ir::BalancedOp make_op_sr(BinOpPtr oplus, int elem_words) {
  COLOP_REQUIRE(oplus->commutative(),
                "op_sr requires a commutative base operator");
  ir::BalancedOp op;
  op.name = "op_sr[" + oplus->name() + "]";
  op.combine = [o = oplus](const Value& a, const Value& b) {
    const auto& x = a.as_tuple();
    const auto& y = b.as_tuple();
    const Value uu = (*o)(x[1], y[1]);
    return make_tuple((*o)((*o)(x[0], y[0]), x[1]), (*o)(uu, uu));
  };
  op.unit_case = [o = oplus](const Value& v) {
    const auto& x = v.as_tuple();
    return make_tuple(x[0], (*o)(x[1], x[1]));
  };
  op.ops_cost = 4 * oplus->ops_cost();
  op.words = 2 * elem_words;
  if (oplus->has_packed_lane()) {
    op.packed_combine = [po = oplus->packed_lane()](const PackedBlock& a,
                                                    const PackedBlock& b,
                                                    PackedBlock& out) {
      COLOP_REQUIRE(a.size() == b.size(), "op_sr: packed size mismatch");
      if (!full_tuples(a, 2, "op_sr") || !full_tuples(b, 2, "op_sr")) {
        out = PackedBlock::wild(0);
        return;
      }
      const std::size_t m = a.size();
      if (&out != &a && &out != &b) shape_full(out, m, 2);
      Result o0(out, 0), o1(out, 1);
      o0.set(po, lane(a, 0), lane(b, 0), m);
      o0.set(po, o0.view(), lane(a, 1), m);
      o1.set(po, lane(a, 1), lane(b, 1), m);  // uu
      o1.set(po, o1.view(), o1.view(), m);
      out.set_dtype(0, o0.dtype);
      out.set_dtype(1, o1.dtype);
      out.canonicalize();
    };
    op.packed_unit = [po = oplus->packed_lane()](PackedBlock v) {
      if (!full_tuples(v, 2, "op_sr")) return v;
      Result o1(v, 1);
      o1.set(po, lane(v, 1), lane(v, 1), v.size());
      v.set_dtype(1, o1.dtype);
      v.canonicalize();
      return v;
    };
  }
  return op;
}

ir::BalancedOp2 make_op_ss(BinOpPtr oplus, int elem_words) {
  COLOP_REQUIRE(oplus->commutative(),
                "op_ss requires a commutative base operator");
  ir::BalancedOp2 op;
  op.name = "op_ss[" + oplus->name() + "]";
  op.combine2 = [o = oplus](const Value& a, const Value& b) {
    const auto& x = a.as_tuple();  // lower partner (s1,t1,u1,v1)
    const auto& y = b.as_tuple();  // upper partner (s2,t2,u2,v2)
    const Value ttu = (*o)((*o)(x[1], y[1]), x[2]);
    const Value uu = (*o)(x[2], y[2]);
    const Value uuuu = (*o)(uu, uu);
    const Value vv = (*o)(x[3], y[3]);
    Value lo = make_tuple(x[0], ttu, uuuu, vv);
    Value hi = make_tuple((*o)((*o)(y[0], x[1]), x[3]), ttu, uuuu,
                          (*o)(uu, vv));
    return std::make_pair(std::move(lo), std::move(hi));
  };
  op.degrade = [](const Value& v) {
    const auto& x = v.as_tuple();
    return make_tuple(x[0], Value::undefined(), Value::undefined(),
                      Value::undefined());
  };
  // The scan component s stays local: only (t,u,v) travel (3 words).
  op.strip = [](const Value& v) {
    const auto& x = v.as_tuple();
    return make_tuple(Value::undefined(), x[1], x[2], x[3]);
  };
  op.ops_cost = 8 * oplus->ops_cost();
  op.words = 3 * elem_words;
  if (oplus->has_packed_lane()) {
    op.packed_combine2 = [po = oplus->packed_lane()](
                             const PackedBlock& a, const PackedBlock& b,
                             PackedBlock& lo, PackedBlock& hi) {
      COLOP_REQUIRE(a.size() == b.size(), "op_ss: packed size mismatch");
      if (!full_tuples(a, 4, "op_ss") || !full_tuples(b, 4, "op_ss")) {
        lo = hi = PackedBlock::wild(0);
        return;
      }
      const std::size_t m = a.size();
      const ir::LaneView x1 = lane(a, 1), x2 = lane(a, 2), x3 = lane(a, 3);
      const ir::LaneView y0 = lane(b, 0), y1 = lane(b, 1), y2 = lane(b, 2),
                         y3 = lane(b, 3);
      if (&lo != &a) {
        shape_full(lo, m, 4);
        lo.copy_lane(0, a, 0);
      }
      if (&hi != &b) shape_full(hi, m, 4);
      Result h0(hi, 0), l1(lo, 1), h2(hi, 2), l2(lo, 2), l3(lo, 3), h3(hi, 3);
      h0.set(po, y0, x1, m);
      h0.set(po, h0.view(), x3, m);
      l1.set(po, x1, y1, m);  // ttu
      l1.set(po, l1.view(), x2, m);
      h2.set(po, x2, y2, m);  // uu, until uuuu overwrites it
      l2.set(po, h2.view(), h2.view(), m);  // uuuu
      l3.set(po, x3, y3, m);  // vv
      h3.set(po, h2.view(), l3.view(), m);
      lo.set_dtype(1, l1.dtype);
      lo.set_dtype(2, l2.dtype);
      lo.set_dtype(3, l3.dtype);
      hi.set_dtype(0, h0.dtype);
      hi.set_dtype(3, h3.dtype);
      hi.copy_lane(1, lo, 1);
      hi.copy_lane(2, lo, 2);
      lo.canonicalize();
      hi.canonicalize();
    };
    op.packed_degrade = [](PackedBlock v) {
      if (!full_tuples(v, 4, "op_ss")) return v;
      for (std::size_t l = 1; l < 4; ++l) clear_lane(v, l);
      return v;
    };
    op.packed_strip = [](PackedBlock v) {
      if (!full_tuples(v, 4, "op_ss")) return v;
      clear_lane(v, 0);
      return v;
    };
  }
  return op;
}

ir::ElemIdxFn make_op_comp_bs(BinOpPtr oplus) {
  ir::ElemIdxFn f;
  f.name = "op_comp_bs[" + oplus->name() + "]";
  f.fn = [o = oplus](int k, const Value& b) {
    // pair; repeat(e,o) k; pi_1  with e(t,u)=(t,u+u), o(t,u)=(t+u,u+u);
    // the last digit's u+u is never read.
    Value t = b, u = b;
    for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
      if (kk & 1u) t = (*o)(t, u);
      if (kk > 1u) u = (*o)(u, u);
    }
    return t;
  };
  f.ops_per_logp = 2 * oplus->ops_cost();
  if (oplus->has_packed()) {
    // Same digit loop with whole blocks as the auxiliary variables, each
    // combined in its own buffer; the base kernel enforces its own element
    // shape (scalars, mat2 4-tuples).
    f.packed_fn = [po = oplus->packed()](int k, PackedBlock b) {
      if (b.is_wild() || k == 0) return b;
      PackedBlock t = b;
      PackedBlock& u = b;
      for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
        if (kk & 1u) po(t, u, t);
        if (kk > 1u) po(u, u, u);
      }
      return t;
    };
  }
  return f;
}

ir::ElemIdxFn make_op_comp_bss2(BinOpPtr otimes, BinOpPtr oplus) {
  COLOP_REQUIRE(otimes->distributes_over(*oplus),
                "op_comp_bss2 requires " + otimes->name() +
                    " to distribute over " + oplus->name());
  ir::ElemIdxFn f;
  f.name = "op_comp_bss2[" + otimes->name() + "," + oplus->name() + "]";
  f.fn = [ot = otimes, op = oplus](int k, const Value& b) {
    // triple; repeat(e,o) k; pi_1 with
    //   e(s,t,u) = (s,          t+(t*u), u*u)
    //   o(s,t,u) = (t+(s*u),    t+(t*u), u*u)
    // The last digit is odd and only its s is read.
    Value s = b, t = b, u = b;
    for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
      if (kk & 1u) s = (*op)(t, (*ot)(s, u));
      if (kk == 1u) break;
      t = (*op)(t, (*ot)(t, u));
      u = (*ot)(u, u);
    }
    return s;
  };
  f.ops_per_logp = 3 * otimes->ops_cost() + 2 * oplus->ops_cost();
  if (otimes->has_packed() && oplus->has_packed()) {
    f.packed_fn = [pt = otimes->packed(), pp = oplus->packed()](
                      int k, PackedBlock b) {
      if (b.is_wild() || k == 0) return b;
      PackedBlock s = b, t = b, tu;
      PackedBlock& u = b;
      for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
        if (kk & 1u) {
          pt(s, u, s);
          pp(t, s, s);
        }
        if (kk == 1u) break;
        pt(t, u, tu);
        pp(t, tu, t);
        pt(u, u, u);
      }
      return s;
    };
  }
  return f;
}

ir::ElemIdxFn make_op_comp_bss(BinOpPtr oplus) {
  COLOP_REQUIRE(oplus->commutative(),
                "op_comp_bss requires a commutative base operator");
  ir::ElemIdxFn f;
  f.name = "op_comp_bss[" + oplus->name() + "]";
  f.fn = [o = oplus](int k, const Value& b) {
    // quadruple; repeat(e,o) k; pi_1 with (uu = u+u)
    //   e(s,t,u,v) = (s,       t+t+u, uu+uu, v+v)
    //   o(s,t,u,v) = (s+t+v,   t+t+u, uu+uu, uu+v+v)
    // The last digit is odd and only its s is read.
    Value s = b, t = b, u = b, v = b;
    for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
      if (kk & 1u) s = (*o)((*o)(s, t), v);
      if (kk == 1u) break;
      const Value uu = (*o)(u, u);
      t = (*o)((*o)(t, t), u);
      u = (*o)(uu, uu);
      v = (kk & 1u) ? (*o)((*o)(uu, v), v) : (*o)(v, v);
    }
    return s;
  };
  f.ops_per_logp = 8 * oplus->ops_cost();
  if (oplus->has_packed()) {
    f.packed_fn = [po = oplus->packed()](int k, PackedBlock b) {
      if (b.is_wild() || k == 0) return b;
      PackedBlock s = b, t = b, u = b, uu;
      PackedBlock& v = b;
      for (auto kk = static_cast<unsigned>(k); kk != 0; kk >>= 1u) {
        if (kk & 1u) {
          po(s, t, s);
          po(s, v, s);
        }
        if (kk == 1u) break;
        po(u, u, uu);
        po(t, t, t);
        po(t, u, t);
        po(uu, uu, u);
        if (kk & 1u) {
          po(uu, v, uu);  // uu is dead once u is
          po(uu, v, v);
        } else {
          po(v, v, v);
        }
      }
      return s;
    };
  }
  return f;
}

ir::ElemFn make_op_br(BinOpPtr oplus) {
  ir::ElemFn f;
  f.name = "op_br[" + oplus->name() + "]";
  f.fn = [o = oplus](const Value& s) { return (*o)(s, s); };
  f.ops_cost = oplus->ops_cost();
  if (oplus->has_packed()) {
    f.packed_fn = [po = oplus->packed()](PackedBlock v) {
      po(v, v, v);
      return v;
    };
  }
  return f;
}

std::function<Value(int, const Value&)> make_general_br(BinOpPtr oplus) {
  return [o = oplus](int p, const Value& b) {
    return pow_assoc(*o, b, static_cast<std::uint64_t>(p));
  };
}

ir::ElemFn make_op_bsr2(BinOpPtr otimes, BinOpPtr oplus) {
  COLOP_REQUIRE(otimes->distributes_over(*oplus),
                "op_bsr2 requires " + otimes->name() + " to distribute over " +
                    oplus->name());
  ir::ElemFn f;
  f.name = "op_bsr2[" + otimes->name() + "," + oplus->name() + "]";
  f.fn = [ot = otimes, op = oplus](const Value& v) {
    const auto& x = v.as_tuple();  // (s, t)
    return make_tuple((*op)(x[0], (*ot)(x[0], x[1])), (*ot)(x[1], x[1]));
  };
  f.ops_cost = 2 * otimes->ops_cost() + oplus->ops_cost();
  if (otimes->has_packed_lane() && oplus->has_packed_lane()) {
    f.packed_fn = [pt = otimes->packed_lane(), pp = oplus->packed_lane()](
                      PackedBlock v) {
      if (!full_tuples(v, 2, "op_bsr2")) return v;
      DType d0 = DType::i64, d1 = DType::i64;
      by_chunks(v.size(), [&](std::size_t lo, std::size_t n, Result st) {
        const ir::LaneView x0 = lane(v, 0, lo), x1 = lane(v, 1, lo);
        Result o0(v, 0, lo), o1(v, 1, lo);
        st.set(pt, x0, x1, n);
        o0.set(pp, x0, st.view(), n);
        o1.set(pt, x1, x1, n);
        d0 = o0.dtype;
        d1 = o1.dtype;
      });
      v.set_dtype(0, d0);
      v.set_dtype(1, d1);
      v.canonicalize();
      return v;
    };
  }
  return f;
}

std::function<Value(int, const Value&)> make_general_bsr2(BinOpPtr otimes,
                                                          BinOpPtr oplus) {
  // (b,b) is the op_sr2 image of a one-element segment; its p-th op_sr2
  // power is (scan-reduce over p copies, product over p copies).
  auto sr2 = make_op_sr2(std::move(otimes), std::move(oplus));
  return [sr2](int p, const Value& x) {
    return pow_assoc(*sr2, x, static_cast<std::uint64_t>(p));
  };
}

ir::ElemFn make_op_bsr(BinOpPtr oplus) {
  COLOP_REQUIRE(oplus->commutative(),
                "op_bsr requires a commutative base operator");
  ir::ElemFn f;
  f.name = "op_bsr[" + oplus->name() + "]";
  f.fn = [o = oplus](const Value& v) {
    const auto& x = v.as_tuple();  // (t, u)
    const Value uu = (*o)(x[1], x[1]);
    return make_tuple((*o)((*o)(x[0], x[0]), x[1]), (*o)(uu, uu));
  };
  f.ops_cost = 4 * oplus->ops_cost();
  if (oplus->has_packed_lane()) {
    f.packed_fn = [po = oplus->packed_lane()](PackedBlock v) {
      if (!full_tuples(v, 2, "op_bsr")) return v;
      const std::size_t m = v.size();
      Result o0(v, 0), o1(v, 1);
      o0.set(po, lane(v, 0), lane(v, 0), m);
      o0.set(po, o0.view(), lane(v, 1), m);
      o1.set(po, lane(v, 1), lane(v, 1), m);  // uu
      o1.set(po, o1.view(), o1.view(), m);
      v.set_dtype(0, o0.dtype);
      v.set_dtype(1, o1.dtype);
      v.canonicalize();
      return v;
    };
  }
  return f;
}

std::function<Value(int, const Value&)> make_general_bsr(BinOpPtr oplus) {
  // reduce(+) . scan(+) over p copies of b is b^(+ p(p+1)/2); the second
  // pair component is never used afterwards (pi_1 follows).
  return [o = oplus](int p, const Value& x) {
    const auto n = static_cast<std::uint64_t>(p);
    const Value& b = x.at(0);
    return make_tuple(pow_assoc(*o, b, n * (n + 1) / 2), Value::undefined());
  };
}

}  // namespace colop::rules
