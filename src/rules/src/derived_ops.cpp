#include "colop/rules/derived_ops.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "colop/ir/packed_kernels.h"
#include "colop/support/error.h"

namespace colop::rules {

using ir::PackedBlock;
using ir::Tuple;
namespace pk = ir::pk;

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
void require_full_tuple(const PackedBlock& b, int arity, const char* name) {
  COLOP_REQUIRE(b.arity() == arity,
                std::string(name) + ": packed kernel expects " +
                    std::to_string(arity) + "-tuples");
  COLOP_REQUIRE(ir::mask_popcount(b.elem_mask()) == b.size(),
                std::string(name) + ": undefined element");
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
  if (otimes->has_packed() && oplus->has_packed()) {
    packed = [pt = otimes->packed(), pp = oplus->packed()](
                 const PackedBlock& a, const PackedBlock& b) {
      COLOP_REQUIRE(a.size() == b.size(), "op_sr2: packed size mismatch");
      if (a.is_wild() || b.is_wild()) return PackedBlock::wild(a.size());
      COLOP_REQUIRE(a.arity() == 2 && b.arity() == 2,
                    "op_sr2: packed kernel expects pairs");
      const PackedBlock x0 = pk::lane_scalar(a, 0);
      const PackedBlock x1 = pk::lane_scalar(a, 1);
      const PackedBlock y0 = pk::lane_scalar(b, 0);
      const PackedBlock y1 = pk::lane_scalar(b, 1);
      // Element mask a AND b, built in place.
      PackedBlock out = PackedBlock::tuples(2, a.size());
      const ir::MaskSpan elem = out.elem_mask();
      std::copy(a.elem_mask().begin(), a.elem_mask().end(), elem.begin());
      ir::mask_and_into(elem, b.elem_mask());
      pk::set_lane(out, 0, pp(x0, pt(x1, y0)));
      pk::set_lane(out, 1, pt(x1, y1));
      out.canonicalize();
      return out;
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
  if (oplus->has_packed()) {
    op.packed_combine = [po = oplus->packed()](const PackedBlock& a,
                                               const PackedBlock& b) {
      COLOP_REQUIRE(a.size() == b.size(), "op_sr: packed size mismatch");
      require_full_tuple(a, 2, "op_sr");
      require_full_tuple(b, 2, "op_sr");
      const PackedBlock x0 = pk::lane_scalar(a, 0);
      const PackedBlock x1 = pk::lane_scalar(a, 1);
      const PackedBlock y0 = pk::lane_scalar(b, 0);
      const PackedBlock y1 = pk::lane_scalar(b, 1);
      const PackedBlock uu = po(x1, y1);
      return pk::tuple_of(a.elem_mask(), a.size(), po(po(x0, y0), x1),
                          po(uu, uu));
    };
    op.packed_unit = [po = oplus->packed()](PackedBlock v) {
      require_full_tuple(v, 2, "op_sr");
      const PackedBlock x1 = pk::lane_scalar(v, 1);
      return pk::tuple_of(v.elem_mask(), v.size(), pk::lane_scalar(v, 0),
                          po(x1, x1));
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
  if (oplus->has_packed()) {
    op.packed_combine2 = [po = oplus->packed()](const PackedBlock& a,
                                                const PackedBlock& b) {
      COLOP_REQUIRE(a.size() == b.size(), "op_ss: packed size mismatch");
      require_full_tuple(a, 4, "op_ss");
      require_full_tuple(b, 4, "op_ss");
      const std::size_t m = a.size();
      const ir::MaskView full = a.elem_mask();  // require_full_tuple
      const PackedBlock x0 = pk::lane_scalar(a, 0);
      const PackedBlock x1 = pk::lane_scalar(a, 1);
      const PackedBlock x2 = pk::lane_scalar(a, 2);
      const PackedBlock x3 = pk::lane_scalar(a, 3);
      const PackedBlock y0 = pk::lane_scalar(b, 0);
      const PackedBlock y1 = pk::lane_scalar(b, 1);
      const PackedBlock y2 = pk::lane_scalar(b, 2);
      const PackedBlock y3 = pk::lane_scalar(b, 3);
      const PackedBlock ttu = po(po(x1, y1), x2);
      const PackedBlock uu = po(x2, y2);
      const PackedBlock uuuu = po(uu, uu);
      const PackedBlock vv = po(x3, y3);
      return std::make_pair(
          pk::tuple_of(full, m, x0, ttu, uuuu, vv),
          pk::tuple_of(full, m, po(po(y0, x1), x3), ttu, uuuu, po(uu, vv)));
    };
    op.packed_degrade = [](PackedBlock v) {
      require_full_tuple(v, 4, "op_ss");
      const std::size_t m = v.size();
      const PackedBlock undef = pk::undef_component(m);
      return pk::tuple_of(v.elem_mask(), m, pk::lane_scalar(v, 0), undef,
                          undef, undef);
    };
    op.packed_strip = [](PackedBlock v) {
      require_full_tuple(v, 4, "op_ss");
      const std::size_t m = v.size();
      return pk::tuple_of(v.elem_mask(), m, pk::undef_component(m),
                          pk::lane_scalar(v, 1), pk::lane_scalar(v, 2),
                          pk::lane_scalar(v, 3));
    };
  }
  return op;
}

ir::ElemIdxFn make_op_comp_bs(BinOpPtr oplus) {
  ir::ElemIdxFn f;
  f.name = "op_comp_bs[" + oplus->name() + "]";
  f.fn = [o = oplus](int k, const Value& b) {
    // pair; repeat(e,o) k; pi_1  with e(t,u)=(t,u+u), o(t,u)=(t+u,u+u)
    Value t = b, u = b;
    auto kk = static_cast<unsigned>(k);
    while (kk != 0) {
      if (kk & 1u) t = (*o)(t, u);
      u = (*o)(u, u);
      kk >>= 1u;
    }
    return t;
  };
  f.ops_per_logp = 2 * oplus->ops_cost();
  if (oplus->has_packed()) {
    // Same digit loop with whole blocks as the auxiliary variables; the
    // base kernel enforces its own element shape (scalars, mat2 4-tuples).
    f.packed_fn = [po = oplus->packed()](int k, PackedBlock b) {
      if (b.is_wild()) return b;
      PackedBlock t = b;
      PackedBlock u = std::move(b);
      auto kk = static_cast<unsigned>(k);
      while (kk != 0) {
        if (kk & 1u) t = po(t, u);
        u = po(u, u);
        kk >>= 1u;
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
    Value s = b, t = b, u = b;
    auto kk = static_cast<unsigned>(k);
    while (kk != 0) {
      const Value t_new = (*op)(t, (*ot)(t, u));
      if (kk & 1u) s = (*op)(t, (*ot)(s, u));
      t = t_new;
      u = (*ot)(u, u);
      kk >>= 1u;
    }
    return s;
  };
  f.ops_per_logp = 3 * otimes->ops_cost() + 2 * oplus->ops_cost();
  if (otimes->has_packed() && oplus->has_packed()) {
    f.packed_fn = [pt = otimes->packed(), pp = oplus->packed()](
                      int k, PackedBlock b) {
      if (b.is_wild()) return b;
      PackedBlock s = b, t = b;
      PackedBlock u = std::move(b);
      auto kk = static_cast<unsigned>(k);
      while (kk != 0) {
        PackedBlock t_new = pp(t, pt(t, u));
        if (kk & 1u) s = pp(t, pt(s, u));
        t = std::move(t_new);
        u = pt(u, u);
        kk >>= 1u;
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
    Value s = b, t = b, u = b, v = b;
    auto kk = static_cast<unsigned>(k);
    while (kk != 0) {
      const Value uu = (*o)(u, u);
      const Value t_new = (*o)((*o)(t, t), u);
      const Value u_new = (*o)(uu, uu);
      const Value v_new = (kk & 1u) ? (*o)((*o)(uu, v), v) : (*o)(v, v);
      if (kk & 1u) s = (*o)((*o)(s, t), v);
      t = t_new;
      u = u_new;
      v = v_new;
      kk >>= 1u;
    }
    return s;
  };
  f.ops_per_logp = 8 * oplus->ops_cost();
  if (oplus->has_packed()) {
    f.packed_fn = [po = oplus->packed()](int k, PackedBlock b) {
      if (b.is_wild()) return b;
      PackedBlock s = b, t = b, u = b;
      PackedBlock v = std::move(b);
      auto kk = static_cast<unsigned>(k);
      while (kk != 0) {
        const PackedBlock uu = po(u, u);
        PackedBlock t_new = po(po(t, t), u);
        PackedBlock u_new = po(uu, uu);
        PackedBlock v_new = (kk & 1u) ? po(po(uu, v), v) : po(v, v);
        if (kk & 1u) s = po(po(s, t), v);
        t = std::move(t_new);
        u = std::move(u_new);
        v = std::move(v_new);
        kk >>= 1u;
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
    f.packed_fn = [po = oplus->packed()](PackedBlock v) { return po(v, v); };
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
  if (otimes->has_packed() && oplus->has_packed()) {
    f.packed_fn = [pt = otimes->packed(), pp = oplus->packed()](
                      PackedBlock v) {
      require_full_tuple(v, 2, "op_bsr2");
      const PackedBlock x0 = pk::lane_scalar(v, 0);
      const PackedBlock x1 = pk::lane_scalar(v, 1);
      return pk::tuple_of(v.elem_mask(), v.size(), pp(x0, pt(x0, x1)),
                          pt(x1, x1));
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
  if (oplus->has_packed()) {
    f.packed_fn = [po = oplus->packed()](PackedBlock v) {
      require_full_tuple(v, 2, "op_bsr");
      const PackedBlock x0 = pk::lane_scalar(v, 0);
      const PackedBlock x1 = pk::lane_scalar(v, 1);
      const PackedBlock uu = po(x1, x1);
      return pk::tuple_of(v.elem_mask(), v.size(), po(po(x0, x0), x1),
                          po(uu, uu));
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
