// Direct unit tests of the derived-operator algebra — the paper's lemmas
// as executable checks:
//   * op_sr2 is associative whenever x distributes over + (the fact that
//     makes SR2-Reduction/SS2-Scan ordinary collectives);
//   * op_sr/op_ss are NOT associative (why reduce_/scan_balanced exist);
//   * the repeat/e/o schemas compute the closed forms of Section 3.4;
//   * pow_assoc and the generalized local folds are exact;
//   * every packed kernel, base or derived, is its boxed twin bit for bit,
//     whether it writes a fresh block or an operand's own buffer.

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "colop/ir/ir.h"
#include "colop/ir/packed.h"
#include "colop/rules/derived_ops.h"
#include "colop/support/rng.h"

namespace colop::rules {
namespace {

using ir::Tuple;
using ir::Value;

std::function<Value(Rng&)> pair_gen(std::int64_t lo, std::int64_t hi) {
  return [lo, hi](Rng& rng) {
    return Value(Tuple{Value(rng.uniform(lo, hi)), Value(rng.uniform(lo, hi))});
  };
}

TEST(OpSr2, AssociativeForEveryDistributivePair) {
  const std::vector<std::pair<ir::BinOpPtr, ir::BinOpPtr>> pairs = {
      {ir::op_modmul(97), ir::op_modadd(97)},
      {ir::op_add(), ir::op_max()},
      {ir::op_add(), ir::op_min()},
      {ir::op_max(), ir::op_min()},
      {ir::op_band(), ir::op_bor()},
      {ir::op_gcd(), ir::op_gcd()},
  };
  for (const auto& [ot, op] : pairs) {
    const auto sr2 = make_op_sr2(ot, op);
    EXPECT_TRUE(ir::check_associative(*sr2, pair_gen(-15, 15), 300))
        << sr2->name();
  }
}

TEST(OpSr2, RequiresDeclaredDistributivity) {
  EXPECT_THROW((void)make_op_sr2(ir::op_add(), ir::op_mul()), Error);
  EXPECT_THROW((void)make_op_comp_bss2(ir::op_add(), ir::op_mul()), Error);
  EXPECT_THROW((void)make_op_bsr2(ir::op_add(), ir::op_mul()), Error);
}

TEST(OpSr2, MatchesTheRulesDefinition) {
  // op_sr2((s1,r1),(s2,r2)) = (s1 + (r1 * s2), r1 * r2)
  const auto sr2 = make_op_sr2(ir::op_mul(), ir::op_add());
  const Value a(Tuple{Value(3), Value(4)});
  const Value b(Tuple{Value(5), Value(6)});
  const Value c = (*sr2)(a, b);
  EXPECT_EQ(c.at(0).as_int(), 3 + 4 * 5);
  EXPECT_EQ(c.at(1).as_int(), 4 * 6);
}

TEST(OpSr, NotAssociativeButBalancedInvariantHolds) {
  const auto sr = make_op_sr(ir::op_add());
  // Non-associativity witness (why reduce_balanced is needed):
  const auto t = [](std::int64_t a, std::int64_t b) {
    return Value(Tuple{Value(a), Value(b)});
  };
  const Value left = sr.combine(sr.combine(t(1, 1), t(2, 2)), t(3, 3));
  const Value right = sr.combine(t(1, 1), sr.combine(t(2, 2), t(3, 3)));
  EXPECT_FALSE(left == right);

  // Invariant (Fig. 4): combining two equal-depth-d siblings over segments
  // with u = 2^d * segment_sum yields u' = 2^(d+1) * total_sum.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t s1 = rng.uniform(-20, 20), s2 = rng.uniform(-20, 20);
    const int d = static_cast<int>(rng.uniform(0, 5));
    const Value v = sr.combine(t(s1, (1 << d) * s1), t(s2, (1 << d) * s2));
    EXPECT_EQ(v.at(1).as_int(), (2 << d) * (s1 + s2));
  }
}

TEST(OpSr, UnitCaseDoublesU) {
  const auto sr = make_op_sr(ir::op_add());
  const Value v = sr.unit_case(Value(Tuple{Value(7), Value(9)}));
  EXPECT_EQ(v.at(0).as_int(), 7);
  EXPECT_EQ(v.at(1).as_int(), 18);
}

TEST(OpSr, RejectsNonCommutativeBase) {
  EXPECT_THROW((void)make_op_sr(ir::op_mat2()), Error);
  EXPECT_THROW((void)make_op_ss(ir::op_mat2()), Error);
  EXPECT_THROW((void)make_op_bsr(ir::op_mat2()), Error);
  EXPECT_THROW((void)make_op_comp_bss(ir::op_mat2()), Error);
}

TEST(OpSs, PaperExampleExchange) {
  // Fig. 5, first exchange: (2,2,2,2) with (5,5,5,5):
  // lower -> (2, 9, 14, 7); upper -> (9, 9, 14, 14).
  const auto ss = make_op_ss(ir::op_add());
  const Value a(Tuple{Value(2), Value(2), Value(2), Value(2)});
  const Value b(Tuple{Value(5), Value(5), Value(5), Value(5)});
  const auto [lo, hi] = ss.combine2(a, b);
  EXPECT_EQ(lo, Value(Tuple{Value(2), Value(9), Value(14), Value(7)}));
  EXPECT_EQ(hi, Value(Tuple{Value(9), Value(9), Value(14), Value(14)}));
}

TEST(OpSs, DegradeAndStripHandleComponents) {
  const auto ss = make_op_ss(ir::op_add());
  const Value q(Tuple{Value(1), Value(2), Value(3), Value(4)});
  const Value d = ss.degrade(q);
  EXPECT_EQ(d.at(0).as_int(), 1);
  EXPECT_TRUE(d.at(1).is_undefined());
  const Value s = ss.strip(q);
  EXPECT_TRUE(s.at(0).is_undefined());  // the scan value stays local
  EXPECT_EQ(s.at(3).as_int(), 4);
  EXPECT_EQ(s.words(), 3u);  // exactly the paper's 3*tw
}

TEST(OpComp, BsComputesScanOfReplicatedValue) {
  // op_comp k b = the (k+1)-fold + of b (Fig. 6).
  const auto f = make_op_comp_bs(ir::op_add());
  for (int k = 0; k < 40; ++k)
    EXPECT_EQ(f(k, Value(std::int64_t{2})).as_int(), 2 * (k + 1)) << k;
}

TEST(OpComp, Bss2ComputesDoubleScanClosedForm) {
  // With (*, +): rank k gets sum_{i=1..k+1} b^i.
  const auto f = make_op_comp_bss2(ir::op_mul(), ir::op_add());
  const std::int64_t b = 2;
  std::int64_t expect = 0, pw = 1;
  for (int k = 0; k < 20; ++k) {
    pw *= b;
    expect += pw;
    EXPECT_EQ(f(k, Value(b)).as_int(), expect) << k;
  }
}

TEST(OpComp, BssComputesTriangularNumbers) {
  // With +: rank k gets (k+1)(k+2)/2 * b.
  const auto f = make_op_comp_bss(ir::op_add());
  for (std::int64_t k = 0; k < 40; ++k)
    EXPECT_EQ(f(static_cast<int>(k), Value(std::int64_t{3})).as_int(),
              3 * (k + 1) * (k + 2) / 2)
        << k;
}

TEST(PowAssoc, MatchesLinearFold) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const std::int64_t b = rng.uniform(0, 96);
    const auto op = ir::op_modadd(97);
    const auto n = static_cast<std::uint64_t>(rng.uniform(1, 200));
    Value expect(b);
    for (std::uint64_t i = 1; i < n; ++i) expect = (*op)(expect, Value(b));
    EXPECT_EQ(pow_assoc(*op, Value(b), n), expect) << n;
  }
}

TEST(PowAssoc, WorksWithNonCommutativeOps) {
  // Matrix powers: pow_assoc only needs associativity.
  const Value fib(Tuple{Value(1), Value(1), Value(1), Value(0)});
  const Value m8 = pow_assoc(*ir::op_mat2(), fib, 8);
  EXPECT_EQ(m8.at(0).as_int(), 34);  // F(9)
  EXPECT_EQ(m8.at(1).as_int(), 21);  // F(8)
}

TEST(PowAssoc, RejectsZeroExponent) {
  EXPECT_THROW((void)pow_assoc(*ir::op_add(), Value(1), 0), Error);
}

TEST(GeneralFolds, MatchIterDoublingAtPowersOfTwo) {
  const auto br_step = make_op_br(ir::op_add());
  const auto br_gen = make_general_br(ir::op_add());
  const auto bsr2_step = make_op_bsr2(ir::op_mul(), ir::op_add());
  const auto bsr2_gen = make_general_bsr2(ir::op_mul(), ir::op_add());
  const auto bsr_step = make_op_bsr(ir::op_add());
  const auto bsr_gen = make_general_bsr(ir::op_add());

  for (int logp = 0; logp <= 5; ++logp) {
    const int p = 1 << logp;
    {
      Value v(std::int64_t{3});
      for (int i = 0; i < logp; ++i) v = br_step(v);
      EXPECT_EQ(br_gen(p, Value(std::int64_t{3})), v) << p;
    }
    {
      Value v(Tuple{Value(1), Value(1)});  // b = 1 keeps * bounded
      for (int i = 0; i < logp; ++i) v = bsr2_step(v);
      EXPECT_EQ(bsr2_gen(p, Value(Tuple{Value(1), Value(1)})).at(0), v.at(0)) << p;
    }
    {
      Value v(Tuple{Value(2), Value(2)});
      for (int i = 0; i < logp; ++i) v = bsr_step(v);
      EXPECT_EQ(bsr_gen(p, Value(Tuple{Value(2), Value(2)})).at(0), v.at(0)) << p;
    }
  }
}

TEST(GeneralFolds, ExactForArbitraryP) {
  const auto bsr_gen = make_general_bsr(ir::op_add());
  for (int p = 1; p <= 33; ++p) {
    // reduce(+) of scan(+) over p copies of b: sum_{i=1..p} i*b.
    const std::int64_t b = 5;
    EXPECT_EQ(bsr_gen(p, Value(Tuple{Value(b), Value(b)})).at(0).as_int(),
              b * p * (p + 1) / 2)
        << p;
  }
}

// --- packed kernels, in a fresh block and in an operand's buffer ---------
//
// Each packed kernel against its boxed twin, element by element, on blocks
// of every boundary size with int and real lanes, sprinkled `_` (whole
// elements and single components) and wild blocks.  A result must equal
// the packed boxed result word for word -- doubles bit for bit, canonical
// form included -- whether the kernel writes a fresh block, a block of
// another shape, the left operand, the right operand or (a squaring) the
// one block that is both.  Where the boxed twin throws, so must the kernel.

using ir::Block;
using ir::PackedBlock;

constexpr std::size_t kSizes[] = {0, 1, 2, 63, 64, 65, 4096};

enum class Elem {
  int_scalar,
  real_scalar,
  int_pair,
  real_pair,
  mixed_pair,
  int_quad,
  real_quad
};
const std::vector<Elem> kScalars{Elem::int_scalar, Elem::real_scalar};
const std::vector<Elem> kPairs{Elem::int_pair, Elem::real_pair, Elem::mixed_pair};
const std::vector<Elem> kQuads{Elem::int_quad, Elem::real_quad};

Value leaf(Rng& rng, bool real) {
  if (real) return Value(static_cast<double>(rng.uniform(-64, 64)) / 16);
  return Value(rng.uniform(-9, 9));
}

// m elements of one kind; with `sprinkle`, some elements and some tuple
// components are `_`.
Block random_block(Rng& rng, std::size_t m, Elem kind, bool sprinkle) {
  Block b;
  for (std::size_t i = 0; i < m; ++i) {
    if (sprinkle && rng.uniform01() < 0.15) {
      b.push_back(Value::undefined());
      continue;
    }
    const auto component = [&](bool real) {
      return sprinkle && rng.uniform01() < 0.15 ? Value::undefined() : leaf(rng, real);
    };
    switch (kind) {
      case Elem::int_scalar: b.push_back(component(false)); break;
      case Elem::real_scalar: b.push_back(component(true)); break;
      case Elem::int_pair:
        b.push_back(Value(Tuple{component(false), component(false)}));
        break;
      case Elem::real_pair:
        b.push_back(Value(Tuple{component(true), component(true)}));
        break;
      case Elem::mixed_pair:
        b.push_back(Value(Tuple{component(false), component(true)}));
        break;
      case Elem::int_quad:
      case Elem::real_quad: {
        const bool real = kind == Elem::real_quad;
        b.push_back(Value(Tuple{component(real), component(real), component(real),
                                component(real)}));
        break;
      }
    }
  }
  return b;
}

// Operand pairs of every kind pair in `kinds` at every size, defined and
// sprinkled, plus each with a wild block on either side.
std::vector<std::pair<Block, Block>> operand_pairs(const std::vector<Elem>& kinds,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Block, Block>> out;
  for (const std::size_t m : kSizes)
    for (const Elem ka : kinds)
      for (const Elem kb : kinds)
        for (const bool sprinkle : {false, true}) {
          Block a = random_block(rng, m, ka, sprinkle);
          Block b = random_block(rng, m, kb, sprinkle);
          const Block wild(m, Value::undefined());
          out.emplace_back(a, b);
          out.emplace_back(wild, b);
          out.emplace_back(a, wild);
        }
  return out;
}

template <typename F>
std::optional<Block> boxed_outcome(F f) {
  try {
    return f();
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// `run` (a packed kernel call) against the boxed outcome `want`.
template <typename F>
void expect_outcome(const std::optional<Block>& want, F run, const std::string& what) {
  std::optional<PackedBlock> got;
  try {
    got = run();
  } catch (const std::exception&) {
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << what << (want ? ": the kernel threw" : ": the boxed twin threw");
  if (!want) return;
  const auto packed_want = PackedBlock::pack(*want);
  ASSERT_TRUE(packed_want.has_value()) << what;
  EXPECT_TRUE(*got == *packed_want) << what;
}

// A block of another shape with a heap buffer, as a reused result block.
PackedBlock stale_block() {
  Rng rng(3);
  return *PackedBlock::pack(random_block(rng, 100, Elem::real_quad, false));
}

// The first payload word's address, which a kernel that computes in the
// block's own buffer keeps (heap blocks of unchanged shape only).
const void* words_of(const PackedBlock& b) {
  return b.is_wild() ? nullptr : static_cast<const void*>(b.data(0).data());
}

// A binary kernel: fresh, stale, into a, into b, and squaring into a.
void check_binary(const std::string& name, const ir::PackedBinFn& fn,
                  const std::function<Value(const Value&, const Value&)>& boxed,
                  const std::vector<Elem>& kinds, std::uint64_t seed) {
  for (const auto& [a, b] : operand_pairs(kinds, seed)) {
    const auto apply = [&](const Block& x, const Block& y) {
      return boxed_outcome([&] {
        Block out(x.size());
        for (std::size_t j = 0; j < x.size(); ++j) out[j] = boxed(x[j], y[j]);
        return out;
      });
    };
    const std::string what = name + " m=" + std::to_string(a.size());
    const PackedBlock pa = *PackedBlock::pack(a), pb = *PackedBlock::pack(b);
    const auto want = apply(a, b);
    expect_outcome(want, [&] { return fn(pa, pb); }, what + " fresh");
    expect_outcome(want, [&] {
      PackedBlock out = stale_block();
      fn(pa, pb, out);
      return out;
    }, what + " stale");
    expect_outcome(want, [&] {
      PackedBlock x = pa;
      const void* before = words_of(x);
      fn(x, pb, x);
      if (x.arity() == pa.arity() && x.size() > PackedBlock::kInlineElems) {
        EXPECT_EQ(words_of(x), before) << what << " into a: not in its buffer";
      }
      return x;
    }, what + " into a");
    expect_outcome(want, [&] {
      PackedBlock y = pb;
      const void* before = words_of(y);
      fn(pa, y, y);
      if (y.arity() == pb.arity() && y.size() > PackedBlock::kInlineElems) {
        EXPECT_EQ(words_of(y), before) << what << " into b: not in its buffer";
      }
      return y;
    }, what + " into b");
    expect_outcome(apply(a, a), [&] {
      PackedBlock x = pa;
      fn(x, x, x);
      return x;
    }, what + " squared");
    // The collectives' call form: rvalue operands lend their buffers.
    expect_outcome(want, [&] { return fn(PackedBlock(pa), PackedBlock(pb)); },
                   what + " rvalues");
  }
}

// A unary kernel (its block by value) against the boxed map.
void check_unary(const std::string& name, const ir::PackedMapFn& fn,
                 const std::function<Value(const Value&)>& boxed,
                 const std::vector<Elem>& kinds, std::uint64_t seed) {
  for (const auto& [a, b] : operand_pairs(kinds, seed)) {
    (void)b;
    const auto want = boxed_outcome([&] {
      Block out(a.size());
      for (std::size_t j = 0; j < a.size(); ++j) out[j] = boxed(a[j]);
      return out;
    });
    expect_outcome(want, [&] { return fn(*PackedBlock::pack(a)); },
                   name + " m=" + std::to_string(a.size()));
  }
}

TEST(PackedKernelsInPlace, BaseOperators) {
  std::uint64_t seed = 1;
  for (const auto& op :
       {ir::op_add(), ir::op_mul(), ir::op_max(), ir::op_min(), ir::op_band(),
        ir::op_bor(), ir::op_gcd(), ir::op_modadd(97), ir::op_modmul(97),
        ir::op_fadd(), ir::op_fmul(), ir::op_first()}) {
    ASSERT_TRUE(op->has_packed()) << op->name();
    check_binary(op->name(), op->packed(), *op, kScalars, ++seed);
  }
  check_binary("first", ir::op_first()->packed(), *ir::op_first(), kPairs, ++seed);
  check_binary("mat2", ir::op_mat2()->packed(), *ir::op_mat2(), kQuads, ++seed);
}

TEST(PackedKernelsInPlace, Sr2OnEveryDistributivePair) {
  std::uint64_t seed = 100;
  const std::vector<std::pair<ir::BinOpPtr, ir::BinOpPtr>> pairs = {
      {ir::op_mul(), ir::op_add()},          {ir::op_add(), ir::op_max()},
      {ir::op_max(), ir::op_min()},          {ir::op_band(), ir::op_bor()},
      {ir::op_gcd(), ir::op_gcd()},          {ir::op_modmul(97), ir::op_modadd(97)},
      {ir::op_first(), ir::op_max()},        {ir::op_fmul(), ir::op_fadd()},
  };
  for (const auto& [ot, op] : pairs) {
    const auto sr2 = make_op_sr2(ot, op);
    ASSERT_TRUE(sr2->has_packed()) << sr2->name();
    check_binary(sr2->name(), sr2->packed(), *sr2, kPairs, ++seed);
  }
}

TEST(PackedKernelsInPlace, BalancedOperators) {
  std::uint64_t seed = 200;
  for (const auto& base : {ir::op_add(), ir::op_max(), ir::op_fadd()}) {
    const ir::BalancedOp sr = make_op_sr(base);
    check_binary(sr.name, sr.packed_combine, sr.combine, kPairs, ++seed);
    check_unary(sr.name + " unit", sr.packed_unit, sr.unit_case, kPairs, ++seed);

    const ir::BalancedOp2 ss = make_op_ss(base);
    check_unary(ss.name + " degrade", ss.packed_degrade, ss.degrade, kQuads, ++seed);
    check_unary(ss.name + " strip", ss.packed_strip, ss.strip, kQuads, ++seed);
    for (const auto& [a, b] : operand_pairs(kQuads, ++seed)) {
      const std::string what = ss.name + " m=" + std::to_string(a.size());
      const auto side = [&](bool upper) {
        return boxed_outcome([&] {
          Block out(a.size());
          for (std::size_t j = 0; j < a.size(); ++j) {
            auto [lo, hi] = ss.combine2(a[j], b[j]);
            out[j] = upper ? hi : lo;
          }
          return out;
        });
      };
      const PackedBlock pa = *PackedBlock::pack(a), pb = *PackedBlock::pack(b);
      // lo into a fresh block or a, hi into a fresh block or b.
      for (const bool lo_in_a : {false, true})
        for (const bool hi_in_b : {false, true}) {
          const std::string how = what + (lo_in_a ? " lo in a" : " lo fresh") +
                                  (hi_in_b ? ", hi in b" : ", hi fresh");
          std::optional<std::pair<PackedBlock, PackedBlock>> got;
          try {
            PackedBlock x = pa, y = pb;
            const auto& fn = ss.packed_combine2;
            if (lo_in_a && hi_in_b) got = fn(std::move(x), std::move(y));
            if (lo_in_a && !hi_in_b) got = fn(std::move(x), pb);
            if (!lo_in_a && hi_in_b) got = fn(pa, std::move(y));
            if (!lo_in_a && !hi_in_b) got = fn(pa, pb);
          } catch (const std::exception&) {
          }
          expect_outcome(side(false), [&] {
            if (!got) throw Error("threw");
            return got->first;
          }, how + ": lo");
          expect_outcome(side(true), [&] {
            if (!got) throw Error("threw");
            return got->second;
          }, how + ": hi");
        }
    }
  }
}

TEST(PackedKernelsInPlace, ComcastDigitLoops) {
  std::uint64_t seed = 300;
  std::vector<std::pair<ir::ElemIdxFn, std::vector<Elem>>> fns = {
      {make_op_comp_bs(ir::op_add()), kScalars},
      {make_op_comp_bs(ir::op_fmul()), kScalars},
      {make_op_comp_bs(ir::op_first()), kScalars},
      {make_op_comp_bs(ir::op_mat2()), kQuads},
      {make_op_comp_bss2(ir::op_mul(), ir::op_add()), kScalars},
      {make_op_comp_bss2(ir::op_fmul(), ir::op_fadd()), kScalars},
      {make_op_comp_bss(ir::op_add()), kScalars},
      {make_op_comp_bss(ir::op_max()), kScalars},
  };
  for (const auto& [f, kinds] : fns) {
    ASSERT_TRUE(static_cast<bool>(f.packed_fn)) << f.name;
    for (int k = 0; k < 10; ++k)
      check_unary(f.name + " k=" + std::to_string(k),
                  [&f, k](PackedBlock b) { return f.packed_fn(k, std::move(b)); },
                  [&f, k](const Value& v) { return f(k, v); }, kinds, ++seed);
  }
}

TEST(PackedKernelsInPlace, LocalStepsAndTupleBuilders) {
  std::uint64_t seed = 400;
  std::vector<std::pair<ir::ElemFn, std::vector<Elem>>> fns = {
      {make_op_br(ir::op_add()), kScalars},
      {make_op_br(ir::op_fmul()), kScalars},
      {make_op_bsr2(ir::op_mul(), ir::op_add()), kPairs},
      {make_op_bsr2(ir::op_fmul(), ir::op_fadd()), kPairs},
      {make_op_bsr2(ir::op_first(), ir::op_min()), kPairs},
      {make_op_bsr(ir::op_add()), kPairs},
      {make_op_bsr(ir::op_max()), kPairs},
      {ir::fn_pair(), kScalars},
      {ir::fn_triple(), kScalars},
      {ir::fn_quadruple(), kScalars},
      {ir::fn_proj1(), kPairs},
      {ir::fn_proj1(), kQuads},
  };
  for (const auto& [f, kinds] : fns) {
    ASSERT_TRUE(static_cast<bool>(f.packed_fn)) << f.name;
    check_unary(f.name, f.packed_fn, f.fn, kinds, ++seed);
  }
}

}  // namespace
}  // namespace colop::rules
