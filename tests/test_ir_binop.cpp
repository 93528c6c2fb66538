// Base operators: every DECLARED algebraic property is validated by the
// randomized checkers, and the checkers themselves detect non-properties.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "colop/ir/binop.h"
#include "colop/ir/packed.h"
#include "colop/support/rng.h"

namespace colop::ir {
namespace {

TEST(BinOp, AddAndMulBasics) {
  EXPECT_EQ((*op_add())(Value(2), Value(3)), Value(5));
  EXPECT_EQ((*op_mul())(Value(2), Value(3)), Value(6));
  EXPECT_EQ((*op_add())(Value(2.5), Value(3)).as_real(), 5.5);  // widens
}

TEST(BinOp, UndefinedPropagates) {
  EXPECT_TRUE((*op_add())(Value::undefined(), Value(3)).is_undefined());
  EXPECT_TRUE((*op_mul())(Value(3), Value::undefined()).is_undefined());
}

TEST(BinOp, UnitsAreIdentities) {
  for (const auto& op : {op_add(), op_mul(), op_band(), op_bor(), op_gcd(),
                         op_modadd(97), op_modmul(97), op_mat2()}) {
    ASSERT_TRUE(op->unit().has_value()) << op->name();
    const Value u = *op->unit();
    Value x = op->name() == "mat2"
                  ? Value::tuple_of({Value(3), Value(1), Value(4), Value(1)})
                  : Value(std::int64_t{42});
    EXPECT_EQ((*op)(u, x), x) << op->name();
    EXPECT_EQ((*op)(x, u), x) << op->name();
  }
}

// Every declared property must hold under randomized checking.
TEST(BinOpProperties, DeclaredAssociativityHolds) {
  auto gen = small_int_gen(-30, 30);
  for (const auto& op : {op_add(), op_mul(), op_max(), op_min(), op_band(),
                         op_bor(), op_gcd(), op_modadd(11), op_modmul(11)}) {
    EXPECT_TRUE(check_associative(*op, gen)) << op->name();
  }
}

TEST(BinOpProperties, DeclaredCommutativityHolds) {
  auto gen = small_int_gen(-30, 30);
  for (const auto& op : {op_add(), op_mul(), op_max(), op_min(), op_band(),
                         op_bor(), op_gcd(), op_modadd(11), op_modmul(11)}) {
    EXPECT_TRUE(op->commutative()) << op->name();
    EXPECT_TRUE(check_commutative(*op, gen)) << op->name();
  }
}

TEST(BinOpProperties, DeclaredDistributivityHolds) {
  auto gen = small_int_gen(-20, 20);
  const std::vector<std::pair<BinOpPtr, BinOpPtr>> declared = {
      {op_mul(), op_add()},   {op_add(), op_max()},  {op_add(), op_min()},
      {op_max(), op_min()},   {op_min(), op_max()},  {op_max(), op_max()},
      {op_min(), op_min()},   {op_band(), op_bor()}, {op_bor(), op_band()},
      {op_band(), op_band()}, {op_bor(), op_bor()},  {op_gcd(), op_gcd()},
      {op_modmul(13), op_modadd(13)},
  };
  for (const auto& [times, plus] : declared) {
    EXPECT_TRUE(times->distributes_over(*plus))
        << times->name() << " over " << plus->name();
    EXPECT_TRUE(check_distributes_over(*times, *plus, gen))
        << times->name() << " over " << plus->name();
  }
}

TEST(BinOpProperties, CheckersDetectNonProperties) {
  auto gen = small_int_gen(-20, 20);
  // + does NOT distribute over * :  a + b*c != (a+b)*(a+c)
  EXPECT_FALSE(check_distributes_over(*op_add(), *op_mul(), gen));
  // max does NOT distribute over + : max(a, b+c) != max(a,b) + max(a,c)
  EXPECT_FALSE(check_distributes_over(*op_max(), *op_add(), gen));
  // a non-commutative op is flagged
  EXPECT_FALSE(check_commutative(*op_first(), gen));
}

TEST(BinOpProperties, Mat2IsAssociativeButNotCommutative) {
  auto gen = [](Rng& rng) {
    Tuple t;
    for (int i = 0; i < 4; ++i) t.emplace_back(rng.uniform(-5, 5));
    return Value(std::move(t));
  };
  EXPECT_TRUE(check_associative(*op_mat2(), gen));
  EXPECT_FALSE(check_commutative(*op_mat2(), gen));
  EXPECT_FALSE(op_mat2()->commutative());
}

TEST(BinOp, ModularOpsStayInRange) {
  auto ma = op_modadd(7);
  auto mm = op_modmul(7);
  EXPECT_EQ((*ma)(Value(-3), Value(-5)).as_int(), ((-8 % 7) + 7) % 7);
  for (int a = -10; a <= 10; ++a)
    for (int b = -10; b <= 10; ++b) {
      const auto s = (*ma)(Value(a), Value(b)).as_int();
      const auto p = (*mm)(Value(a), Value(b)).as_int();
      EXPECT_GE(s, 0);
      EXPECT_LT(s, 7);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, 7);
    }
}

// Moduli near INT64_MAX: sums and products leave int64 long before the
// reduction, so both kernels are checked against 128-bit arithmetic.
TEST(BinOp, ModularOpsAreExactNearInt64Max) {
  __extension__ using i128 = __int128;
  const auto reference = [](i128 r, std::int64_t m) {
    const i128 q = r % m;
    return static_cast<std::int64_t>(q < 0 ? q + m : q);
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::vector<std::int64_t> xs{kMin, kMin + 1, -kMax / 2, -1, 0, 1, 2,
                                     3037000499, 3037000500, kMax / 2,
                                     kMax - 1, kMax};
  for (const std::int64_t m : {kMax, kMax - 1, kMax - 24, std::int64_t{1} << 62,
                               std::int64_t{4294967311}}) {
    const auto ma = op_modadd(m);
    const auto mm = op_modmul(m);
    Block a, b;
    for (const std::int64_t x : xs)
      for (const std::int64_t y : xs) {
        a.emplace_back(x);
        b.emplace_back(y);
      }
    const auto pa = PackedBlock::pack(a);
    const auto pb = PackedBlock::pack(b);
    ASSERT_TRUE(pa && pb);
    const Block sums = ma->packed()(*pa, *pb).unpack();
    const Block prods = mm->packed()(*pa, *pb).unpack();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int64_t x = a[i].as_int(), y = b[i].as_int();
      SCOPED_TRACE(std::to_string(x) + " op " + std::to_string(y) + " mod " +
                   std::to_string(m));
      const std::int64_t sum = reference(static_cast<i128>(x) + y, m);
      const std::int64_t prod = reference(static_cast<i128>(x) * y, m);
      EXPECT_EQ((*ma)(a[i], b[i]).as_int(), sum);
      EXPECT_EQ((*mm)(a[i], b[i]).as_int(), prod);
      EXPECT_EQ(sums[i].as_int(), sum);
      EXPECT_EQ(prods[i].as_int(), prod);
    }
  }
}

// Operands in [0, m) take the fast paths: one conditional subtract for a
// sum, a reciprocal computed once per operator for a product when m <= 2^32.
// Every pair in [-2m, 3m) for small m (in range, negative and out of
// range), every pair of boundary operands for moduli around 2^31 and 2^32,
// and random in-range pairs at those moduli, on both planes, must equal
// exact 128-bit reduction.
TEST(BinOp, ModularFastPathsMatchExactReduction) {
  __extension__ using i128 = __int128;
  const auto reference = [](i128 r, std::int64_t m) {
    const i128 q = r % m;
    return static_cast<std::int64_t>(q < 0 ? q + m : q);
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const auto check = [&](std::int64_t m, const Block& a, const Block& b) {
    const auto ma = op_modadd(m);
    const auto mm = op_modmul(m);
    const PackedBlock pa = *PackedBlock::pack(a), pb = *PackedBlock::pack(b);
    const Block sums = ma->packed()(pa, pb).unpack();
    const Block prods = mm->packed()(pa, pb).unpack();
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int64_t x = a[i].as_int(), y = b[i].as_int();
      const std::int64_t sum = reference(static_cast<i128>(x) + y, m);
      const std::int64_t prod = reference(static_cast<i128>(x) * y, m);
      ASSERT_EQ((*ma)(a[i], b[i]).as_int(), sum) << x << " + " << y << " mod " << m;
      ASSERT_EQ((*mm)(a[i], b[i]).as_int(), prod) << x << " * " << y << " mod " << m;
      ASSERT_EQ(sums[i].as_int(), sum) << x << " + " << y << " mod " << m;
      ASSERT_EQ(prods[i].as_int(), prod) << x << " * " << y << " mod " << m;
    }
  };
  for (std::int64_t m = 1; m <= 40; ++m) {
    Block a, b;
    for (std::int64_t x = -2 * m; x < 3 * m; ++x)
      for (std::int64_t y = -2 * m; y < 3 * m; ++y) {
        a.emplace_back(x);
        b.emplace_back(y);
      }
    check(m, a, b);
  }
  constexpr std::int64_t k32 = std::int64_t{1} << 32;
  Rng rng(61);
  for (const std::int64_t m : {std::int64_t{65521}, std::int64_t{1000000007},
                               (std::int64_t{1} << 31) - 1, std::int64_t{1} << 31,
                               k32 - 5, k32 - 1, k32, k32 + 1, k32 + 15}) {
    const std::vector<std::int64_t> xs{
        0,  1,  2,      m / 2, m - 2,    m - 1, m,        m + 1, 2 * m - 1,
        -1, -m, -m - 1, kMax,  kMax - 1, kMin,  kMin + 1};
    Block a, b;
    for (const std::int64_t x : xs)
      for (const std::int64_t y : xs) {
        a.emplace_back(x);
        b.emplace_back(y);
      }
    for (int i = 0; i < 4096; ++i) {
      a.emplace_back(rng.uniform(0, m - 1));
      b.emplace_back(rng.uniform(0, m - 1));
    }
    check(m, a, b);
  }
}

TEST(BinOp, NamesAreStable) {
  EXPECT_EQ(op_add()->name(), "+");
  EXPECT_EQ(op_modadd(5)->name(), "+mod5");
  EXPECT_EQ(op_modmul(5)->name(), "*mod5");
}

}  // namespace
}  // namespace colop::ir
