#include "colop/ir/binop.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "colop/ir/packed_kernels.h"

namespace colop::ir {
namespace {

// Arithmetic lifted over int/real Values (ints stay ints, reals stay reals;
// mixing widens to real).
template <typename IntFn, typename RealFn>
Value numeric(const Value& a, const Value& b, IntFn fi, RealFn fr) {
  if (a.is_int() && b.is_int()) return Value(fi(a.as_int(), b.as_int()));
  return Value(fr(a.number(), b.number()));
}

__extension__ using i128 = __int128;

// r mod m in [0, m) for m >= 1.  Same value as ((r % m) + m) % m, but
// q + m cannot overflow: it is only formed when q is negative.
template <typename Int>
std::int64_t floor_mod(Int r, std::int64_t m) {
  const Int q = r % m;
  return static_cast<std::int64_t>(q < 0 ? q + m : q);
}

// (x + y) mod m and (x * y) mod m, exact for every int64 operand: only a
// sum or product that overflows int64 is redone in 128 bits.
std::int64_t add_mod(std::int64_t x, std::int64_t y, std::int64_t m) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(x, y, &r)) [[unlikely]]
    return floor_mod(static_cast<i128>(x) + y, m);
  return floor_mod(r, m);
}

std::int64_t mul_mod(std::int64_t x, std::int64_t y, std::int64_t m) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(x, y, &r)) [[unlikely]]
    return floor_mod(static_cast<i128>(x) * y, m);
  return floor_mod(r, m);
}

}  // namespace

BinOpPtr op_add() {
  static const BinOpPtr op = BinOp::make({
      .name = "+",
      .fn =
          [](const Value& a, const Value& b) {
            return numeric(
                a, b, [](auto x, auto y) { return x + y; },
                [](double x, double y) { return x + y; });
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first", "max", "min"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{0}),
      .packed_fn = pk::bin_numeric(
          "+", [](std::int64_t x, std::int64_t y) { return x + y; },
          [](double x, double y) { return x + y; }),
  });
  return op;
}

BinOpPtr op_mul() {
  static const BinOpPtr op = BinOp::make({
      .name = "*",
      .fn =
          [](const Value& a, const Value& b) {
            return numeric(
                a, b, [](auto x, auto y) { return x * y; },
                [](double x, double y) { return x * y; });
          },
      .associative = true,
      .commutative = true,
      // "gcd": a * gcd(b, c) == gcd(a*b, a*c) on the naturals, gcd's
      // canonical carrier (gcd(ka, kb) = k * gcd(a, b) for k >= 0).
      .distributes_over = {"+", "f+", "first", "gcd"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{1}),
      .packed_fn = pk::bin_numeric(
          "*", [](std::int64_t x, std::int64_t y) { return x * y; },
          [](double x, double y) { return x * y; }),
  });
  return op;
}

BinOpPtr op_max() {
  static const BinOpPtr op = BinOp::make({
      .name = "max",
      .fn =
          [](const Value& a, const Value& b) {
            return numeric(
                a, b, [](auto x, auto y) { return std::max(x, y); },
                [](double x, double y) { return std::max(x, y); });
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first", "max", "min"},
      .ops_cost = 1.0,
      .packed_fn = pk::bin_numeric(
          "max", [](std::int64_t x, std::int64_t y) { return std::max(x, y); },
          [](double x, double y) { return std::max(x, y); }),
  });
  return op;
}

BinOpPtr op_min() {
  static const BinOpPtr op = BinOp::make({
      .name = "min",
      .fn =
          [](const Value& a, const Value& b) {
            return numeric(
                a, b, [](auto x, auto y) { return std::min(x, y); },
                [](double x, double y) { return std::min(x, y); });
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first", "max", "min"},
      .ops_cost = 1.0,
      .packed_fn = pk::bin_numeric(
          "min", [](std::int64_t x, std::int64_t y) { return std::min(x, y); },
          [](double x, double y) { return std::min(x, y); }),
  });
  return op;
}

BinOpPtr op_band() {
  static const BinOpPtr op = BinOp::make({
      .name = "band",
      .fn = [](const Value& a, const Value& b) { return Value(a.as_int() & b.as_int()); },
      .associative = true,
      .commutative = true,
      .distributes_over = {"band", "bor", "first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{-1}),
      .packed_fn = pk::bin_int(
          "band", [](std::int64_t x, std::int64_t y) { return x & y; }),
  });
  return op;
}

BinOpPtr op_bor() {
  static const BinOpPtr op = BinOp::make({
      .name = "bor",
      .fn = [](const Value& a, const Value& b) { return Value(a.as_int() | b.as_int()); },
      .associative = true,
      .commutative = true,
      .distributes_over = {"band", "bor", "first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{0}),
      .packed_fn = pk::bin_int(
          "bor", [](std::int64_t x, std::int64_t y) { return x | y; }),
  });
  return op;
}

BinOpPtr op_gcd() {
  static const BinOpPtr op = BinOp::make({
      .name = "gcd",
      .fn =
          [](const Value& a, const Value& b) {
            return Value(std::gcd(a.as_int(), b.as_int()));
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first", "gcd"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{0}),
      .packed_fn = pk::bin_int(
          "gcd", [](std::int64_t x, std::int64_t y) { return std::gcd(x, y); }),
  });
  return op;
}

BinOpPtr op_modadd(std::int64_t m) {
  return BinOp::make({
      .name = "+mod" + std::to_string(m),
      .fn =
          [m](const Value& a, const Value& b) {
            return Value(add_mod(a.as_int(), b.as_int(), m));
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{0}),
      .packed_fn = pk::bin_int("+mod" + std::to_string(m),
                               [m](std::int64_t x, std::int64_t y) {
                                 return add_mod(x, y, m);
                               }),
  });
}

BinOpPtr op_modmul(std::int64_t m) {
  return BinOp::make({
      .name = "*mod" + std::to_string(m),
      .fn =
          [m](const Value& a, const Value& b) {
            return Value(mul_mod(a.as_int(), b.as_int(), m));
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"+mod" + std::to_string(m), "first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{1}),
      .packed_fn = pk::bin_int("*mod" + std::to_string(m),
                               [m](std::int64_t x, std::int64_t y) {
                                 return mul_mod(x, y, m);
                               }),
  });
}

BinOpPtr op_fadd() {
  static const BinOpPtr op = BinOp::make({
      .name = "f+",
      .fn = [](const Value& a, const Value& b) { return Value(a.number() + b.number()); },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first", "max", "min"},
      .ops_cost = 1.0,
      .unit = Value(0.0),
      .packed_fn =
          pk::bin_real("f+", [](double x, double y) { return x + y; }),
  });
  return op;
}

BinOpPtr op_fmul() {
  static const BinOpPtr op = BinOp::make({
      .name = "f*",
      .fn = [](const Value& a, const Value& b) { return Value(a.number() * b.number()); },
      .associative = true,
      .commutative = true,
      .distributes_over = {"+", "f+", "first"},
      .ops_cost = 1.0,
      .unit = Value(1.0),
      .packed_fn =
          pk::bin_real("f*", [](double x, double y) { return x * y; }),
  });
  return op;
}

BinOpPtr op_mat2() {
  static const BinOpPtr op = BinOp::make({
      .name = "mat2",
      .fn =
          [](const Value& a, const Value& b) {
            const auto& x = a.as_tuple();
            const auto& y = b.as_tuple();
            COLOP_REQUIRE(x.size() == 4 && y.size() == 4, "mat2: need 4-tuples");
            // Wrap mod 2^64 (unsigned arithmetic) rather than overflow,
            // bit-equal to the packed kernel.
            const auto e = [](const Tuple& t, int i) {
              return std::bit_cast<std::uint64_t>(
                  t[static_cast<std::size_t>(i)].as_int());
            };
            const auto v = [](std::uint64_t w) {
              return Value(std::bit_cast<std::int64_t>(w));
            };
            return Value(Tuple{
                v(e(x, 0) * e(y, 0) + e(x, 1) * e(y, 2)),
                v(e(x, 0) * e(y, 1) + e(x, 1) * e(y, 3)),
                v(e(x, 2) * e(y, 0) + e(x, 3) * e(y, 2)),
                v(e(x, 2) * e(y, 1) + e(x, 3) * e(y, 3)),
            });
          },
      .associative = true,
      .commutative = false,
      .distributes_over = {"first"},
      .ops_cost = 12.0,
      .unit = Value(Tuple{Value(1), Value(0), Value(0), Value(1)}),
      .packed_fn = pk::bin_mat2(),
  });
  return op;
}

BinOpPtr op_first() {
  static const BinOpPtr op = BinOp::make({
      .name = "first",
      .fn = [](const Value& a, const Value&) { return a; },
      .associative = true,
      .commutative = false,
      // Distributes over every IDEMPOTENT operator: the left law
      // a first (b # c) == (a first b) # (a first c) collapses to
      // a == a # a.  (gcd is idempotent on its canonical carrier, the
      // nonnegative integers — see docs/VERIFY.md on value domains.)
      .distributes_over = {"band", "bor", "first", "gcd", "max", "min"},
      .ops_cost = 0.0,
      .packed_fn = pk::bin_first(),
  });
  return op;
}

// --- property checkers ---------------------------------------------------

bool check_distributes_over(const BinOp& times, const BinOp& plus,
                            const std::function<Value(Rng&)>& gen, int trials,
                            std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    const Value a = gen(rng), b = gen(rng), c = gen(rng);
    const Value lhs_l = times(a, plus(b, c));
    const Value rhs_l = plus(times(a, b), times(a, c));
    if (!(lhs_l == rhs_l)) return false;
    const Value lhs_r = times(plus(b, c), a);
    const Value rhs_r = plus(times(b, a), times(c, a));
    if (!(lhs_r == rhs_r)) return false;
  }
  return true;
}

bool check_associative(const BinOp& op, const std::function<Value(Rng&)>& gen,
                       int trials, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    const Value a = gen(rng), b = gen(rng), c = gen(rng);
    if (!(op(op(a, b), c) == op(a, op(b, c)))) return false;
  }
  return true;
}

bool check_commutative(const BinOp& op, const std::function<Value(Rng&)>& gen,
                       int trials, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < trials; ++i) {
    const Value a = gen(rng), b = gen(rng);
    if (!(op(a, b) == op(b, a))) return false;
  }
  return true;
}

std::function<Value(Rng&)> small_int_gen(std::int64_t lo, std::int64_t hi) {
  return [lo, hi](Rng& rng) { return Value(rng.uniform(lo, hi)); };
}

}  // namespace colop::ir
