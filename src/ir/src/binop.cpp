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
__extension__ using u128 = unsigned __int128;

// r mod m in [0, m) for m >= 1.  Same value as ((r % m) + m) % m, but
// q + m cannot overflow: it is only formed when q is negative.
template <typename Int>
std::int64_t floor_mod(Int r, std::int64_t m) {
  const Int q = r % m;
  return static_cast<std::int64_t>(q < 0 ? q + m : q);
}

// (x + y) mod m and (x * y) mod m for one modulus m >= 1, exact for every
// int64 operand; both planes call these.  Operands already in [0, m) --
// every value a modular program computes -- skip the 64-bit division: a
// sum takes one conditional subtract, and for m <= 2^32 a product (below
// 2^64) takes its remainder through a reciprocal computed once (Lemire,
// Kaser and Kurz, "Faster Remainder by Direct Computation", 2019: exact
// for every 64-bit dividend at a 128-bit reciprocal).  Anything else is
// reduced exactly, redoing in 128 bits only a sum or product that
// overflows int64.
class Modulus {
 public:
  explicit Modulus(std::int64_t m)
      : m_(m),
        um_(static_cast<std::uint64_t>(m)),
        small_(m <= (std::int64_t{1} << 32)),
        reciprocal_(m >= 1 ? ~u128{0} / um_ + 1 : 0) {
    COLOP_REQUIRE(m >= 1, "modular operator: the modulus must be at least 1");
  }

  [[nodiscard]] std::int64_t add(std::int64_t x, std::int64_t y) const {
    const auto ux = static_cast<std::uint64_t>(x), uy = static_cast<std::uint64_t>(y);
    if (ux < um_ && uy < um_) [[likely]] {
      const std::uint64_t s = ux + uy;  // below 2m <= 2^64 - 2
      return static_cast<std::int64_t>(s >= um_ ? s - um_ : s);
    }
    std::int64_t r = 0;
    if (__builtin_add_overflow(x, y, &r)) [[unlikely]]
      return floor_mod(static_cast<i128>(x) + y, m_);
    return floor_mod(r, m_);
  }

  [[nodiscard]] std::int64_t mul(std::int64_t x, std::int64_t y) const {
    const auto ux = static_cast<std::uint64_t>(x), uy = static_cast<std::uint64_t>(y);
    if (small_ && ux < um_ && uy < um_) [[likely]] {
      // (reciprocal * n mod 2^128) * m >> 128, in 64-bit halves.
      const u128 low = reciprocal_ * (ux * uy);
      const u128 bottom =
          (static_cast<u128>(static_cast<std::uint64_t>(low)) * um_) >> 64;
      return static_cast<std::int64_t>((bottom + (low >> 64) * um_) >> 64);
    }
    std::int64_t r = 0;
    if (__builtin_mul_overflow(x, y, &r)) [[unlikely]]
      return floor_mod(static_cast<i128>(x) * y, m_);
    return floor_mod(r, m_);
  }

 private:
  std::int64_t m_;
  std::uint64_t um_;
  bool small_;
  u128 reciprocal_;  ///< ceil(2^128 / m), wrapped to 0 for m = 1
};

}  // namespace

BinOp::BinOp(Spec spec) : spec_(std::move(spec)) {
  if (!spec_.packed_fn && spec_.packed_lane)
    spec_.packed_fn = pk::zip_lanes(spec_.name, spec_.packed_lane);
}

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
      .packed_lane = pk::lane_numeric(
          [](std::int64_t x, std::int64_t y) { return x + y; },
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
      .packed_lane = pk::lane_numeric(
          [](std::int64_t x, std::int64_t y) { return x * y; },
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
      .packed_lane = pk::lane_numeric(
          [](std::int64_t x, std::int64_t y) { return std::max(x, y); },
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
      .packed_lane = pk::lane_numeric(
          [](std::int64_t x, std::int64_t y) { return std::min(x, y); },
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
      .packed_lane = pk::lane_int(
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
      .packed_lane = pk::lane_int(
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
      .packed_lane = pk::lane_int(
          "gcd", [](std::int64_t x, std::int64_t y) { return std::gcd(x, y); }),
  });
  return op;
}

BinOpPtr op_modadd(std::int64_t m) {
  const Modulus mod(m);
  return BinOp::make({
      .name = "+mod" + std::to_string(m),
      .fn =
          [mod](const Value& a, const Value& b) {
            return Value(mod.add(a.as_int(), b.as_int()));
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{0}),
      .packed_lane = pk::lane_int("+mod" + std::to_string(m),
                                  [mod](std::int64_t x, std::int64_t y) {
                                    return mod.add(x, y);
                                  }),
  });
}

BinOpPtr op_modmul(std::int64_t m) {
  const Modulus mod(m);
  return BinOp::make({
      .name = "*mod" + std::to_string(m),
      .fn =
          [mod](const Value& a, const Value& b) {
            return Value(mod.mul(a.as_int(), b.as_int()));
          },
      .associative = true,
      .commutative = true,
      .distributes_over = {"+mod" + std::to_string(m), "first"},
      .ops_cost = 1.0,
      .unit = Value(std::int64_t{1}),
      .packed_lane = pk::lane_int("*mod" + std::to_string(m),
                                  [mod](std::int64_t x, std::int64_t y) {
                                    return mod.mul(x, y);
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
      .packed_lane = pk::lane_real([](double x, double y) { return x + y; }),
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
      .packed_lane = pk::lane_real([](double x, double y) { return x * y; }),
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
      .packed_lane = pk::lane_first(),
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
