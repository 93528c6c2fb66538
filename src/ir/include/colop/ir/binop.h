#pragma once
// BinOp: a binary base operator with DECLARED algebraic properties.
//
// The paper's rules are guarded by conditions on the base operators:
// associativity (always assumed for collective operations), commutativity
// (SR-Reduction, SS-Scan, ...), and distributivity (SR2-Reduction,
// SS2-Scan, ...).  As in MPI, properties are declared by whoever registers
// the operator; a randomized property checker (check_* below) is provided
// as a debugging aid and is used heavily in the test suite.

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "colop/ir/packed.h"
#include "colop/ir/value.h"
#include "colop/support/rng.h"

namespace colop::ir {

class BinOp;
using BinOpPtr = std::shared_ptr<const BinOp>;

class BinOp {
 public:
  using Fn = std::function<Value(const Value&, const Value&)>;

  struct Spec {
    std::string name;
    Fn fn;
    bool associative = true;
    bool commutative = false;
    /// Names of operators # such that THIS op * distributes over #:
    /// a * (b # c) == (a * b) # (a * c)  and  (b # c) * a == (b*a) # (c*a).
    std::set<std::string> distributes_over;
    /// Elementary operations per application (cost-model unit).
    double ops_cost = 1.0;
    /// Identity element, if any (used by workload generators/tests).
    std::optional<Value> unit;
    /// Optional lane kernel of a scalar operator for the flat data plane
    /// (packed_kernels.h): apply() over one lane of int/real words.  The
    /// derived operators compose their formulas from these.
    PackedLaneFn packed_lane;
    /// Optional block kernel for the flat data plane: must equal apply()
    /// mapped over a whole block, undefined gating included.  Left unset
    /// with packed_lane set, it is the lane kernel over scalar blocks.
    /// Operators without either evaluate boxed.
    PackedBinFn packed_fn;
  };

  explicit BinOp(Spec spec);

  /// Apply the operator.  Undefined operands yield undefined (the paper's
  /// `_` values never carry information forward).
  [[nodiscard]] Value apply(const Value& a, const Value& b) const {
    if (a.is_undefined() || b.is_undefined()) return Value::undefined();
    return spec_.fn(a, b);
  }
  Value operator()(const Value& a, const Value& b) const { return apply(a, b); }

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] bool associative() const { return spec_.associative; }
  [[nodiscard]] bool commutative() const { return spec_.commutative; }
  [[nodiscard]] bool distributes_over(const BinOp& other) const {
    return spec_.distributes_over.contains(other.name());
  }
  /// Declared distributivity partners by name (colop::verify checks each
  /// declaration against the named partner).
  [[nodiscard]] const std::set<std::string>& distributes_over_names() const {
    return spec_.distributes_over;
  }
  [[nodiscard]] double ops_cost() const { return spec_.ops_cost; }
  [[nodiscard]] const std::optional<Value>& unit() const { return spec_.unit; }
  [[nodiscard]] bool has_packed() const { return static_cast<bool>(spec_.packed_fn); }
  [[nodiscard]] const PackedBinFn& packed() const { return spec_.packed_fn; }
  [[nodiscard]] bool has_packed_lane() const { return spec_.packed_lane != nullptr; }
  [[nodiscard]] const PackedLaneFn& packed_lane() const { return spec_.packed_lane; }

  [[nodiscard]] static BinOpPtr make(Spec spec) {
    return std::make_shared<const BinOp>(std::move(spec));
  }

 private:
  Spec spec_;
};

// --- standard operator registry ----------------------------------------
// Integer operators used throughout tests, examples and benchmarks.  The
// declared property sets are exactly what the paper's rule conditions need:
//   mul distributes over add          (SR2/SS2/BSS2/BSR2 with (*, +))
//   add distributes over max and min  (tropical semirings)
//   max and min distribute over each other (distributive lattice)
//   band/bor distribute over each other
//   modmul distributes over modadd
//   every operator distributes over `first` (both laws project to the
//     same application), and `first` distributes over every idempotent
//     operator (max, min, band, bor, gcd on the naturals, itself)
//   the int/real twins cross-distribute on the joint numeric domain
//     (* and f* over + and f+;  + and f+ over max and min)
// colop::verify (colop/verify/properties.h) keeps these declarations
// honest: the test suite re-establishes every entry by bounded-exhaustive
// plus randomized checking, and lints undeclared-but-holding properties.

[[nodiscard]] BinOpPtr op_add();     ///< +  (assoc, comm, unit 0)
[[nodiscard]] BinOpPtr op_mul();     ///< *  (assoc, comm, unit 1, distributes over +)
[[nodiscard]] BinOpPtr op_max();     ///< max (assoc, comm)
[[nodiscard]] BinOpPtr op_min();     ///< min (assoc, comm)
[[nodiscard]] BinOpPtr op_band();    ///< bitwise and (assoc, comm, unit ~0)
[[nodiscard]] BinOpPtr op_bor();     ///< bitwise or  (assoc, comm, unit 0)
[[nodiscard]] BinOpPtr op_gcd();     ///< gcd (assoc, comm, unit 0)
[[nodiscard]] BinOpPtr op_modadd(std::int64_t m);  ///< + mod m
[[nodiscard]] BinOpPtr op_modmul(std::int64_t m);  ///< * mod m (distributes over +m)
[[nodiscard]] BinOpPtr op_fadd();    ///< double +
[[nodiscard]] BinOpPtr op_fmul();    ///< double * (distributes over fadd)
/// 2x2 integer matrix product on 4-tuples: associative, NOT commutative.
[[nodiscard]] BinOpPtr op_mat2();
/// "first" projection: associative, idempotent, NOT commutative.
[[nodiscard]] BinOpPtr op_first();

// --- randomized property checkers (debugging aid / test oracle) ---------

/// Check a * (b # c) == (a*b) # (a*c) and the right-sided law on `trials`
/// random triples drawn by `gen`; returns true iff no counterexample.
[[nodiscard]] bool check_distributes_over(const BinOp& times, const BinOp& plus,
                                          const std::function<Value(Rng&)>& gen,
                                          int trials = 200,
                                          std::uint64_t seed = 1);
[[nodiscard]] bool check_associative(const BinOp& op,
                                     const std::function<Value(Rng&)>& gen,
                                     int trials = 200, std::uint64_t seed = 1);
[[nodiscard]] bool check_commutative(const BinOp& op,
                                     const std::function<Value(Rng&)>& gen,
                                     int trials = 200, std::uint64_t seed = 1);

/// Small-integer generator for the checkers.
[[nodiscard]] std::function<Value(Rng&)> small_int_gen(std::int64_t lo = -20,
                                                       std::int64_t hi = 20);

}  // namespace colop::ir
