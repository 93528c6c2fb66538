#pragma once
// Rewrite self-checking — a safety net for user-DECLARED operator
// properties.
//
// Rule conditions are checked against declarations (as in the paper and in
// MPI): if a user registers an operator claiming commutativity or
// distributivity it does not have, a rule can fire unsoundly.  selfcheck_*
// replays a rewrite on random inputs across many processor counts
// (powers of two and not) and compares the distributed outputs under the
// match's own equivalence level, returning a concrete counterexample on
// failure.  Intended for test suites and for vetting rewrites of programs
// with user-defined operators before deployment.

#include <functional>
#include <string>

#include "colop/ir/program.h"
#include "colop/rules/rules.h"
#include "colop/support/rng.h"

namespace colop::rules {

struct SelfCheckResult {
  bool ok = true;
  std::string counterexample;  ///< empty when ok
  int first_p = 1;             ///< the sweep ran p = first_p..max_p

  explicit operator bool() const { return ok; }
};

/// Element generator for random inputs (e.g. ir::small_int_gen()).
using ElemGen = std::function<ir::Value(Rng&)>;

/// Verify one match: LHS vs RHS on random distributed inputs with block
/// size `block`, for every p in [first_p, max_p], where first_p is one
/// more than the largest root a stage of either program names (1 when all
/// roots are 0): a smaller group has no such rank.  Throws colop::Error
/// when that leaves no p to check.
/// `rel_tol` > 0 switches to approximate comparison (floating-point
/// operators: the parallel schedules legitimately re-associate).
[[nodiscard]] SelfCheckResult selfcheck_match(
    const ir::Program& lhs, const RuleMatch& match, const ElemGen& gen,
    int max_p = 17, int trials_per_p = 3, std::size_t block = 2,
    std::uint64_t seed = 1, double rel_tol = 0);

/// Verify every match of every given rule anywhere in the program.
[[nodiscard]] SelfCheckResult selfcheck_program(
    const ir::Program& prog, const std::vector<RulePtr>& rules,
    const ElemGen& gen, int max_p = 17, int trials_per_p = 3,
    std::size_t block = 2, std::uint64_t seed = 1, double rel_tol = 0);

}  // namespace colop::rules
