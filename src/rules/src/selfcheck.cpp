#include "colop/rules/selfcheck.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "colop/exec/thread_executor.h"
#include "colop/support/error.h"

namespace colop::rules {
namespace {

ir::Dist random_dist(int p, std::size_t block, const ElemGen& gen, Rng& rng) {
  ir::Dist d(static_cast<std::size_t>(p));
  for (auto& b : d) {
    b.resize(block);
    for (auto& v : b) v = gen(rng);
  }
  return d;
}

// The largest root rank a stage of `prog` names.
int max_root(const ir::Program& prog) {
  int root = 0;
  for (const auto& st : prog.stages()) root = std::max(root, st->root_rank());
  return root;
}

}  // namespace

SelfCheckResult selfcheck_match(const ir::Program& lhs, const RuleMatch& match,
                                const ElemGen& gen, int max_p,
                                int trials_per_p, std::size_t block,
                                std::uint64_t seed, double rel_tol) {
  const ir::Program rhs = match.apply(lhs);
  const int first_p = std::max(max_root(lhs), max_root(rhs)) + 1;
  COLOP_REQUIRE(first_p <= max_p,
                "selfcheck: a stage names root " + std::to_string(first_p - 1) +
                    ", so p must exceed it, but max_p = " +
                    std::to_string(max_p));
  Rng rng(seed);
  for (int p = first_p; p <= max_p; ++p) {
    for (int t = 0; t < trials_per_p; ++t) {
      const ir::Dist in = random_dist(p, block, gen, rng);
      // The sequential reference semantics alone cannot expose a falsely
      // declared ASSOCIATIVITY (it folds left-to-right); the parallel
      // butterfly/tree schedules of the thread runtime can.  Compare the
      // reference LHS against both evaluations of both sides.  The ranks
      // run as fibers: the same collectives, without an OS context switch
      // per blocking receive.
      const ir::Dist expect = lhs.eval_reference(in);
      constexpr auto plane = ir::DataPlane::Auto;
      constexpr auto fibers = mpsim::Ranks::fibers;
      const struct {
        const char* label;
        ir::Dist out;
      } candidates[] = {
          {"rhs (reference)", rhs.eval_reference(in)},
          {"rhs (threads)", exec::run_on_threads(rhs, in, plane, fibers)},
          {"lhs (threads)", exec::run_on_threads(lhs, in, plane, fibers)},
      };
      for (const auto& c : candidates) {
        const bool same =
            match.equivalence == Equivalence::full
                ? ir::approx_equal(expect, c.out, rel_tol)
                : ir::approx_equal(expect[static_cast<std::size_t>(match.root)],
                                   c.out[static_cast<std::size_t>(match.root)],
                                   rel_tol);
        if (!same) {
          std::ostringstream os;
          os << match.rule_name << " is UNSOUND here (check the declared "
             << "operator properties)\n  lhs = " << lhs.show()
             << "\n  rhs = " << rhs.show() << "\n  p = " << p
             << "\n  input  = " << ir::to_string(in)
             << "\n  expect = " << ir::to_string(expect) << "\n  "
             << c.label << " = " << ir::to_string(c.out);
          return {false, os.str(), first_p};
        }
      }
    }
  }
  return {true, {}, first_p};
}

SelfCheckResult selfcheck_program(const ir::Program& prog,
                                  const std::vector<RulePtr>& rules,
                                  const ElemGen& gen, int max_p,
                                  int trials_per_p, std::size_t block,
                                  std::uint64_t seed, double rel_tol) {
  for (const auto& rule : rules) {
    for (const auto& m : rule->matches(prog)) {
      auto r = selfcheck_match(prog, m, gen, max_p, trials_per_p, block, seed,
                               rel_tol);
      if (!r) return r;
    }
  }
  return {};
}

}  // namespace colop::rules
