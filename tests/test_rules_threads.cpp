// Rule equivalences ON THE WIRE: original and rewritten programs are
// executed on the mpsim thread runtime (real message passing, real
// schedules) and must produce identical distributed results.  Also checks
// the raison d'être of the rules: the rewritten program sends FEWER
// messages.

#include <gtest/gtest.h>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/rules/rules.h"
#include "colop/support/rng.h"

namespace colop::rules {
namespace {

using ir::Dist;
using ir::Program;
using ir::Value;

Dist random_dist(int p, std::size_t block, std::int64_t lo, std::int64_t hi,
                 std::uint64_t seed) {
  Rng rng(seed);
  Dist d(static_cast<std::size_t>(p));
  for (auto& b : d) {
    b.reserve(block);
    for (std::size_t j = 0; j < block; ++j) b.emplace_back(rng.uniform(lo, hi));
  }
  return d;
}

struct Case {
  RulePtr rule;
  Program lhs;
  std::int64_t lo, hi;
};

std::vector<Case> thread_cases() {
  std::vector<Case> cases;
  {
    Program p;
    p.scan(ir::op_mul()).allreduce(ir::op_add());
    cases.push_back({rule_sr2_reduction(), p, -1, 1});
  }
  {
    Program p;
    p.scan(ir::op_modmul(97)).reduce(ir::op_modadd(97));
    cases.push_back({rule_sr2_reduction(), p, 0, 96});
  }
  {
    Program p;
    p.scan(ir::op_add()).reduce(ir::op_add());
    cases.push_back({rule_sr_reduction(), p, -40, 40});
  }
  {
    Program p;
    p.scan(ir::op_add()).allreduce(ir::op_add());
    cases.push_back({rule_sr_reduction(), p, -40, 40});
  }
  {
    Program p;
    p.scan(ir::op_add()).scan(ir::op_max());
    cases.push_back({rule_ss2_scan(), p, -40, 40});
  }
  {
    Program p;
    p.scan(ir::op_add()).scan(ir::op_add());
    cases.push_back({rule_ss_scan(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().scan(ir::op_add());
    cases.push_back({rule_bs_comcast(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().scan(ir::op_modmul(97)).scan(ir::op_modadd(97));
    cases.push_back({rule_bss2_comcast(), p, 0, 96});
  }
  {
    Program p;
    p.bcast().scan(ir::op_add()).scan(ir::op_add());
    cases.push_back({rule_bss_comcast(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().reduce(ir::op_add());
    cases.push_back({rule_br_local(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().scan(ir::op_modmul(97)).reduce(ir::op_modadd(97));
    cases.push_back({rule_bsr2_local(), p, 0, 96});
  }
  {
    Program p;
    p.bcast().scan(ir::op_add()).reduce(ir::op_add());
    cases.push_back({rule_bsr_local(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().allreduce(ir::op_add());
    cases.push_back({rule_cr_alllocal(), p, -40, 40});
  }
  {
    Program p;
    p.bcast().scan(ir::op_add()).allreduce(ir::op_add());
    cases.push_back({rule_bsr_alllocal(), p, -40, 40});
  }
  return cases;
}

class RuleThreadsP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, RuleThreadsP,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 11, 16),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(RuleThreadsP, RewrittenProgramsAgreeOnTheWire) {
  const int p = GetParam();
  std::uint64_t seed = 900;
  for (const auto& c : thread_cases()) {
    auto m = c.rule->match(c.lhs, 0);
    ASSERT_TRUE(m.has_value()) << c.rule->name() << ": " << c.lhs.show();
    const Program rhs = m->apply(c.lhs);
    const Dist in = random_dist(p, 2, c.lo, c.hi, ++seed);
    const Dist out_l = exec::run_on_threads(c.lhs, in);
    const Dist out_r = exec::run_on_threads(rhs, in);
    if (m->equivalence == Equivalence::full) {
      EXPECT_EQ(out_l, out_r) << c.rule->name() << " p=" << p
                              << "\n  lhs=" << c.lhs.show()
                              << "\n  rhs=" << rhs.show();
    } else {
      const auto root = static_cast<std::size_t>(m->root);
      EXPECT_EQ(out_l[root], out_r[root])
          << c.rule->name() << " p=" << p << " (root-only)";
    }
  }
}

TEST_P(RuleThreadsP, ThreadExecutionMatchesReferenceSemantics) {
  const int p = GetParam();
  std::uint64_t seed = 1700;
  for (const auto& c : thread_cases()) {
    const Dist in = random_dist(p, 2, c.lo, c.hi, ++seed);
    EXPECT_EQ(exec::run_on_threads(c.lhs, in), c.lhs.eval_reference(in))
        << c.lhs.show() << " p=" << p;
    const Program rhs = c.rule->match(c.lhs, 0)->apply(c.lhs);
    EXPECT_EQ(exec::run_on_threads(rhs, in), rhs.eval_reference(in))
        << rhs.show() << " p=" << p;
  }
}

TEST_P(RuleThreadsP, RewritesReduceMessageCount) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "no messages at p=1";
  for (const auto& c : thread_cases()) {
    const Program rhs = c.rule->match(c.lhs, 0)->apply(c.lhs);
    const Dist in = random_dist(p, 2, c.lo, c.hi, 4242);
    const auto before = exec::run_on_threads_instrumented(c.lhs, in).traffic;
    const auto after = exec::run_on_threads_instrumented(rhs, in).traffic;
    EXPECT_LT(after.messages, before.messages)
        << c.rule->name() << " p=" << p << ": " << before.messages << " -> "
        << after.messages;
  }
}

}  // namespace
}  // namespace colop::rules
