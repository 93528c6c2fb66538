// Randomized end-to-end property: for randomly generated programs over
// random operators, the optimizer in STRICT mode (full equivalence only,
// root-only rewrites admitted solely when masked by a later bcast) must
// preserve the complete distributed output — on the reference semantics
// and on the thread runtime.

#include <gtest/gtest.h>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/support/rng.h"
#include "colop/verify/certify.h"

namespace colop::rules {
namespace {

using ir::BinOpPtr;
using ir::Dist;
using ir::Program;
using ir::Value;

BinOpPtr random_op(Rng& rng) {
  switch (rng.uniform(0, 6)) {
    case 0: return ir::op_modadd(97);
    case 1: return ir::op_modmul(97);
    case 2: return ir::op_max();
    case 3: return ir::op_min();
    case 4: return ir::op_band();
    case 5: return ir::op_bor();
    default: return ir::op_gcd();
  }
}

Program random_program(Rng& rng) {
  Program p;
  const int n = static_cast<int>(rng.uniform(2, 6));
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform(0, 4)) {
      case 0:
        p.map(ir::fn_id());
        break;
      case 1:
        p.scan(random_op(rng));
        break;
      case 2:
        p.reduce(random_op(rng));
        break;
      case 3:
        p.allreduce(random_op(rng));
        break;
      default:
        p.bcast();
        break;
    }
  }
  return p;
}

Dist random_input(int p, Rng& rng) {
  Dist d(static_cast<std::size_t>(p));
  for (auto& b : d) {
    b.reserve(2);
    for (int j = 0; j < 2; ++j) b.emplace_back(rng.uniform(0, 96));
  }
  return d;
}

class FuzzP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(ProcessorCounts, FuzzP,
                         ::testing::Values(2, 3, 5, 6, 8, 13, 16),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(FuzzP, StrictGreedyPreservesFullSemantics) {
  const int p = GetParam();
  Rng rng(0xF00D + static_cast<std::uint64_t>(p));
  OptimizerOptions strict;
  strict.policy = EquivalencePolicy::strict;
  const model::Machine mach{.p = p, .m = 2, .ts = 5000, .tw = 2};
  const Optimizer opt(mach, all_rules(), strict);

  int rewrites_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Program prog = random_program(rng);
    const auto res = opt.optimize(prog);
    rewrites_seen += static_cast<int>(res.log.size());
    const Dist in = random_input(p, rng);
    const Dist expect = prog.eval_reference(in);
    EXPECT_EQ(expect, res.program.eval_reference(in))
        << prog.show() << "\n  -> " << res.program.show();
  }
  // The generator must actually exercise the rules, not vacuously pass.
  EXPECT_GT(rewrites_seen, 10);
}

TEST_P(FuzzP, StrictExhaustivePreservesFullSemantics) {
  const int p = GetParam();
  Rng rng(0xBEEF + static_cast<std::uint64_t>(p));
  OptimizerOptions strict;
  strict.policy = EquivalencePolicy::strict;
  strict.max_search_nodes = 2000;
  const model::Machine mach{.p = p, .m = 2, .ts = 5000, .tw = 2};
  const Optimizer opt(mach, all_rules(), strict);

  for (int trial = 0; trial < 15; ++trial) {
    const Program prog = random_program(rng);
    const auto res = opt.optimize_exhaustive(prog);
    const Dist in = random_input(p, rng);
    EXPECT_EQ(prog.eval_reference(in), res.program.eval_reference(in))
        << prog.show() << "\n  -> " << res.program.show();
  }
}

TEST_P(FuzzP, StrictGreedyPreservesSemanticsOnThreads) {
  const int p = GetParam();
  Rng rng(0xCAFE + static_cast<std::uint64_t>(p));
  OptimizerOptions strict;
  strict.policy = EquivalencePolicy::strict;
  const model::Machine mach{.p = p, .m = 2, .ts = 5000, .tw = 2};
  const Optimizer opt(mach, all_rules(), strict);

  for (int trial = 0; trial < 10; ++trial) {
    const Program prog = random_program(rng);
    const auto res = opt.optimize(prog);
    const Dist in = random_input(p, rng);
    EXPECT_EQ(exec::run_on_threads(prog, in),
              exec::run_on_threads(res.program, in))
        << prog.show() << "\n  -> " << res.program.show();
  }
}

TEST_P(FuzzP, SearchDominatesGreedyAndWinnersCertify) {
  // The search layer's dominance contract on random programs: a narrow
  // beam never does worse than greedy, exhaustive never does worse than
  // the beam, and every searched winner's rewrite sequence re-discharges
  // its certificates (V304 not-evaluable warnings are allowed; V301-V303
  // failures are not).
  const int p = GetParam();
  Rng rng(0x5EA7C4 + static_cast<std::uint64_t>(p));
  OptimizerOptions strict;
  strict.policy = EquivalencePolicy::strict;
  const model::Machine mach{.p = p, .m = 2, .ts = 5000, .tw = 2};

  SearchOptions beam_opts;
  beam_opts.strategy = SearchStrategy::beam;
  beam_opts.beam_width = 4;
  beam_opts.base = strict;
  const SearchOptimizer beam(mach, all_rules(), beam_opts);

  SearchOptions ex_opts;
  ex_opts.strategy = SearchStrategy::exhaustive;
  ex_opts.beam_width = 0;
  ex_opts.base = strict;
  ex_opts.base.max_search_nodes = 50000;
  const SearchOptimizer exhaustive(mach, all_rules(), ex_opts);

  verify::CertifyOptions cheap;
  cheap.max_p = 5;
  cheap.trials_per_p = 1;
  cheap.property_trials = 20;

  for (int trial = 0; trial < 10; ++trial) {
    const Program prog = random_program(rng);
    const auto b = beam.search(prog);
    const auto e = exhaustive.search(prog);
    EXPECT_LE(b.best.cost_final, b.greedy_cost) << prog.show();
    EXPECT_LE(e.best.cost_final, b.best.cost_final) << prog.show();

    const auto cert = verify::certify_search(prog, b, cheap);
    EXPECT_FALSE(cert.fell_back_to_source) << prog.show();
    const auto& winner = cert.search.ranked[cert.search.winner_index];
    EXPECT_EQ(winner.certified, 1)
        << prog.show() << "\n  -> " << winner.program.show();
  }
}

TEST_P(FuzzP, DefaultModePreservesRootSemantics) {
  // With root-only rewrites allowed, at least the root block must be
  // preserved when the program's last collective deposits the result at
  // the root (reduce-terminated programs).
  const int p = GetParam();
  Rng rng(0xD1CE + static_cast<std::uint64_t>(p));
  const model::Machine mach{.p = p, .m = 2, .ts = 5000, .tw = 2};
  const Optimizer opt(mach);

  for (int trial = 0; trial < 40; ++trial) {
    Program prog = random_program(rng);
    prog.reduce(ir::op_modadd(97));  // deterministic root-located result
    const auto res = opt.optimize(prog);
    const Dist in = random_input(p, rng);
    EXPECT_EQ(prog.eval_reference(in)[0], res.program.eval_reference(in)[0])
        << prog.show() << "\n  -> " << res.program.show();
  }
}

}  // namespace
}  // namespace colop::rules
