// The simulator: machine primitives, the round primitives against the
// per-message loops they replace, schedule makespans vs the paper's closed
// forms (Eqs 15-17) at powers of two, and consistency between
// exec::run_on_simnet and the analytic model::program_time.

#include <gtest/gtest.h>

#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/ir.h"
#include "colop/model/cost.h"
#include "colop/obs/profile.h"
#include "colop/rules/derived_ops.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"
#include "colop/support/rng.h"

namespace colop::simnet {
namespace {

constexpr NetParams kNet{.ts = 37, .tw = 3};

TEST(SimMachine, ComputeAdvancesOneClock) {
  SimMachine m(4, kNet);
  m.compute(2, 10);
  EXPECT_DOUBLE_EQ(m.clock(2), 10);
  EXPECT_DOUBLE_EQ(m.clock(0), 0);
  EXPECT_DOUBLE_EQ(m.makespan(), 10);
}

TEST(SimMachine, SendChargesSenderRecvWaits) {
  SimMachine m(2, kNet);
  m.send(0, 1, 5);  // ts + 5*tw = 37 + 15 = 52
  EXPECT_DOUBLE_EQ(m.clock(0), 52);
  EXPECT_DOUBLE_EQ(m.clock(1), 0);  // not yet received
  m.recv(1, 0);
  EXPECT_DOUBLE_EQ(m.clock(1), 52);
  EXPECT_EQ(m.messages(), 1u);
  EXPECT_DOUBLE_EQ(m.words_sent(), 5);
}

TEST(SimMachine, RecvAfterLocalWorkTakesMax) {
  SimMachine m(2, kNet);
  m.compute(1, 1000);  // receiver is busy past the arrival
  m.send(0, 1, 1);
  m.recv(1, 0);
  EXPECT_DOUBLE_EQ(m.clock(1), 1000);
}

TEST(SimMachine, ExchangeSynchronizesPartners) {
  SimMachine m(2, kNet);
  m.compute(0, 100);
  m.exchange(0, 1, 2);  // start at max(100,0)=100, +37+6
  EXPECT_DOUBLE_EQ(m.clock(0), 143);
  EXPECT_DOUBLE_EQ(m.clock(1), 143);
  EXPECT_EQ(m.messages(), 2u);
}

TEST(SimMachine, FifoChannelsAndMissingMessageThrows) {
  SimMachine m(2, kNet);
  m.send(0, 1, 1);
  m.send(0, 1, 2);
  m.recv(1, 0);
  m.recv(1, 0);
  EXPECT_THROW(m.recv(1, 0), Error);
}

TEST(SimMachine, FifoPerChannelAcrossInterleavedSenders) {
  SimMachine m(3, kNet);
  m.send(0, 2, 1);    // arrives 37 + 3 = 40
  m.send(1, 2, 100);  // arrives 37 + 300 = 337
  m.send(0, 2, 2);    // arrives 40 + 37 + 6 = 83
  m.recv(2, 0);
  EXPECT_EQ(m.clock(2), 40);
  m.recv(2, 0);  // passes rank 1's message, still queued
  EXPECT_EQ(m.clock(2), 83);
  m.recv(2, 1);
  EXPECT_EQ(m.clock(2), 337);
  EXPECT_THROW(m.recv(2, 1), Error);
}

TEST(SimMachine, ResetClearsState) {
  SimMachine m(2, kNet);
  m.send(0, 1, 1);
  m.reset();
  EXPECT_DOUBLE_EQ(m.makespan(), 0);
  EXPECT_EQ(m.messages(), 0u);
  EXPECT_THROW(m.recv(1, 0), Error);  // the in-flight message is gone too
}

// --- round primitives vs the per-message loops they replace ---------------

// Drive one machine through butterfly rounds, combine sweeps and range
// sweeps at every mask, either with the round primitives or with the
// per-message loops they stand for.
void play_rounds(SimMachine& mach, double m, bool rounds) {
  const int p = mach.size();
  const auto by_pairs = [&](int mask, double words) {
    for (int r = 0; r < p; ++r) {
      const int partner = r ^ mask;
      if (partner > r && partner < p) mach.exchange(r, partner, words);
    }
  };
  const auto by_ranks = [&](int mask, double lo, double hi) {
    for (int r = 0; r < p; ++r) {
      const int partner = r ^ mask;
      if (partner < p) mach.compute(r, partner < r ? hi : lo);
    }
  };
  const auto range = [&](int first, int last, double ops) {
    if (rounds)
      mach.compute_range(first, last, ops);
    else
      for (int r = first; r < last; ++r) mach.compute(r, ops);
  };
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rounds) {
      mach.exchange_xor(mask, m);
      mach.compute_xor(mask, m, m * 2);
    } else {
      by_pairs(mask, m);
      by_ranks(mask, m, m * 2);
    }
    range(0, p, m * 0.75);
  }
  range(p / 3, p - p / 4, m);
  if (rounds)
    mach.compute_all(0);  // zero-length sweep: still one event per rank
  else
    for (int r = 0; r < p; ++r) mach.compute(r, 0);
}

/// Both machines get the same random clock skew.
void skew(SimMachine& a, SimMachine& b, Rng& rng) {
  for (int r = 0; r < a.size(); ++r) {
    const double ops = static_cast<double>(rng.uniform(0, 5000)) + rng.uniform01();
    a.compute(r, ops);
    b.compute(r, ops);
  }
}

::testing::AssertionResult same_state(const SimMachine& a,
                                      const SimMachine& b) {
  for (int r = 0; r < a.size(); ++r)
    if (a.clock(r) != b.clock(r))
      return ::testing::AssertionFailure()
             << "clock " << r << ": " << a.clock(r) << " vs " << b.clock(r);
  if (a.makespan() != b.makespan())
    return ::testing::AssertionFailure() << "makespan";
  if (a.messages() != b.messages())
    return ::testing::AssertionFailure() << "messages";
  if (a.words_sent() != b.words_sent())
    return ::testing::AssertionFailure()
           << "words " << a.words_sent() << " vs " << b.words_sent();
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_ops(const std::vector<SimOp>& a,
                                    const std::vector<SimOp>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " ops";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SimOp& x = a[i];
    const SimOp& y = b[i];
    if (x.rank != y.rank || x.kind != y.kind || x.peer != y.peer ||
        x.stage != y.stage || x.start != y.start || x.end != y.end ||
        x.words != y.words)
      return ::testing::AssertionFailure()
             << "op " << i << " differs (" << kind_name(x.kind) << " rank "
             << x.rank << ")";
  }
  return ::testing::AssertionSuccess();
}

std::vector<int> equivalence_sizes() {
  std::vector<int> ps;
  for (int p = 1; p <= 70; ++p) ps.push_back(p);
  ps.push_back(4096);
  return ps;
}

// Integral and fractional block sizes, run back to back on one machine so
// the word total also turns fractional and back; 3e15 pushes the total
// past 2^53, where only the per-pair sum is exact.
constexpr double kBlockSizes[] = {7, 2.5, 1.0 / 3, 1024, 3e15};

TEST(SimRounds, PrimitivesEqualPerMessageLoopsExactly) {
  Rng rng(0x20D5);
  for (const Topology topo :
       {Topology::fully_connected, Topology::hypercube, Topology::mesh2d}) {
    const NetParams net{.ts = 37, .tw = 3, .topology = topo, .th = 5};
    for (const int p : equivalence_sizes()) {
      SimMachine rounds(p, net), pairs(p, net);
      skew(rounds, pairs, rng);
      for (const double m : kBlockSizes) {
        play_rounds(rounds, m, true);
        play_rounds(pairs, m, false);
        ASSERT_TRUE(same_state(rounds, pairs))
            << "p=" << p << " m=" << m << " topology "
            << static_cast<int>(topo);
      }
    }
  }
}

TEST(SimRounds, TracedPrimitivesEmitThePerMessageEventStream) {
  Rng rng(0x7EACE);
  for (const Topology topo :
       {Topology::fully_connected, Topology::hypercube, Topology::mesh2d}) {
    const NetParams net{.ts = 37, .tw = 3, .topology = topo, .th = 5};
    for (const int p : equivalence_sizes()) {
      if (p == 4096 && topo != Topology::fully_connected) continue;
      SimMachine rounds(p, net), pairs(p, net);
      std::vector<SimOp> rounds_ops, pairs_ops;
      rounds.set_trace(&rounds_ops);
      pairs.set_trace(&pairs_ops);
      rounds.set_stage(3);
      pairs.set_stage(3);
      skew(rounds, pairs, rng);
      for (const double m : {7.0, 2.5}) {
        play_rounds(rounds, m, true);
        play_rounds(pairs, m, false);
      }
      ASSERT_TRUE(same_state(rounds, pairs)) << "p=" << p;
      ASSERT_TRUE(same_ops(rounds_ops, pairs_ops))
          << "p=" << p << " topology " << static_cast<int>(topo);
    }
  }
}

TEST(SimRounds, PrimitivesRejectBadArguments) {
  SimMachine m(8, kNet);
  EXPECT_THROW(m.exchange_xor(0, 1), Error);
  EXPECT_THROW(m.exchange_xor(3, 1), Error);  // not a power of two
  EXPECT_THROW(m.exchange_xor(8, 1), Error);  // no partner below p
  EXPECT_THROW(m.compute_xor(16, 1, 2), Error);
  EXPECT_THROW(m.compute_range(-1, 4, 1), Error);
  EXPECT_THROW(m.compute_range(5, 4, 1), Error);
  EXPECT_THROW(m.compute_range(0, 9, 1), Error);
  EXPECT_EQ(m.makespan(), 0);
  EXPECT_EQ(m.messages(), 0u);
}

// --- schedules vs closed forms at powers of two ---------------------------

class SimPow2P : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Pow2, SimPow2P, ::testing::Values(2, 4, 8, 16, 32, 64),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(SimPow2P, BcastMatchesEq15) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  for (bool butterfly : {false, true}) {
    SimMachine mach(p, kNet);
    if (butterfly)
      bcast_butterfly(mach, m, 1);
    else
      bcast_binomial(mach, m, 1);
    EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * kNet.tw))
        << (butterfly ? "butterfly" : "binomial");
  }
}

TEST_P(SimPow2P, ReduceMatchesEq16) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine butterfly(p, kNet);
  allreduce_butterfly(butterfly, m, 1, 1);
  EXPECT_DOUBLE_EQ(butterfly.makespan(), lg * (kNet.ts + m * (kNet.tw + 1)));

  SimMachine binomial(p, kNet);
  reduce_binomial(binomial, m, 1, 1);
  EXPECT_DOUBLE_EQ(binomial.makespan(), lg * (kNet.ts + m * (kNet.tw + 1)));
}

TEST_P(SimPow2P, ScanMatchesEq17) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine mach(p, kNet);
  scan_butterfly(mach, m, 1, 1);
  EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * (kNet.tw + 2)));
}

TEST_P(SimPow2P, BalancedCollectivesMatchTheirModelRows) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  // reduce_balanced with op_sr: 2 words, 4 ops -> log p (ts + m(2tw + 4)).
  SimMachine rb(p, kNet);
  reduce_balanced(rb, m, 2, 4);
  EXPECT_DOUBLE_EQ(rb.makespan(), lg * (kNet.ts + m * (2 * kNet.tw + 4)));
  // scan_balanced with op_ss: 3 words, 8 ops -> log p (ts + m(3tw + 8)).
  SimMachine sb(p, kNet);
  scan_balanced(sb, m, 3, 8);
  EXPECT_DOUBLE_EQ(sb.makespan(), lg * (kNet.ts + m * (3 * kNet.tw + 8)));
}

TEST_P(SimPow2P, ComcastRepeatMatchesBsComcastAfterRow) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine mach(p, kNet);
  comcast_repeat(mach, m, 1, 2);
  EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * (kNet.tw + 2)));
}

TEST(SimSchedules, NonPowerOfTwoStillCompletes) {
  for (int p : {3, 5, 6, 7, 11, 24, 63}) {
    SimMachine mach(p, kNet);
    bcast_binomial(mach, 4, 1);
    allreduce_butterfly(mach, 4, 1, 1);
    scan_butterfly(mach, 4, 1, 1);
    reduce_balanced(mach, 4, 2, 4);
    scan_balanced(mach, 4, 3, 8);
    comcast_repeat(mach, 4, 1, 2);
    comcast_costopt(mach, 4, 2, 2, 1);
    EXPECT_GT(mach.makespan(), 0) << "p=" << p;
  }
}

TEST(SimSchedules, CostoptSendsMoreWordsThanRepeat) {
  // Section 3.4: the cost-optimal comcast ships the auxiliary tuples.
  const int p = 64;
  const double m = 1000;
  SimMachine rep(p, kNet), opt(p, kNet);
  // Binomial bcast for the words comparison: the butterfly variant charges
  // full-size exchanges in both directions, which would mask the effect.
  comcast_repeat(rep, m, 1, 2, /*butterfly_bcast=*/false);
  comcast_costopt(opt, m, 2, 2, 1);
  EXPECT_GT(opt.words_sent(), rep.words_sent());
  // ...and for large blocks it is slower (the paper's measurement).
  EXPECT_GT(opt.makespan(), rep.makespan());
}

// --- executor consistency ---------------------------------------------------

TEST(SimExecutor, MatchesAnalyticModelForPow2Programs) {
  using ir::Program;
  Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  for (int p : {2, 8, 64}) {
    const model::Machine mach{.p = p, .m = 50, .ts = 80, .tw = 2};
    const auto sim = exec::run_on_simnet(prog, mach);
    EXPECT_DOUBLE_EQ(sim.time, model::program_time(prog, mach)) << "p=" << p;
  }
}

TEST(SimExecutor, MatchesModelForRewrittenPrograms) {
  using ir::Program;
  Program lhs;
  lhs.scan(ir::op_mul()).scan(ir::op_add());
  const Program rhs = rules::rule_ss2_scan()->match(lhs, 0)->apply(lhs);
  for (int p : {4, 16, 64}) {
    const model::Machine mach{.p = p, .m = 30, .ts = 200, .tw = 1};
    EXPECT_DOUBLE_EQ(exec::run_on_simnet(lhs, mach).time,
                     model::program_time(lhs, mach));
    EXPECT_DOUBLE_EQ(exec::run_on_simnet(rhs, mach).time,
                     model::program_time(rhs, mach));
  }
}

TEST(SimExecutor, LocalRuleEliminatesAllTraffic) {
  using ir::Program;
  Program lhs;
  lhs.bcast().scan(ir::op_mul()).reduce(ir::op_add());
  const Program rhs = rules::rule_bsr2_local()->match(lhs, 0)->apply(lhs);
  const model::Machine mach{.p = 32, .m = 10, .ts = 100, .tw = 2};
  EXPECT_GT(exec::run_on_simnet(lhs, mach).messages, 0u);
  EXPECT_EQ(exec::run_on_simnet(rhs, mach).messages, 0u);
}

ir::BinOpPtr random_op(Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return ir::op_add();
    case 1: return ir::op_max();
    case 2: return ir::op_mul();
    default: return ir::op_first();  // zero ops: zero-length combine steps
  }
}

ir::Program random_program(Rng& rng, int p) {
  ir::Program prog;
  const int n = static_cast<int>(rng.uniform(1, 5));
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform(0, 7)) {
      case 0: prog.map(ir::fn_pair()); break;
      case 1: prog.map(ir::fn_id()); break;
      case 2: prog.scan(random_op(rng)); break;
      case 3: prog.reduce(random_op(rng)); break;
      case 4: prog.allreduce(random_op(rng)); break;
      case 5: prog.map_indexed(rules::make_op_comp_bs(ir::op_add())); break;
      case 6: prog.bcast(static_cast<int>(rng.uniform(0, p - 1))); break;
      default: prog.bcast(); break;
    }
  }
  return prog;
}

TEST(SimExecutor, UntracedMakespanEqualsProfiledMakespan) {
  // The untraced run takes the bulk round updates, the profiler's traced
  // run the per-message path: same makespan, on sources and on greedy
  // winners (which bring in the balanced collectives).
  Rng rng(0xB0B);
  for (int trial = 0; trial < 48; ++trial) {
    const int p = trial % 2 == 0
                      ? 1 << rng.uniform(0, 10)
                      : static_cast<int>(rng.uniform(1, 1024));
    const double m = trial % 3 == 0 ? 2.5 : static_cast<double>(1 << rng.uniform(0, 10));
    const model::Machine mach{
        .p = p, .m = m, .ts = static_cast<double>(rng.uniform(1, 1600)), .tw = 2};
    const ir::Program source = random_program(rng, p);
    const ir::Program winner = rules::Optimizer(mach).optimize(source).program;
    for (const ir::Program* prog : {&source, &winner}) {
      EXPECT_EQ(exec::run_on_simnet(*prog, mach).time,
                obs::profile_program(*prog, mach).makespan)
          << prog->show() << " p=" << p << " m=" << m;
    }
  }
}

TEST(SimSchedules, ScheduleChoiceChangesTrafficNotPhases) {
  SimMachine butterfly(16, {.ts = 100, .tw = 2}), binomial(16, {.ts = 100, .tw = 2});
  bcast_butterfly(butterfly, 10, 1);
  bcast_binomial(binomial, 10, 1);
  EXPECT_DOUBLE_EQ(butterfly.makespan(), binomial.makespan());  // log p phases
  EXPECT_GT(butterfly.messages(), binomial.messages());  // pairwise exchanges cost
}

TEST(SimSchedules, BinomialTreesSendPMinusOneMessages) {
  const double m = 12;
  for (int p = 1; p <= 70; ++p) {
    SimMachine bcast(p, kNet), reduce(p, kNet);
    bcast_binomial(bcast, m, 1, p / 2);
    reduce_binomial(reduce, m, 1, 1);
    const auto tree = static_cast<std::uint64_t>(p - 1);
    EXPECT_EQ(bcast.messages(), tree) << "p=" << p;
    EXPECT_DOUBLE_EQ(bcast.words_sent(), static_cast<double>(tree) * m) << "p=" << p;
    EXPECT_EQ(reduce.messages(), tree) << "p=" << p;
    EXPECT_DOUBLE_EQ(reduce.words_sent(), static_cast<double>(tree) * m) << "p=" << p;
  }
}

TEST(SimSchedules, VdgBeatsButterflyForHugeBlocks) {
  // bcast ; allreduce(+) with the van de Geijn schedules against the
  // butterflies the stages run: fewer words win for huge blocks...
  const NetParams net{.ts = 100, .tw = 2};
  auto butterflies = [&](double m) {
    SimMachine mach(64, net);
    bcast_butterfly(mach, m, 1);
    allreduce_butterfly(mach, m, 1, 1);
    return mach.makespan();
  };
  auto vdg = [&](double m) {
    SimMachine mach(64, net);
    bcast_vdg(mach, m, 1);
    allreduce_vdg(mach, m, 1, 1);
    return mach.makespan();
  };
  EXPECT_LT(vdg(32000), butterflies(32000));
  // ...and lose for tiny blocks (more start-ups).
  EXPECT_GT(vdg(1), butterflies(1));
}

TEST(SimSchedules, TracedRunsMatchUntracedRuns) {
  // Tracing sends every message down the per-message path; the untraced
  // run takes the bulk round updates.  Both must agree on the schedules
  // only the ablations run, too.  A non-2^k vdg allreduce is an alltoall
  // of p^2 messages: its traced runs stop at p = 64.
  struct Case {
    const char* name;
    int max_p;
    void (*run)(SimMachine&, int p);
  };
  const Case cases[] = {
      {"bcast_binomial", 70,
       [](SimMachine& mach, int p) { bcast_binomial(mach, 2.5, 1, p / 3); }},
      {"reduce_binomial", 70,
       [](SimMachine& mach, int) { reduce_binomial(mach, 2.5, 2, 3); }},
      {"bcast_vdg", 64, [](SimMachine& mach, int) { bcast_vdg(mach, 2.5, 1); }},
      {"allreduce_vdg", 64,
       [](SimMachine& mach, int) { allreduce_vdg(mach, 2.5, 1, 2); }},
  };
  for (const Case& c : cases)
    for (int p = 1; p <= c.max_p; ++p) {
      SimMachine plain(p, kNet), traced(p, kNet);
      std::vector<SimOp> ops;
      traced.set_trace(&ops);
      c.run(plain, p);
      c.run(traced, p);
      EXPECT_EQ(traced.makespan(), plain.makespan()) << c.name << " p=" << p;
      EXPECT_EQ(traced.messages(), plain.messages()) << c.name << " p=" << p;
      EXPECT_EQ(traced.words_sent(), plain.words_sent()) << c.name << " p=" << p;
      EXPECT_EQ(ops.empty(), p == 1) << c.name << " p=" << p;
    }
}

}  // namespace
}  // namespace colop::simnet
