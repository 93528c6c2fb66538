#include "colop/exec/sim_executor.h"

#include <algorithm>

#include "colop/ir/overlap.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"

namespace colop::exec {
namespace {

using Kind = ir::Stage::Kind;

// Simulate one stage's schedule on the virtual clocks.  Split-phase stages
// run their blocking twin here; run_on_simnet's window loop then discounts
// eligible windows by raising interior local work into the istart's span.
void sim_stage(const ir::Stage& stage, simnet::SimMachine& mach, double m) {
  const int p = mach.size();
  switch (stage.kind()) {
    case Kind::Map: {
      const auto& s = static_cast<const ir::MapStage&>(stage);
      simnet::local_map(mach, m, s.fn.ops_cost);
      break;
    }
    case Kind::MapIndexed: {
      const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
      // Ranks with equally many binary digits do equal work: sweep the
      // classes {0}, {1}, [2, 4), [4, 8), ... in rank order.
      for (int first = 0; first < p;) {
        const int last = first == 0 ? 1 : first + std::min(first, p - first);
        const double levels =
            static_cast<double>(binary_digits(static_cast<std::uint64_t>(first)));
        const double ops = s.fn.ops_cost + s.fn.ops_per_logp * levels;
        if (ops > 0) mach.compute_range(first, last, m * ops);
        first = last;
      }
      break;
    }
    case Kind::Scan: {
      const auto& s = static_cast<const ir::ScanStage&>(stage);
      simnet::scan_butterfly(mach, m, s.words, s.op->ops_cost());
      break;
    }
    case Kind::Reduce:
    case Kind::IStartReduce: {
      const auto& s = static_cast<const ir::ReduceStage&>(stage);
      simnet::allreduce_butterfly(mach, m, s.words, s.op->ops_cost());
      break;
    }
    case Kind::AllReduce:
    case Kind::IStartAllReduce: {
      const auto& s = static_cast<const ir::AllReduceStage&>(stage);
      simnet::allreduce_butterfly(mach, m, s.words, s.op->ops_cost());
      break;
    }
    case Kind::Bcast:
    case Kind::IStartBcast: {
      const auto& s = static_cast<const ir::BcastStage&>(stage);
      simnet::bcast_butterfly(mach, m, s.words, s.root);
      break;
    }
    case Kind::ScanBalanced: {
      const auto& s = static_cast<const ir::ScanBalancedStage&>(stage);
      simnet::scan_balanced(mach, m, s.op2.words, s.op2.ops_cost);
      break;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      simnet::reduce_balanced(mach, m, s.op.words, s.op.ops_cost);
      break;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const ir::AllReduceBalancedStage&>(stage);
      simnet::allreduce_balanced(mach, m, s.op.words, s.op.ops_cost);
      break;
    }
    case Kind::Iter: {
      const auto& s = static_cast<const ir::IterStage&>(stage);
      // 2^k processors: exactly log2(p) doubling steps.  Otherwise the
      // generalized square-and-multiply costs at most 2 applications per
      // binary digit of p.
      const double levels =
          is_pow2(static_cast<std::uint64_t>(p))
              ? static_cast<double>(log2_floor(static_cast<std::uint64_t>(p)))
              : 2.0 * static_cast<double>(
                          binary_digits(static_cast<std::uint64_t>(p)));
      simnet::local_iter(mach, m, s.step.ops_cost, levels);
      break;
    }
    case Kind::Wait:
      break;  // completion: no traffic, no compute of its own
  }
}

// Per-rank op count of one interior (elementwise-local) window stage.
double local_ops(const ir::Stage& stage, int rank) {
  if (stage.kind() == Kind::Map)
    return static_cast<const ir::MapStage&>(stage).fn.ops_cost;
  const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
  const double levels =
      static_cast<double>(binary_digits(static_cast<std::uint64_t>(rank)));
  return s.fn.ops_cost + s.fn.ops_per_logp * levels;
}

}  // namespace

void run_on_simnet(const ir::Program& prog, simnet::SimMachine& mach, double m,
                   std::vector<StageSpan>* spans) {
  const int p = mach.size();
  const auto windows = ir::overlap_windows(prog);
  auto w = windows.begin();
  std::size_t i = 0;
  std::vector<double> issue(static_cast<std::size_t>(p));
  while (i < prog.size()) {
    const bool window = w != windows.end() && i == w->istart;
    const std::size_t last = window ? w->wait : i;
    if (window || spans != nullptr)
      for (int r = 0; r < p; ++r)
        issue[static_cast<std::size_t>(r)] = mach.clock(r);
    mach.set_stage(static_cast<int>(i));
    sim_stage(prog.stage(i), mach, m);
    if (window) {
      // Overlap window: after the collective, raise every rank's clock to
      // at least issue-time + its interior local work.  The window's span
      // per rank becomes max(comm, local) — the pipelined executor's
      // behaviour — instead of the synchronous sum.
      for (int r = 0; r < p; ++r) {
        double ops = 0;
        for (std::size_t j = i + 1; j < last; ++j)
          ops += local_ops(prog.stage(j), r);
        mach.advance_to(r, issue[static_cast<std::size_t>(r)] + m * ops);
      }
      ++w;
    }
    if (spans != nullptr) {
      StageSpan span;
      if (window) {
        ir::Program piece;
        for (std::size_t j = i; j <= last; ++j) piece.push(prog.stages()[j]);
        span.label = "overlap{" + piece.show() + "}";
      } else {
        span.label = prog.stage(i).show();
      }
      span.start = issue;
      span.end.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r)
        span.end[static_cast<std::size_t>(r)] = mach.clock(r);
      spans->push_back(std::move(span));
    }
    i = last + 1;
  }
}

SimRunResult run_on_simnet(const ir::Program& prog, const model::Machine& mach) {
  simnet::SimMachine sim(mach.p, simnet::NetParams{mach.ts, mach.tw});
  run_on_simnet(prog, sim, mach.m);
  return {sim.makespan(), sim.messages(), sim.words_sent()};
}

}  // namespace colop::exec
