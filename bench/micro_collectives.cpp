// Microbenchmarks (google-benchmark): wall-clock throughput of the mpsim
// collectives on the thread runtime, of the derived operators and of the
// simnet butterfly schedules.  On a single core the mpsim rows measure
// runtime overhead (scheduling, mailboxes), not parallel speedup — see
// DESIGN.md §2.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/binop.h"
#include "colop/ir/parse.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rules/derived_ops.h"
#include "colop/simnet/schedules.h"

namespace {

using namespace colop;
using i64 = std::int64_t;

std::vector<double> make_block(std::size_t m) {
  std::vector<double> b(m);
  std::iota(b.begin(), b.end(), 1.0);
  return b;
}

void BM_SpmdLaunch(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpsim::run_spmd(p, [](mpsim::Comm&) {});
  }
}
BENCHMARK(BM_SpmdLaunch)->Arg(2)->Arg(4)->Arg(8)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

// The launch shape rewrite certification repeats thousands of times per
// program: a 3-stage program on the thread runtime at block 2, p <= 9.
void BM_RunOnThreadsSmall(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const ir::Program prog = ir::parse_program("scan(+) ; reduce(+) ; bcast");
  ir::Dist input(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) input[static_cast<std::size_t>(r)] = {r, -r};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_on_threads(prog, input));
  }
}
BENCHMARK(BM_RunOnThreadsSmall)->Arg(2)->Arg(5)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

// The same launch with the ranks as fibers on the calling thread, the way
// rewrite certification runs it.
void BM_RunOnFibersSmall(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const ir::Program prog = ir::parse_program("scan(+) ; reduce(+) ; bcast");
  ir::Dist input(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) input[static_cast<std::size_t>(r)] = {r, -r};
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::run_on_threads(
        prog, input, ir::DataPlane::Auto, mpsim::Ranks::fibers));
  }
}
BENCHMARK(BM_RunOnFibersSmall)->Arg(2)->Arg(5)->Arg(9)
    ->Unit(benchmark::kMicrosecond);

void BM_Bcast(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto block = make_block(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      benchmark::DoNotOptimize(bcast(comm, block));
    });
  }
}
BENCHMARK(BM_Bcast)->Args({4, 64})->Args({4, 4096})->Args({8, 1024})
    ->Unit(benchmark::kMicrosecond);

void BM_Allreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto block = make_block(static_cast<std::size_t>(state.range(1)));
  auto add = [](std::vector<double> a, const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
  };
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      benchmark::DoNotOptimize(allreduce(comm, block, add));
    });
  }
}
BENCHMARK(BM_Allreduce)->Args({4, 1024})->Args({8, 1024})
    ->Unit(benchmark::kMicrosecond);

void BM_Scan(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto block = make_block(static_cast<std::size_t>(state.range(1)));
  auto add = [](std::vector<double> a, const std::vector<double>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
    return a;
  };
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      benchmark::DoNotOptimize(scan(comm, block, add));
    });
  }
}
BENCHMARK(BM_Scan)->Args({4, 1024})->Args({8, 1024})
    ->Unit(benchmark::kMicrosecond);

void BM_ScanBalancedOpSs(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto op2 = rules::make_op_ss(ir::op_add());
  ir::Block block{ir::Value(ir::Tuple{ir::Value(1), ir::Value(1), ir::Value(1),
                                      ir::Value(1)})};
  auto combine2 = [&op2](const ir::Block& a, const ir::Block& b) {
    auto [lo, hi] = op2.combine2(a[0], b[0]);
    return std::make_pair(ir::Block{lo}, ir::Block{hi});
  };
  auto degrade = [&op2](ir::Block b) { return ir::Block{op2.degrade(b[0])}; };
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      benchmark::DoNotOptimize(
          mpsim::scan_balanced(comm, block, combine2, degrade));
    });
  }
}
BENCHMARK(BM_ScanBalancedOpSs)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_OpSr2Apply(benchmark::State& state) {
  const auto op = rules::make_op_sr2(ir::op_mul(), ir::op_add());
  const ir::Value a(ir::Tuple{ir::Value(3), ir::Value(4)});
  const ir::Value b(ir::Tuple{ir::Value(5), ir::Value(6)});
  for (auto _ : state) benchmark::DoNotOptimize((*op)(a, b));
}
BENCHMARK(BM_OpSr2Apply);

void BM_PowAssoc(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const ir::Value b(std::int64_t{3});
  const auto op = ir::op_modmul(1000003);
  for (auto _ : state)
    benchmark::DoNotOptimize(rules::pow_assoc(*op, b, n));
}
BENCHMARK(BM_PowAssoc)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_RepeatBits(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  auto e = [](std::pair<i64, i64> s) {
    return std::make_pair(s.first, s.second + s.second);
  };
  auto o = [](std::pair<i64, i64> s) {
    return std::make_pair(s.first + s.second, s.second + s.second);
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(mpsim::repeat_bits(std::make_pair(i64{2}, i64{2}), k, e, o));
}
BENCHMARK(BM_RepeatBits)->Arg(7)->Arg(63)->Arg(1023);

void BM_BcastVdgVsWhole(benchmark::State& state) {
  // Wall-clock contrast of vdg vs whole-block broadcast on the runtime
  // (single core: measures per-message overhead, not bandwidth).
  const int p = static_cast<int>(state.range(0));
  const auto block = make_block(static_cast<std::size_t>(state.range(1)));
  const bool vdg = state.range(2) != 0;
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      if (vdg) {
        benchmark::DoNotOptimize(
            bcast_vdg(comm, comm.rank() == 0 ? block : std::vector<double>{}));
      } else {
        benchmark::DoNotOptimize(
            bcast(comm, comm.rank() == 0 ? block : std::vector<double>{}));
      }
    });
  }
}
BENCHMARK(BM_BcastVdgVsWhole)
    ->Args({8, 4096, 0})
    ->Args({8, 4096, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_ReduceBalanced(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  using TU = std::pair<i64, i64>;
  auto op = [](TU a, TU b) {
    const i64 uu = a.second + b.second;
    return TU{a.first + b.first + a.second, uu + uu};
  };
  auto unit = [](TU x) { return TU{x.first, x.second + x.second}; };
  for (auto _ : state) {
    mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
      benchmark::DoNotOptimize(
          mpsim::reduce_balanced(comm, TU{1, 1}, op, unit));
    });
  }
}
BENCHMARK(BM_ReduceBalanced)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_ValueTupleOps(benchmark::State& state) {
  // Type-erased Value arithmetic: the IR executor's inner loop.
  const auto op = ir::op_add();
  const ir::Value a(ir::Tuple{ir::Value(1), ir::Value(2)});
  const ir::Value b(ir::Tuple{ir::Value(3), ir::Value(4)});
  for (auto _ : state) {
    benchmark::DoNotOptimize((*op)(a.at(0), b.at(0)));
    benchmark::DoNotOptimize((*op)(a.at(1), b.at(1)));
  }
}
BENCHMARK(BM_ValueTupleOps);

// simnet at p = 2^12..2^16: one butterfly schedule on a reset machine per
// iteration, m = 1024.  Items are simulated messages, so items/s is the
// engine's messages/s.
template <class Schedule>
void simnet_rounds(benchmark::State& state, Schedule schedule) {
  simnet::SimMachine mach(static_cast<int>(state.range(0)), simnet::NetParams{});
  std::uint64_t messages = 0;
  for (auto _ : state) {
    mach.reset();
    schedule(mach);
    messages += mach.messages();
    benchmark::DoNotOptimize(mach.makespan());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
}

void BM_SimnetBcastButterfly(benchmark::State& state) {
  simnet_rounds(state, [](simnet::SimMachine& m) {
    simnet::bcast_butterfly(m, 1024, 1);
  });
}
BENCHMARK(BM_SimnetBcastButterfly)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_SimnetScanButterfly(benchmark::State& state) {
  simnet_rounds(state, [](simnet::SimMachine& m) {
    simnet::scan_butterfly(m, 1024, 1, 1);
  });
}
BENCHMARK(BM_SimnetScanButterfly)->RangeMultiplier(4)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_SimnetAllreduceButterfly(benchmark::State& state) {
  simnet_rounds(state, [](simnet::SimMachine& m) {
    simnet::allreduce_butterfly(m, 1024, 1, 1);
  });
}
BENCHMARK(BM_SimnetAllreduceButterfly)->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 16)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
