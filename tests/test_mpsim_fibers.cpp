// Ranks as fibers: the same collectives and executor stage loop as the
// thread runtime, run on the calling thread.  Every receive names its
// source, so outputs and traffic must not depend on which way the ranks
// run; a launch that can make no progress fails at once, naming each
// blocked rank.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "colop/apps/polyeval.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/parse.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rt/flight_recorder.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

using i64 = std::int64_t;

// Associative, not commutative: a collective that combined in another
// order on fibers would show it.
std::string cat(std::string a, const std::string& b) { return a += b; }

std::string name(int r) { return "<" + std::to_string(r) + ">"; }

std::string join(const std::vector<std::string>& xs) {
  std::string out;
  for (const auto& x : xs) out += x + ",";
  return out;
}

i64 add(i64 a, i64 b) { return a + b; }

// One rank's part of every collective; the result is what the rank holds.
using Case = std::function<std::string(Comm&)>;

std::vector<std::pair<const char*, Case>> collective_cases() {
  using P = std::pair<i64, i64>;
  return {
      {"bcast binomial",
       [](Comm& c) { return bcast(c, name(c.rank()), c.size() - 1); }},
      {"bcast butterfly",
       [](Comm& c) {
         return bcast(c, name(c.rank()), c.size() / 2, BcastAlgo::butterfly);
       }},
      {"scan butterfly", [](Comm& c) { return scan(c, name(c.rank()), cat); }},
      {"scan doubling",
       [](Comm& c) { return scan(c, name(c.rank()), cat, ScanAlgo::doubling); }},
      {"reduce", [](Comm& c) { return reduce(c, name(c.rank()), cat, c.size() / 2); }},
      {"allreduce", [](Comm& c) { return allreduce(c, name(c.rank()), cat); }},
      {"exscan",
       [](Comm& c) { return exscan(c, name(c.rank()), cat).value_or("none"); }},
      {"reduce_scatter ordered",
       [](Comm& c) {
         std::vector<std::string> blocks;
         for (int d = 0; d < c.size(); ++d) blocks.push_back(name(c.rank() * 10 + d));
         return reduce_scatter(c, std::move(blocks), cat, /*commutative=*/false);
       }},
      {"reduce_scatter commutative",
       [](Comm& c) {
         std::vector<i64> blocks(static_cast<std::size_t>(c.size()), c.rank() + 1);
         return std::to_string(reduce_scatter(c, std::move(blocks), add));
       }},
      {"scatter",
       [](Comm& c) {
         std::vector<std::string> blocks;
         if (c.rank() == 0)
           for (int d = 0; d < c.size(); ++d) blocks.push_back(name(d));
         return scatter(c, std::move(blocks));
       }},
      {"gather", [](Comm& c) { return join(gather(c, name(c.rank()), c.size() - 1)); }},
      {"allgather", [](Comm& c) { return join(allgather(c, name(c.rank()))); }},
      {"alltoall",
       [](Comm& c) {
         std::vector<std::string> blocks;
         for (int d = 0; d < c.size(); ++d) blocks.push_back(name(c.rank() * 10 + d));
         return join(alltoall(c, std::move(blocks)));
       }},
      {"reduce_balanced",
       [](Comm& c) {
         return reduce_balanced(c, name(c.rank()), cat,
                                [](std::string s) { return s + "u"; });
       }},
      {"allreduce_balanced",
       [](Comm& c) {
         return allreduce_balanced(c, name(c.rank()), cat,
                                   [](std::string s) { return s + "u"; });
       }},
      {"scan_balanced",
       [](Comm& c) {
         return scan_balanced(
             c, name(c.rank()),
             [](const std::string& a, const std::string& b) {
               return std::make_pair(a, a + b);
             },
             [](std::string s) { return s + "d"; });
       }},
      {"comcast",
       [](Comm& c) {
         const i64 b = c.rank() == 0 ? 5 : -1;
         auto init = [](i64 v) { return P{v, v}; };
         auto e = [](P s) { return P{s.first, s.second + s.second}; };
         auto o = [](P s) { return P{s.first + s.second, s.second + s.second}; };
         auto fst = [](P s) { return s.first; };
         return std::to_string(comcast_naive(c, b, [](i64 v) { return v + 5; })) +
                "," + std::to_string(comcast_repeat(c, b, init, e, o, fst)) + "," +
                std::to_string(comcast_costopt(c, b, init, e, o, fst));
       }},
      {"vdg and pipelined",
       [](Comm& c) {
         std::vector<i64> block{c.rank(), 2 * c.rank(), 3, 4, 5};
         return std::to_string(bcast_vdg(c, block, c.size() - 1)[1]) + "," +
                std::to_string(bcast_pipelined(c, block, 3)[0]) + "," +
                std::to_string(allreduce_vdg(c, block, add)[1]);
       }},
      {"irecv and split",
       [](Comm& c) {
         const int p = c.size();
         c.send((c.rank() + 1) % p, name(c.rank()), 3);
         auto req = irecv<std::string>(c, (c.rank() + p - 1) % p, 3);
         const Comm half = c.split(c.rank() % 2, -c.rank());
         const std::string sub = allreduce(half, name(c.rank()), cat);
         c.barrier();
         return req.wait() + sub;
       }},
  };
}

TEST(FiberRanks, CollectivesMatchThreads) {
  for (const auto& [label, body] : collective_cases()) {
    for (int p = 1; p <= 9; ++p) {
      const auto threads = run_spmd_collect_traffic<std::string>(p, body);
      const auto fibers =
          run_spmd_collect_traffic<std::string>(p, body, Ranks::fibers);
      EXPECT_EQ(fibers.first, threads.first) << label << " p=" << p;
      EXPECT_EQ(fibers.second, threads.second) << label << " p=" << p;
    }
  }
}

TEST(FiberRanks, ProgramsMatchThreads) {
  for (int p = 1; p <= 9; ++p) {
    std::vector<double> coeffs(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < coeffs.size(); ++i)
      coeffs[i] = static_cast<double>(i + 1);
    const std::pair<const char*, ir::Program> programs[] = {
        {"polyeval1", apps::polyeval_1(coeffs)},
        {"polyeval2", apps::polyeval_2(coeffs)},
        {"polyeval3", apps::polyeval_3(coeffs)},
        {"polyeval_sr2", apps::polyeval_sr2(coeffs)},
        {"scan(*) ; reduce(+) ; bcast",
         ir::parse_program("scan(*) ; reduce(+) ; bcast")},
    };
    ir::Dist input(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      input[static_cast<std::size_t>(r)] = {ir::Value(0.5 * (r % 3 - 1)),
                                            ir::Value(1.25)};
    for (const auto& [label, prog] : programs) {
      const auto threads = exec::run_on_threads_instrumented(prog, input);
      const auto fibers = exec::run_on_threads_instrumented(
          prog, input, ir::DataPlane::Auto, Ranks::fibers);
      EXPECT_EQ(fibers.output, threads.output) << label << " p=" << p;
      EXPECT_EQ(fibers.traffic, threads.traffic) << label << " p=" << p;
      EXPECT_EQ(fibers.used_packed, threads.used_packed) << label << " p=" << p;
    }
  }
}

TEST(FiberRanks, AllRanksRunOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  const auto ids = run_spmd_collect<std::thread::id>(
      5,
      [](Comm& comm) {
        comm.barrier();
        return std::this_thread::get_id();
      },
      Ranks::fibers);
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

// Rank 2 waits for a message nobody sends; the others finish.  The launch
// fails at once with rank 2's own report: where it is and what it awaits.
TEST(FiberRanks, RecvWithoutSenderFailsAtOnceNamingRankAndStage) {
  for (int round = 0; round < 3; ++round) {
    auto group = Group::make(4);
    group->fleet().set_stage_labels({"scan(+)", "reduce(+)"});
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (void)run_spmd_collect_traffic_on<int>(
          group,
          [](Comm& comm) {
            if (rt::RankStats* st = comm.rank_stats())
              st->stage.store(1, std::memory_order_relaxed);
            if (comm.rank() == 2) return comm.recv<int>(0, 7);
            return comm.rank();
          },
          Ranks::fibers);
      FAIL() << "a recv with no sender returned";
    } catch (const Error& e) {
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::milliseconds(10));
      const std::string what = e.what();
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
      EXPECT_NE(what.find("rank 2 "), std::string::npos) << what;
      EXPECT_NE(what.find("recv from rank 0, tag 7"), std::string::npos) << what;
      EXPECT_NE(what.find("stage 1 (reduce(+))"), std::string::npos) << what;
    }
  }
  // The deadlocked group was not recycled: a new launch runs clean.
  const auto out = run_spmd_collect<int>(
      4, [](Comm& comm) { return allreduce(comm, comm.rank(), add); },
      Ranks::fibers);
  EXPECT_EQ(out, std::vector<int>(4, 6));
}

// Everyone else waits in a barrier for the stuck rank: every blocked rank
// throws its own report, and the launch surfaces the lowest rank's.
TEST(FiberRanks, DeadlockReportsEachBlockedRank) {
  std::vector<std::string> seen(3);
  try {
    run_spmd(
        3,
        [&seen](Comm& comm) {
          try {
            if (comm.rank() == 1) (void)comm.recv<int>(2, 4);
            comm.barrier();
          } catch (const Error& e) {
            seen[static_cast<std::size_t>(comm.rank())] = e.what();
            throw;
          }
        },
        Ranks::fibers);
    FAIL() << "deadlock not detected";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), seen[0]);
  }
  EXPECT_NE(seen[0].find("rank 0 waits in barrier"), std::string::npos) << seen[0];
  EXPECT_NE(seen[1].find("rank 1 waits in recv from rank 2, tag 4"),
            std::string::npos)
      << seen[1];
  EXPECT_NE(seen[2].find("rank 2 waits in barrier"), std::string::npos) << seen[2];
}

TEST(FiberRanks, ThrowMidAllreduceRethrowsTheRanksOwnError) {
  for (int p : {2, 6, 9}) {
    try {
      run_spmd(
          p,
          [p](Comm& comm) {
            (void)allreduce(comm, static_cast<i64>(comm.rank()),
                            [&](i64 a, i64 b) -> i64 {
                              if (comm.rank() == p - 1)
                                throw Error("allreduce op died");
                              return a + b;
                            });
          },
          Ranks::fibers);
      FAIL() << "expected throw, p=" << p;
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "allreduce op died") << "p=" << p;
    }
  }
}

// A launch from inside a fiber rank runs its ranks on OS threads; its rank
// 0 blocks the fiber's thread until its peers deliver.  The outer launch
// then carries on.
TEST(FiberRanks, LaunchFromInsideAFiberRankCompletes) {
  for (Ranks inner : {Ranks::fibers, Ranks::threads}) {
    const auto out = run_spmd_collect<i64>(
        3,
        [inner](Comm& comm) {
          const auto nested = run_spmd_collect<i64>(
              4,
              [&](Comm& c) {
                return scan(c, static_cast<i64>(c.rank() + comm.rank()), add);
              },
              inner);
          return allreduce(comm, nested.back(), add);
        },
        Ranks::fibers);
    // Rank r's nested scan ends in 0+1+2+3 + 4r; summed over r = 0..2.
    EXPECT_EQ(out, std::vector<i64>(3, 3 * 6 + 4 * 3));
  }
}

}  // namespace
}  // namespace colop::mpsim
