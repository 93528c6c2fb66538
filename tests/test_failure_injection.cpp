// Failure injection: exceptions thrown inside operators mid-collective,
// misuse of the API, and abort propagation under load.  A failing rank
// must never deadlock the group, and the original error must surface.
// Every case runs with the ranks as pooled threads and as fibers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/mpsim/mpsim.h"

namespace colop::mpsim {
namespace {

using i64 = std::int64_t;

constexpr Ranks kBothModes[] = {Ranks::threads, Ranks::fibers};

const char* mode_name(Ranks ranks) {
  return ranks == Ranks::fibers ? "fibers" : "threads";
}

TEST(FailureInjection, OpThrowsMidScan) {
  // The operator explodes on one rank during the butterfly; every other
  // rank is blocked in sendrecv and must be released.
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    for (int p : {2, 4, 7, 8}) {
      try {
        run_spmd(
            p,
            [&](Comm& comm) {
              (void)scan(comm, static_cast<i64>(comm.rank()),
                         [&](i64 a, i64 b) -> i64 {
                           if (comm.rank() == p / 2) throw Error("op exploded");
                           return a + b;
                         });
            },
            ranks);
        FAIL() << "expected throw, p=" << p;
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "op exploded") << "p=" << p;
      }
    }
  }
}

TEST(FailureInjection, OpThrowsMidAllreduce) {
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    try {
      run_spmd(
          6,
          [](Comm& comm) {
            (void)allreduce(comm, static_cast<i64>(comm.rank()),
                            [&](i64 a, i64 b) -> i64 {
                              if (comm.rank() == 4)
                                throw Error("allreduce op died");
                              return a + b;
                            });
          },
          ranks);
      FAIL() << "expected throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "allreduce op died");
    }
  }
}

TEST(FailureInjection, OpThrowsMidBalancedReduce) {
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    try {
      run_spmd(
          6,
          [](Comm& comm) {
            (void)reduce_balanced(
                comm, std::make_pair<i64, i64>(1, 1),
                [&](std::pair<i64, i64> a,
                    std::pair<i64, i64> b) -> std::pair<i64, i64> {
                  if (comm.rank() == 0) throw Error("balanced op died");
                  return {a.first + b.first, a.second + b.second};
                },
                [](std::pair<i64, i64> x) { return x; });
          },
          ranks);
      FAIL() << "expected throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "balanced op died");
    }
  }
}

TEST(FailureInjection, ElemFnThrowsInsideProgramExecution) {
  ir::Program prog;
  prog.scan(ir::op_add())
      .map({"boom",
            [](const ir::Value& v) -> ir::Value {
              if (v.as_int() > 100) throw Error("map stage failed");
              return v;
            },
            1})
      .allreduce(ir::op_add());
  ir::Dist in = ir::dist_of_ints({50, 60, 70, 80});  // prefix exceeds 100
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    EXPECT_THROW(
        (void)exec::run_on_threads(prog, in, ir::DataPlane::Auto, ranks),
        Error);
  }
}

TEST(FailureInjection, LateJoinersUnblockWhenEarlyRankFails) {
  // Rank 0 dies before even entering the collective the others sit in.
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    try {
      run_spmd(
          5,
          [](Comm& comm) {
            if (comm.rank() == 0) throw Error("rank 0 died early");
            (void)allreduce(comm, 1, [](int a, int b) { return a + b; });
          },
          ranks);
      FAIL() << "expected throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "rank 0 died early");
    }
  }
}

TEST(FailureInjection, AbortDuringLongPipelines) {
  // Many back-to-back collectives in flight when one rank fails midway.
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    std::atomic<int> rounds_completed{0};
    try {
      run_spmd(
          4,
          [&](Comm& comm) {
            i64 v = comm.rank();
            for (int round = 0; round < 50; ++round) {
              if (round == 25 && comm.rank() == 2) throw Error("mid-pipeline");
              v = scan(comm, v, [](i64 a, i64 b) { return a + b; });
              rounds_completed.fetch_add(1);
            }
          },
          ranks);
      FAIL() << "expected throw";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "mid-pipeline");
    }
    EXPECT_GT(rounds_completed.load(), 4 * 10);
  }
}

TEST(FailureInjection, InvalidRanksAreRejected) {
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    run_spmd(
        3,
        [](Comm& comm) {
          EXPECT_THROW(comm.send(7, 1), Error);
          EXPECT_THROW(comm.send(-1, 1), Error);
          EXPECT_THROW((void)comm.probe(3), Error);
          if (comm.rank() == 0) {
            EXPECT_THROW((void)bcast(comm, 1, /*root=*/5), Error);
          }
        },
        ranks);
  }
}

TEST(FailureInjection, ScatterWrongBlockCountAbortsEveryone) {
  // Root passes too few blocks; the others are blocked in recv.
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    EXPECT_THROW(run_spmd(
                     5,
                     [](Comm& comm) {
                       std::vector<int> blocks;
                       if (comm.rank() == 0) blocks.assign(3, 1);  // needs 5
                       (void)scatter(comm, std::move(blocks));
                     },
                     ranks),
                 Error);
  }
}

TEST(FailureInjection, GroupStaysUsableAfterIndependentRuns) {
  // A failed SPMD run must not poison subsequent runs (fresh groups).
  for (Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    EXPECT_THROW(run_spmd(3, [](Comm&) { throw Error("once"); }, ranks), Error);
    auto out = mpsim::run_spmd_collect<int>(
        3,
        [](Comm& comm) {
          return allreduce(comm, comm.rank(), [](int a, int b) { return a + b; });
        },
        ranks);
    EXPECT_EQ(out[0], 3);
  }
}

}  // namespace
}  // namespace colop::mpsim
