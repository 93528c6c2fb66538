// Point-to-point, barrier, abort and split semantics of the mpsim runtime.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "colop/mpsim/mpsim.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

TEST(Spmd, SingleRankRuns) {
  int visits = 0;
  run_spmd(1, [&](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(Spmd, CollectReturnsRankIndexedResults) {
  auto out = run_spmd_collect<int>(7, [](Comm& comm) { return comm.rank() * 10; });
  ASSERT_EQ(out.size(), 7u);
  for (int r = 0; r < 7; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], r * 10);
}

TEST(P2p, SendRecvRoundtrip) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, std::string("hello"), 5);
      EXPECT_EQ(comm.recv<int>(1, 6), 99);
    } else {
      EXPECT_EQ(comm.recv<std::string>(0, 5), "hello");
      comm.send(0, 99, 6);
    }
  });
}

TEST(P2p, FifoOrderPerSourceAndTag) {
  run_spmd(2, [](Comm& comm) {
    constexpr int kN = 200;
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) comm.send(1, i);
    } else {
      for (int i = 0; i < kN; ++i) EXPECT_EQ(comm.recv<int>(0), i);
    }
  });
}

TEST(P2p, TagsDoNotCross) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 111, 1);
      comm.send(1, 222, 2);
    } else {
      // Receive in the opposite order of sending: matching is by tag.
      EXPECT_EQ(comm.recv<int>(0, 2), 222);
      EXPECT_EQ(comm.recv<int>(0, 1), 111);
    }
  });
}

TEST(P2p, SendRecvExchangesSimultaneously) {
  auto out = run_spmd_collect<int>(2, [](Comm& comm) {
    return comm.sendrecv(1 - comm.rank(), comm.rank() + 40);
  });
  EXPECT_EQ(out[0], 41);
  EXPECT_EQ(out[1], 40);
}

TEST(P2p, TypeMismatchThrows) {
  EXPECT_THROW(run_spmd(2,
                        [](Comm& comm) {
                          if (comm.rank() == 0) {
                            comm.send(1, 3.5);
                          } else {
                            (void)comm.recv<int>(0);  // wrong type
                          }
                        }),
               Error);
}

TEST(P2p, MoveOnlyAndVectorPayloads) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(1000);
      std::iota(big.begin(), big.end(), 0.0);
      comm.send(1, std::move(big));
    } else {
      auto got = comm.recv<std::vector<double>>(0);
      ASSERT_EQ(got.size(), 1000u);
      EXPECT_DOUBLE_EQ(got[999], 999.0);
    }
  });
}

TEST(P2p, PayloadHoldsSmallValuesInlineAndBoxesLargeOnes) {
  // Inline (an int, a vector handle, a unique_ptr) and boxed (larger than
  // the inline capacity) values survive moves and release what they own.
  using Big = std::array<char, Payload::kInlineBytes + 1>;
  Big big{};
  big.back() = 'z';
  std::vector<Payload> payloads;
  payloads.emplace_back(7);
  payloads.emplace_back(std::vector<int>{1, 2, 3});
  payloads.emplace_back(std::make_unique<std::string>("owned"));
  payloads.emplace_back(big);
  payloads.emplace_back();
  std::vector<Payload> moved;
  for (auto& payload : payloads) moved.push_back(std::move(payload));
  EXPECT_EQ(payloads[0].get<int>(), nullptr);  // moved-from is empty
  EXPECT_EQ(*moved[0].get<int>(), 7);
  EXPECT_EQ(moved[0].get<double>(), nullptr);  // type must match exactly
  EXPECT_EQ(moved[1].get<std::vector<int>>()->size(), 3u);
  EXPECT_EQ(**moved[2].get<std::unique_ptr<std::string>>(), "owned");
  EXPECT_EQ(moved[3].get<Big>()->back(), 'z');
  EXPECT_EQ(moved[4].get<int>(), nullptr);
  moved[0] = std::move(moved[3]);  // assignment over a live inline value
  EXPECT_EQ(moved[0].get<Big>()->back(), 'z');
}

TEST(P2p, UserTagRangeEnforced) {
  EXPECT_THROW(
      run_spmd(2, [](Comm& comm) { comm.send(1 - comm.rank(), 0, kCollectiveTagBase); }),
      Error);
}

TEST(Barrier, SynchronizesGenerations) {
  constexpr int kP = 8;
  std::atomic<int> phase_counter{0};
  run_spmd(kP, [&](Comm& comm) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_counter.fetch_add(1);
      comm.barrier();
      // After the barrier, everyone must observe all kP increments of this
      // phase (and none of the next, because of the second barrier).
      EXPECT_EQ(phase_counter.load(), kP * (phase + 1));
      comm.barrier();
    }
  });
}

TEST(Abort, ExceptionInOneRankUnblocksOthers) {
  // Rank 1 throws; rank 0 is blocked in recv and must be woken instead of
  // deadlocking.  The original exception is the one rethrown.
  try {
    run_spmd(2, [](Comm& comm) {
      if (comm.rank() == 1) throw Error("injected failure");
      (void)comm.recv<int>(1);
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "injected failure");
  }
}

TEST(Abort, ExceptionUnblocksBarrier) {
  try {
    run_spmd(3, [](Comm& comm) {
      if (comm.rank() == 2) throw Error("barrier abort");
      comm.barrier();
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "barrier abort");
  }
}

TEST(Stats, CountsMessagesAndBytes) {
  auto counters = run_spmd_traffic(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, std::int32_t{7});
      comm.send(1, std::vector<double>(10, 1.0));
    } else {
      (void)comm.recv<std::int32_t>(0);
      (void)comm.recv<std::vector<double>>(0);
    }
  });
  EXPECT_EQ(counters.messages, 2u);
  EXPECT_EQ(counters.bytes, sizeof(std::int32_t) + 10 * sizeof(double));
}

TEST(Split, EvenOddSubgroups) {
  auto out = run_spmd_collect<std::pair<int, int>>(6, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    return std::make_pair(sub.rank(), sub.size());
  });
  // Evens 0,2,4 -> sub ranks 0,1,2; odds 1,3,5 -> sub ranks 0,1,2.
  EXPECT_EQ(out[0], std::make_pair(0, 3));
  EXPECT_EQ(out[1], std::make_pair(0, 3));
  EXPECT_EQ(out[2], std::make_pair(1, 3));
  EXPECT_EQ(out[3], std::make_pair(1, 3));
  EXPECT_EQ(out[4], std::make_pair(2, 3));
  EXPECT_EQ(out[5], std::make_pair(2, 3));
}

TEST(Split, NegativeColorYieldsInvalidComm) {
  // int, not bool: vector<bool> bit-packs, and ranks write their slots
  // concurrently — adjacent bits in one byte would be a data race.
  auto out = run_spmd_collect<int>(4, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() == 0 ? -1 : 0, 0);
    return static_cast<int>(sub.valid());
  });
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1] && out[2] && out[3]);
}

TEST(Split, KeyOrdersNewRanks) {
  // Reverse the ranks within one color via the key.
  auto out = run_spmd_collect<int>(4, [](Comm& comm) {
    Comm sub = comm.split(0, -comm.rank());
    return sub.rank();
  });
  EXPECT_EQ(out[0], 3);
  EXPECT_EQ(out[3], 0);
}

TEST(Split, SubgroupCommunicationIsIsolated) {
  auto out = run_spmd_collect<int>(6, [](Comm& comm) {
    Comm sub = comm.split(comm.rank() % 2, comm.rank());
    // Ring within the subgroup.
    const int to = (sub.rank() + 1) % sub.size();
    const int from = (sub.rank() + sub.size() - 1) % sub.size();
    sub.send(to, comm.rank() * 100);
    return sub.recv<int>(from);
  });
  // Global rank 0 (sub even rank 0) receives from even sub-rank 2 = global 4.
  EXPECT_EQ(out[0], 400);
  EXPECT_EQ(out[1], 500);  // odd subgroup: 1 <- 5
  EXPECT_EQ(out[2], 0);
  EXPECT_EQ(out[4], 200);
}

TEST(Split, RepeatedSplitsReuseEpochs) {
  run_spmd(4, [](Comm& comm) {
    for (int i = 0; i < 3; ++i) {
      Comm sub = comm.split(comm.rank() / 2, comm.rank());
      EXPECT_EQ(sub.size(), 2);
    }
  });
}

}  // namespace
}  // namespace colop::mpsim
