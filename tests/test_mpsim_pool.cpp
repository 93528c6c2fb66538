// The persistent rank pool and group reuse behind every SPMD launch.
//
// Each test makes several launches in one process, so state one launch
// leaves behind (a stale fleet, counters, an aborted flag, a queued
// message) would show in the next one even when ctest runs every test
// case in a process of its own.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/parse.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rt/flight_recorder.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

struct ConfigGuard {
  rt::Config saved = rt::mutable_config();
  ~ConfigGuard() { rt::mutable_config() = saved; }
};

// A launch whose traffic, counters and record counts (recv_begin aside)
// are the same every time: one ring shift and a barrier.
int ring_shift(Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  comm.send((r + 1) % p, 10 * r);
  const int got = comm.recv<int>((r + p - 1) % p);
  comm.barrier();
  return got;
}

// Everything a launch leaves in its group that does not depend on timing.
struct LaunchState {
  TrafficCounters traffic;
  std::vector<std::array<std::uint64_t, 9>> per_rank;

  friend bool operator==(const LaunchState&, const LaunchState&) = default;
};

LaunchState launch_ring_shift(const std::shared_ptr<Group>& group) {
  auto [out, traffic] = run_spmd_collect_traffic_on<int>(group, ring_shift);
  const int p = group->size();
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(out[static_cast<std::size_t>(r)], 10 * ((r + p - 1) % p));
  LaunchState state{traffic, {}};
  rt::Fleet& fleet = group->fleet();
  if (!fleet.enabled()) return state;
  const rt::FleetSnapshot snap = fleet.snapshot();
  for (int r = 0; r < p; ++r) {
    const rt::RankStats& s = *fleet.stats(r);
    auto ld = [](const auto& a) {
      return static_cast<std::uint64_t>(a.load(std::memory_order_relaxed));
    };
    // Records logged, less the recv_begin ones: a receive logs one only
    // when its message is not queued yet, which depends on timing.
    const auto& records = snap.per_rank[static_cast<std::size_t>(r)].records;
    const auto blocked = static_cast<std::uint64_t>(
        std::count_if(records.begin(), records.end(), [](const rt::Record& rec) {
          return rec.kind == rt::Ev::recv_begin;
        }));
    state.per_rank.push_back({ld(s.sends), ld(s.send_bytes), ld(s.recvs),
                              ld(s.barriers), ld(s.queued_total),
                              ld(s.queue_depth), ld(s.queue_bytes), ld(s.done),
                              fleet.recorder(r)->head() - blocked});
  }
  return state;
}

TEST(RankPool, CallerThreadRunsRankZero) {
  const auto caller = std::this_thread::get_id();
  for (int p : {1, 2, 5, 9, 2}) {
    const auto ids = run_spmd_collect<std::thread::id>(
        p, [](Comm&) { return std::this_thread::get_id(); });
    EXPECT_EQ(ids[0], caller) << "p=" << p;
    for (int r = 1; r < p; ++r)
      EXPECT_NE(ids[static_cast<std::size_t>(r)], caller) << "p=" << p;
  }
}

TEST(RankPool, RankZeroExceptionReachesTheCaller) {
  for (int round = 0; round < 3; ++round) {
    try {
      run_spmd(4, [](Comm& comm) {
        if (comm.rank() == 0) throw std::runtime_error("rank 0 gave up");
        (void)comm.recv<int>(0);  // released by the abort
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      // The original object, not the peers' "group aborted".
      EXPECT_STREQ(e.what(), "rank 0 gave up");
    }
    const auto out = run_spmd_collect<int>(4, ring_shift);
    EXPECT_EQ(out[0], 30);
  }
}

TEST(RankPool, AbortWakesPeersThatAreAboutToBlock) {
  // Rank 0 throws after a delay swept over 0-10 µs, so its abort lands at
  // many points of rank 1's way into a blocking recv or barrier.  A
  // wake-up lost between rank 1's abort check and its wait hangs the
  // launch, which ctest's timeout reports; the race is narrow, so a
  // regression shows in some runs, not all.
  for (int round = 0; round < 20000; ++round) {
    const bool in_barrier = round % 2 == 1;
    const auto delay = std::chrono::nanoseconds(round % 100 * 100);
    EXPECT_THROW(run_spmd(2,
                          [in_barrier, delay](Comm& comm) {
                            if (comm.rank() == 0) {
                              const auto until =
                                  std::chrono::steady_clock::now() + delay;
                              while (std::chrono::steady_clock::now() < until) {
                              }
                              throw Error("abort now");
                            }
                            if (in_barrier) comm.barrier();
                            (void)comm.recv<int>(0);
                          }),
                 Error);
  }
}

TEST(RankPool, CleanGroupIsReusedAndResetLikeAFreshOne) {
  ConfigGuard guard;
  rt::mutable_config().enabled = true;
  const int p = 5;
  const LaunchState fresh = launch_ring_shift(std::make_shared<Group>(p));
  const Group* first = nullptr;
  {
    auto group = Group::make(p);
    first = group.get();
    // Different traffic first, so a missed reset shows in the comparison.
    (void)run_spmd_collect_traffic_on<int>(group, [](Comm& comm) {
      for (int k = 0; k < 3; ++k) (void)ring_shift(comm);
      return 0;
    });
  }
  for (int round = 0; round < 3; ++round) {
    const auto before = std::chrono::steady_clock::now();
    auto group = Group::make(p);
    EXPECT_EQ(group.get(), first) << "clean idle group not reused";
    EXPECT_TRUE(group->fleet().epoch() >= before) << "fleet epoch not reset";
    EXPECT_EQ(launch_ring_shift(group), fresh) << "round " << round;
  }
}

TEST(RankPool, LaunchAfterARankThrowsMatchesAFreshGroup) {
  ConfigGuard guard;
  rt::mutable_config().enabled = true;
  const int p = 6;
  const LaunchState fresh = launch_ring_shift(std::make_shared<Group>(p));
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(run_spmd_collect_traffic_on<int>(
                     Group::make(p),
                     [](Comm& comm) {
                       // A message nobody receives, then a failure.
                       comm.send((comm.rank() + 1) % comm.size(), 7, 3);
                       if (comm.rank() == 2) throw Error("injected");
                       return comm.recv<int>(2);
                     }),
                 Error);
    EXPECT_EQ(launch_ring_shift(Group::make(p)), fresh) << "round " << round;
  }
}

TEST(RankPool, UnreceivedMessagesDoNotReachTheNextLaunch) {
  ConfigGuard guard;
  rt::mutable_config().enabled = true;
  const int p = 4;
  const LaunchState fresh = launch_ring_shift(std::make_shared<Group>(p));
  for (int round = 0; round < 3; ++round) {
    // A clean run that leaves on every rank the message ring_shift waits
    // for, with the wrong value.
    run_spmd(p, [](Comm& comm) {
      comm.send((comm.rank() + 1) % comm.size(), -1);
    });
    EXPECT_EQ(launch_ring_shift(Group::make(p)), fresh) << "round " << round;
  }
}

TEST(RankPool, LaunchAfterAWatchdogStallMatchesAFreshGroup) {
  ConfigGuard guard;
  rt::Config& cfg = rt::mutable_config();
  cfg.enabled = true;
  cfg.dump_path.clear();
  const int p = 3;
  const LaunchState fresh = launch_ring_shift(std::make_shared<Group>(p));
  for (int round = 0; round < 2; ++round) {
    cfg.watchdog_ms = 40;
    try {
      run_spmd(p, [](Comm& comm) {
        // Rank 1 waits for a message rank 0 never sends; rank 0 leaves
        // one for rank 2 that is never received.
        if (comm.rank() == 0) comm.send(2, 1, 5);
        if (comm.rank() == 1) (void)comm.recv<int>(0);
      });
      FAIL() << "stall not reported";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("stall"), std::string::npos)
          << e.what();
    }
    cfg.watchdog_ms = 0;
    EXPECT_EQ(launch_ring_shift(Group::make(p)), fresh) << "round " << round;
  }
}

TEST(RankPool, FleetFollowsTheConfigOfEachLaunch) {
  ConfigGuard guard;
  rt::Config& cfg = rt::mutable_config();
  const auto prog = ir::parse_program("scan(+) ; reduce(+) ; bcast");
  const ir::Dist input = {{1}, {2}, {3}};
  struct Setting {
    bool enabled;
    std::size_t ring;
  };
  for (const Setting s : {Setting{true, 64}, Setting{false, 64},
                          Setting{true, 64}, Setting{true, 2048},
                          Setting{true, 2048}, Setting{false, 2048}}) {
    cfg.enabled = s.enabled;
    cfg.ring_capacity = s.ring;
    {
      auto group = Group::make(3);
      EXPECT_EQ(group->fleet().enabled(), s.enabled);
      if (s.enabled) {
        EXPECT_EQ(group->fleet().recorder(0)->capacity(), s.ring);
      }
      (void)launch_ring_shift(group);
    }
    const auto run = exec::run_on_threads_instrumented(prog, input);
    EXPECT_EQ(run.rt.enabled, s.enabled);
    EXPECT_EQ(run.output[2][0], ir::Value(10));
  }
}

TEST(RankPool, ConcurrentClientsLaunchIndependently) {
  auto client = [](int p, int launches, int& failures) {
    for (int i = 0; i < launches; ++i) {
      const auto out = run_spmd_collect<int>(p, [i](Comm& comm) {
        return comm.rank() + i + ring_shift(comm);
      });
      for (int r = 0; r < p; ++r)
        if (out[static_cast<std::size_t>(r)] != r + i + 10 * ((r + p - 1) % p))
          ++failures;
    }
  };
  int failures_a = 0;
  int failures_b = 0;
  std::thread a(client, 4, 40, std::ref(failures_a));
  std::thread b(client, 7, 40, std::ref(failures_b));
  a.join();
  b.join();
  EXPECT_EQ(failures_a, 0);
  EXPECT_EQ(failures_b, 0);
}

TEST(RankPool, LaunchFromInsideARankBody) {
  for (int round = 0; round < 3; ++round) {
    const auto out = run_spmd_collect<int>(3, [](Comm& comm) {
      const auto inner = run_spmd_collect<int>(
          4, [outer = comm.rank()](Comm& c) { return outer * 100 + c.rank(); });
      return std::accumulate(inner.begin(), inner.end(), 0) + ring_shift(comm);
    });
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(out[static_cast<std::size_t>(r)],
                400 * r + 6 + 10 * ((r + 2) % 3));
  }
}

}  // namespace
}  // namespace colop::mpsim
