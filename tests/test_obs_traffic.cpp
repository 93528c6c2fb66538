// Traffic counter accuracy: the mpsim collectives must account exactly
// the message counts their log-p schedules imply (binomial trees send
// p-1 messages, the butterfly sends p*log2(p) at powers of two), with
// runtime telemetry on and off alike, and the per-rank counters in the
// group's fleet must lose no increment under concurrency.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "colop/mpsim/mpsim.h"
#include "colop/rt/flight_recorder.h"

namespace colop::mpsim {
namespace {

using i64 = std::int64_t;

std::uint64_t u(int x) { return static_cast<std::uint64_t>(x); }

int log2_floor(int p) {
  int k = 0;
  while ((2 << k) <= p) ++k;
  return k;
}

bool is_pow2(int p) { return (p & (p - 1)) == 0; }

// Runs `check` with runtime telemetry on, then off, then restores the
// config.  Sends are counted in the fleet's stats slots either way, so the
// closed forms must hold in both.
template <typename Check>
void with_telemetry_on_and_off(Check check) {
  struct Restore {
    bool enabled = rt::config().enabled;
    ~Restore() { rt::mutable_config().enabled = enabled; }
  } restore;
  for (const bool on : {true, false}) {
    SCOPED_TRACE(on ? "telemetry on" : "telemetry off");
    rt::mutable_config().enabled = on;
    check();
  }
}

// Butterfly allreduce: fold the p-q extra ranks in and out (one send
// each way per pair), butterfly over q = 2^floor(log2 p) in between.
std::uint64_t allreduce_messages(int p) {
  if (p == 1) return 0;
  const int q = 1 << log2_floor(p);
  const int rem = p - q;
  return u(2 * rem + q * log2_floor(q));
}

// One sending rank's share of the group's traffic.
TrafficCounters rank_traffic(Group& group, int rank) {
  const rt::RankStats& s = *group.fleet().stats(rank);
  return {s.sends.load(std::memory_order_relaxed),
          s.send_bytes.load(std::memory_order_relaxed)};
}

class TrafficP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(ProcessorCounts, TrafficP,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16, 32,
                                           64),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(TrafficP, BcastBinomialSendsPMinusOneMessages) {
  const int p = GetParam();
  with_telemetry_on_and_off([&] {
    const auto traffic = run_spmd_traffic(p, [](Comm& comm) {
      (void)bcast(comm, comm.rank() == 0 ? i64{7} : i64{0});
    });
    EXPECT_EQ(traffic.messages, u(p - 1));
    EXPECT_GT(traffic.bytes, 0u);
  });
}

TEST_P(TrafficP, ReduceBinomialSendsPMinusOneMessages) {
  const int p = GetParam();
  const auto plus = [](i64 a, i64 b) { return a + b; };
  with_telemetry_on_and_off([&] {
    const auto traffic = run_spmd_traffic(p, [&](Comm& comm) {
      (void)reduce(comm, i64{comm.rank() + 1}, plus);
    });
    EXPECT_EQ(traffic.messages, u(p - 1));
  });
}

TEST_P(TrafficP, AllreduceButterflyMatchesTheClosedForm) {
  const int p = GetParam();
  const auto plus = [](i64 a, i64 b) { return a + b; };
  with_telemetry_on_and_off([&] {
    const auto traffic = run_spmd_traffic(p, [&](Comm& comm) {
      (void)allreduce(comm, i64{comm.rank()}, plus);
    });
    EXPECT_EQ(traffic.messages, allreduce_messages(p));
    if (is_pow2(p)) {
      EXPECT_EQ(traffic.messages, u(p * log2_floor(p)));
    }
  });
}

TEST_P(TrafficP, ScanButterflyIsPLogPAtPowersOfTwo) {
  const int p = GetParam();
  if (!is_pow2(p)) GTEST_SKIP() << "closed form asserted at powers of two";
  const auto plus = [](i64 a, i64 b) { return a + b; };
  with_telemetry_on_and_off([&] {
    const auto traffic = run_spmd_traffic(p, [&](Comm& comm) {
      (void)scan(comm, i64{comm.rank() + 1}, plus);
    });
    EXPECT_EQ(traffic.messages, u(p * log2_floor(p)));
  });
}

TEST_P(TrafficP, PerRankSnapshotsSumToTheAggregate) {
  const int p = GetParam();
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto group = std::make_shared<Group>(p);
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      threads.emplace_back([&, r] {
        Comm comm(group, r);
        (void)allreduce(comm, i64{r}, plus);
        (void)scan(comm, i64{r}, plus);
      });
  }
  TrafficCounters sum;
  for (int r = 0; r < p; ++r) sum = sum + rank_traffic(*group, r);
  EXPECT_EQ(sum, group->traffic());
  EXPECT_GT(sum.messages, 0u);
}

TEST(TrafficStats, ConcurrentCollectivesLoseNoCounts) {
  // Repeated allreduces keep all ranks incrementing simultaneously; a
  // racy counter would come up short of the exact total.  max keeps the
  // accumulator bounded (a sum would grow as p^iters and overflow).
  const int p = 8;
  const int iters = 50;
  const auto max = [](i64 a, i64 b) { return a > b ? a : b; };
  const auto traffic = run_spmd_traffic(p, [&](Comm& comm) {
    i64 acc = comm.rank() + 1;
    for (int i = 0; i < iters; ++i) acc = allreduce(comm, acc, max);
  });
  EXPECT_EQ(traffic.messages, u(iters) * allreduce_messages(p));
}

TEST(TrafficStats, ShardedCountersAreExactUnderContention) {
  // Four ranks send to themselves concurrently, each counting into its own
  // slot of the fleet; no increment may be lost.
  auto group = std::make_shared<Group>(4);
  const int per_thread = 20000;
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < 4; ++r)
      threads.emplace_back([&, r] {
        const Comm comm(group, r);
        for (int i = 0; i < per_thread; ++i) {
          comm.send(r, i64{i});
          (void)comm.recv<i64>(r);
        }
      });
  }
  EXPECT_EQ(group->traffic().messages, u(4 * per_thread));
  EXPECT_EQ(group->traffic().bytes, u(4 * per_thread) * 8u);
  TrafficCounters sum;
  for (int r = 0; r < group->size(); ++r) sum = sum + rank_traffic(*group, r);
  EXPECT_EQ(sum, group->traffic());
  group->fleet().reset();
  EXPECT_EQ(group->traffic(), TrafficCounters{});
}

TEST(TrafficStats, OutOfRangeRanksFallBackToShardZero) {
  Group group(2);
  for (const int rank : {-1, 99})
    group.fleet().stats(rank)->sends.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(group.traffic().messages, 2u);
  EXPECT_EQ(rank_traffic(group, 0).messages, 2u);
  EXPECT_EQ(rank_traffic(group, 1).messages, 0u);
}

}  // namespace
}  // namespace colop::mpsim
