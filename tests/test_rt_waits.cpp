// One wait measurement: every receive and barrier wait comes from the
// flight-recorder records through rt::WaitFold.  Pinned on hand-built
// records (the pairing rule, an open begin carried from one batch to the
// next, a gap) and on real launches, a thread-executor run at p = 8 and
// an SPMD body with barriers: each rank's report waits are its analyzer
// ops for those calls summed, its live row reads its report row, and a
// ring too small for the run marks the ranks whose waits it cut short.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/parse.h"
#include "colop/mpsim/mpsim.h"
#include "colop/obs/json.h"
#include "colop/obs/live.h"
#include "colop/obs/metrics.h"
#include "colop/rt/live.h"
#include "colop/rt/op_stream.h"
#include "colop/rt/report.h"

namespace colop {
namespace {

using rt::Ev;
using Kind = obs::Op::Kind;

struct ConfigGuard {
  rt::Config saved = rt::mutable_config();
  ConfigGuard() { rt::mutable_config().enabled = true; }
  ~ConfigGuard() { rt::mutable_config() = saved; }
};

rt::Record rec(std::uint64_t t, Ev kind) {
  rt::Record r;
  r.t_ns = t;
  r.kind = kind;
  return r;
}

rt::WaitFold fold(const std::vector<rt::Record>& records) {
  rt::WaitFold f;
  for (const rt::Record& r : records) f.add(r);
  return f;
}

TEST(WaitFold, EachEndPairsWithTheBeginRightBeforeIt) {
  const rt::WaitFold f = fold({
      rec(10, Ev::mark), rec(15, Ev::send),
      rec(20, Ev::recv_begin), rec(50, Ev::recv_end),  // blocked: 30
      rec(60, Ev::recv_end),                           // queued: 0
      rec(70, Ev::barrier_begin), rec(75, Ev::mark),   // not a pair
      rec(80, Ev::barrier_end),                        // no begin: 0
      rec(90, Ev::barrier_begin), rec(100, Ev::barrier_end),  // 10
  });
  EXPECT_EQ(f.recv_wait_ns, 30u);
  EXPECT_EQ(f.barrier_wait_ns, 10u);
  EXPECT_EQ(f.busy_ns, 5u + 5 + 10 + 10 + 5 + 5 + 10);
  EXPECT_EQ(f.busy_ns + f.recv_wait_ns + f.barrier_wait_ns, 100u - 10);
  EXPECT_EQ(f.last_ns, 100u);
  EXPECT_FALSE(f.open());
}

TEST(WaitFold, CarriesAnOpenBeginAcrossBatchesAndNothingAcrossAGap) {
  rt::WaitFold f;
  f.add(rec(0, Ev::mark));
  f.add(rec(10, Ev::recv_begin));
  EXPECT_TRUE(f.open());
  EXPECT_EQ(f.last_ns, 10u);
  f.add(rec(40, Ev::recv_end));  // the next batch closes it
  EXPECT_FALSE(f.open());
  EXPECT_EQ(f.recv_wait_ns, 30u);

  f.add(rec(50, Ev::barrier_begin));
  EXPECT_TRUE(f.open());
  f.gap();  // records lost between this and the next one
  f.add(rec(90, Ev::barrier_end));
  EXPECT_EQ(f.barrier_wait_ns, 0u);
  EXPECT_EQ(f.busy_ns, 10u + 10);
  EXPECT_EQ(f.last_ns, 90u);
}

TEST(WaitFold, SnapshotStatsAreTheFoldOfEachRanksRecords) {
  rt::Config cfg;
  cfg.ring_capacity = 16;
  rt::Fleet fleet(2, cfg);
  fleet.recorder(0)->log(Ev::barrier_begin);
  fleet.recorder(0)->log(Ev::barrier_end);
  fleet.recorder(1)->log(Ev::mark);
  fleet.recorder(1)->log(Ev::recv_begin, 0, 0, 3);  // still waiting
  const rt::FleetSnapshot snap = fleet.snapshot();
  for (const rt::RankSnapshot& rs : snap.per_rank) {
    const rt::WaitFold f = fold(rs.records);
    EXPECT_EQ(rs.stats.recv_wait_ns, f.recv_wait_ns);
    EXPECT_EQ(rs.stats.barrier_wait_ns, f.barrier_wait_ns);
    EXPECT_EQ(rs.stats.last_event_ns, rs.records.back().t_ns);
  }
  EXPECT_EQ(snap.per_rank[0].stats.barrier_wait_ns,
            snap.per_rank[0].records[1].t_ns - snap.per_rank[0].records[0].t_ns);
  EXPECT_FALSE(snap.per_rank[0].stats.blocked);
  EXPECT_TRUE(snap.per_rank[1].stats.blocked);
}

/// A rank's analyzer time in its receive calls and in its barrier calls:
/// each recv or barrier op, plus the recv_wait right before it.
struct CallTimes {
  double recv_ns = 0;
  double barrier_ns = 0;
};

CallTimes call_times(const obs::Profile& prof, int rank) {
  CallTimes t;
  const obs::Op* prev = nullptr;
  for (const obs::Op& op : prof.ops) {  // each rank's ops in time order
    if (op.rank != rank) continue;
    const double waited =
        prev != nullptr && prev->kind == Kind::recv_wait ? prev->end - prev->start : 0;
    if (op.kind == Kind::recv) t.recv_ns += waited + (op.end - op.start);
    if (op.kind == Kind::barrier) t.barrier_ns += waited + (op.end - op.start);
    prev = &op;
  }
  return t;
}

/// Each rank's report waits are its analyzer receive and barrier ops.
void expect_waits_are_ops(const rt::RtReport& rep) {
  EXPECT_TRUE(rep.profile.balanced()) << rep.profile.render_text();
  for (const rt::RankReport& r : rep.ranks) {
    const CallTimes t = call_times(rep.profile, r.rank);
    EXPECT_EQ(r.recv_wait_ms, t.recv_ns / 1e6) << "rank " << r.rank;
    EXPECT_EQ(r.barrier_wait_ms, t.barrier_ns / 1e6) << "rank " << r.rank;
    EXPECT_EQ(r.busy_ms,
              rep.profile.ranks[static_cast<std::size_t>(r.rank)].busy / 1e6);
    EXPECT_TRUE(r.waits_exact()) << "rank " << r.rank;
  }
}

/// The live rows after a one-launch run read the run's report rows.
void expect_live_is_report(const obs::LiveSnapshot& live,
                           const rt::RtReport& rep) {
  ASSERT_EQ(live.ranks.size(), rep.ranks.size());
  for (const rt::RankReport& r : rep.ranks) {
    const obs::LiveRankRow& row = live.ranks[static_cast<std::size_t>(r.rank)];
    EXPECT_EQ(row.rank, r.rank);
    EXPECT_EQ(row.busy_ms, r.busy_ms) << "rank " << r.rank;
    EXPECT_EQ(row.comm_ms, r.recv_wait_ms) << "rank " << r.rank;
    EXPECT_EQ(row.idle_ms, r.barrier_wait_ms) << "rank " << r.rank;
    EXPECT_EQ(row.sends, r.sends) << "rank " << r.rank;
    EXPECT_EQ(row.send_bytes, r.send_bytes) << "rank " << r.rank;
  }
}

const char* const kTable1 = "scan(*) ; reduce(+) ; bcast";

ir::Dist table1_input(int p) {
  ir::Dist input(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    input[static_cast<std::size_t>(r)] = {ir::Value(r + 1), ir::Value(2),
                                          ir::Value(-r), ir::Value(3)};
  return input;
}

TEST(RtWaits, ExecutorRunAtP8ReportsItsAnalyzerWaitsLiveAndInTheReport) {
  ConfigGuard guard;
  const ir::Program prog = ir::parse_program(kTable1);
  obs::Registry reg;
  rt::LiveSampler live(reg);
  rt::LiveRunInfo info;
  info.ranks = 8;
  info.program = kTable1;
  live.begin_run(info);
  const auto run = exec::run_on_threads_instrumented(prog, table1_input(8));
  live.end_run();
  live.sample_once();

  const rt::RtReport rep = rt::build_report(run.rt);
  ASSERT_EQ(rep.ranks.size(), 8u);
  expect_waits_are_ops(rep);
  expect_live_is_report(live.snapshot(), rep);
}

TEST(RtWaits, SpmdBodyWithBarriersReportsItsAnalyzerWaitsLiveAndInTheReport) {
  ConfigGuard guard;
  constexpr int kP = 4;
  obs::Registry reg;
  rt::LiveSampler live(reg);
  rt::LiveRunInfo info;
  info.ranks = kP;
  live.begin_run(info);
  const auto group = mpsim::Group::make(kP);
  (void)mpsim::run_spmd_collect_traffic_on<int>(group, [](mpsim::Comm& comm) {
    int x = comm.rank();
    for (int round = 0; round < 3; ++round) {
      // Uneven work, so the early ranks wait in the barrier.
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(50 * comm.rank());
      while (std::chrono::steady_clock::now() < until) {
      }
      comm.barrier();
      const int p = comm.size();
      comm.send((comm.rank() + 1) % p, x);
      x += comm.recv<int>((comm.rank() + p - 1) % p);
    }
    return x;
  });
  live.end_run();
  live.sample_once();

  const rt::RtReport rep = rt::build_report(group->fleet().snapshot());
  ASSERT_EQ(rep.ranks.size(), static_cast<std::size_t>(kP));
  expect_waits_are_ops(rep);
  expect_live_is_report(live.snapshot(), rep);
  double barrier_ms = 0;
  for (const rt::RankReport& r : rep.ranks) barrier_ms += r.barrier_wait_ms;
  EXPECT_GT(barrier_ms, 0) << rep.render_text();
}

TEST(RtWaits, ASmallRingMarksTheWaitsOfRanksThatDroppedRecords) {
  ConfigGuard guard;
  rt::mutable_config().ring_capacity = 16;
  const auto run = exec::run_on_threads_instrumented(
      ir::parse_program(kTable1), table1_input(8));
  const rt::RtReport rep = rt::build_report(run.rt);
  ASSERT_GT(rep.dropped_total, 0u);

  const std::string text = rep.render_text();
  EXPECT_NE(text.find("lower bounds"), std::string::npos) << text;
  std::ostringstream json;
  rep.write_json(json);
  const auto doc = obs::json::parse(json.str());
  const auto& rows = doc.get("ranks")->items;
  ASSERT_EQ(rows.size(), rep.ranks.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const rt::RankReport& r = rep.ranks[i];
    EXPECT_EQ(r.waits_exact(), r.dropped == 0) << "rank " << r.rank;
    EXPECT_EQ(rows[i]->get("waits_exact")->b, r.waits_exact()) << "rank " << r.rank;
    // The text marks a rank's row with * exactly when its waits are cut.
    const std::string lead = "\n  " + std::string(r.rank < 10 ? "   " : "  ") +
                             std::to_string(r.rank) + " ";
    const std::size_t at = text.find(lead);
    ASSERT_NE(at, std::string::npos) << text;
    const std::string row = text.substr(at + 1, text.find('\n', at + 1) - at - 1);
    EXPECT_EQ(row.back() == '*', !r.waits_exact()) << row;
  }
}

}  // namespace
}  // namespace colop
