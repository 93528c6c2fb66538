// A thread run as the analyzer's op stream (rt/op_stream.h): the shapes
// each record pattern turns into, pinned on hand-built snapshots, and the
// analyzer's invariants on real launches at p = 1..9 on threads and on
// fibers, including a ring too small to hold the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/parse.h"
#include "colop/obs/json.h"
#include "colop/rt/op_stream.h"
#include "colop/rt/report.h"
#include "colop/support/rng.h"

namespace colop {
namespace {

using rt::Ev;
using Kind = obs::Op::Kind;

rt::Record rec(std::uint64_t t, Ev kind, std::int32_t peer = -1,
               std::uint64_t tag = 0) {
  rt::Record r;
  r.t_ns = t;
  r.kind = kind;
  r.stage = 0;
  r.peer = peer;
  r.bytes = kind == Ev::send || kind == Ev::recv_end ? 8 : 0;
  r.aux = tag;
  return r;
}

/// A finished run: every rank done, every mailbox empty, nothing dropped.
rt::FleetSnapshot snapshot(std::vector<std::vector<rt::Record>> ranks) {
  rt::FleetSnapshot snap;
  snap.enabled = true;
  snap.ranks = static_cast<int>(ranks.size());
  snap.stage_labels = {"stage"};
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    rt::RankSnapshot rs;
    rs.rank = static_cast<int>(r);
    rs.records = std::move(ranks[r]);
    rs.logged = rs.records.size();
    rs.stats.done = true;
    snap.per_rank.push_back(std::move(rs));
  }
  return snap;
}

std::vector<obs::Op> ops_of(const obs::Profile& prof, int rank) {
  std::vector<obs::Op> out;
  for (const obs::Op& op : prof.ops)
    if (op.rank == rank) out.push_back(op);
  return out;
}

bool has_op(const obs::Profile& prof, int rank, Kind kind, double start,
            double end, int peer) {
  return std::any_of(prof.ops.begin(), prof.ops.end(), [&](const obs::Op& op) {
    return op.rank == rank && op.kind == kind && op.start == start &&
           op.end == end && op.peer == peer;
  });
}

bool path_visits(const obs::Profile& prof, int rank) {
  return std::any_of(
      prof.critical_path.begin(), prof.critical_path.end(),
      [&](const obs::CriticalSegment& seg) { return seg.rank == rank; });
}

/// Each rank's ops abut from its first record to its last.
void expect_tiled(const obs::Profile& prof) {
  for (int r = 0; r < prof.procs; ++r) {
    const auto ops = ops_of(prof, r);
    for (std::size_t i = 1; i < ops.size(); ++i)
      EXPECT_EQ(ops[i].start, ops[i - 1].end) << "rank " << r << " op " << i;
  }
}

TEST(OpStream, RecvEndWithoutRecvBeginWaitsZeroTime) {
  const auto prof = rt::profile_snapshot(snapshot({
      {rec(0, Ev::mark), rec(10, Ev::send, 1, 5), rec(100, Ev::mark)},
      {rec(0, Ev::mark), rec(50, Ev::recv_end, 0, 5), rec(200, Ev::mark)},
  }));
  EXPECT_TRUE(has_op(prof, 1, Kind::compute, 0, 50, -1));
  EXPECT_TRUE(has_op(prof, 1, Kind::recv, 50, 50, 0));
  for (const obs::Op& op : prof.ops) EXPECT_NE(op.kind, Kind::recv_wait);
  ASSERT_EQ(prof.messages.size(), 1u);
  EXPECT_EQ(prof.messages[0].sent, 10);
  EXPECT_FALSE(path_visits(prof, 0));
  expect_tiled(prof);
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
}

TEST(OpStream, QueuedMessageCausesNoHop) {
  const auto prof = rt::profile_snapshot(snapshot({
      {rec(0, Ev::mark), rec(10, Ev::send, 1, 5), rec(100, Ev::mark)},
      {rec(0, Ev::mark), rec(20, Ev::recv_begin, 0, 5),
       rec(30, Ev::recv_end, 0, 5), rec(200, Ev::mark)},
  }));
  EXPECT_TRUE(has_op(prof, 1, Kind::recv, 20, 30, 0));
  for (const obs::Op& op : prof.ops) EXPECT_NE(op.kind, Kind::recv_wait);
  EXPECT_FALSE(path_visits(prof, 0));
  expect_tiled(prof);
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
}

TEST(OpStream, BlockedReceiveHopsToTheSenderAtTheSend) {
  const auto prof = rt::profile_snapshot(snapshot({
      {rec(0, Ev::mark), rec(50, Ev::send, 1, 5), rec(60, Ev::mark)},
      {rec(0, Ev::mark), rec(10, Ev::recv_begin, 0, 5),
       rec(55, Ev::recv_end, 0, 5), rec(200, Ev::mark)},
  }));
  EXPECT_TRUE(has_op(prof, 1, Kind::recv_wait, 10, 50, 0));
  EXPECT_TRUE(has_op(prof, 1, Kind::recv, 50, 55, 0));
  expect_tiled(prof);
  EXPECT_TRUE(prof.balanced());
  ASSERT_TRUE(prof.path_complete());
  // rank 1 [50, 200], then rank 0 from the start to its send.
  const auto& path = prof.critical_path;
  const auto hop = std::find_if(path.begin(), path.end(), [](const auto& s) {
    return s.rank == 1;
  });
  ASSERT_NE(hop, path.begin());
  EXPECT_EQ(hop->start, 50);
  EXPECT_EQ(std::prev(hop)->rank, 0);
  EXPECT_EQ(std::prev(hop)->end, 50);
}

TEST(OpStream, BarrierHopsToTheLastRankIn) {
  const auto prof = rt::profile_snapshot(snapshot({
      {rec(0, Ev::mark), rec(10, Ev::barrier_begin), rec(40, Ev::barrier_end),
       rec(60, Ev::mark)},
      {rec(0, Ev::mark), rec(30, Ev::barrier_begin), rec(41, Ev::barrier_end),
       rec(60, Ev::mark)},
      {rec(0, Ev::mark), rec(20, Ev::barrier_begin), rec(42, Ev::barrier_end),
       rec(200, Ev::mark)},
  }));
  EXPECT_TRUE(has_op(prof, 0, Kind::recv_wait, 10, 30, 1));
  EXPECT_TRUE(has_op(prof, 0, Kind::barrier, 30, 40, 1));
  EXPECT_TRUE(has_op(prof, 1, Kind::barrier, 30, 41, 1));
  EXPECT_TRUE(has_op(prof, 2, Kind::recv_wait, 20, 30, 1));
  EXPECT_TRUE(has_op(prof, 2, Kind::barrier, 30, 42, 1));
  expect_tiled(prof);
  EXPECT_TRUE(prof.balanced());
  ASSERT_TRUE(prof.path_complete());
  // rank 2 finishes last; its wait hands the path to rank 1 at its entry.
  const auto& path = prof.critical_path;
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front().rank, 1);
  EXPECT_EQ(path.front().end, 30);
  EXPECT_FALSE(path_visits(prof, 0));
}

TEST(OpStream, NoHopToASendTheRingDropped) {
  // Rank 0's ring lost its first records and the run is still going, so
  // the count of sends on the key is unknown: the receive must not match.
  auto snap = snapshot({
      {rec(50, Ev::send, 1, 5), rec(60, Ev::mark)},
      {rec(0, Ev::mark), rec(10, Ev::recv_begin, 0, 5),
       rec(55, Ev::recv_end, 0, 5), rec(200, Ev::mark)},
  });
  snap.per_rank[0].dropped = 3;
  snap.per_rank[1].stats.done = false;
  const auto prof = rt::profile_snapshot(snap);
  EXPECT_TRUE(prof.messages.empty());
  EXPECT_TRUE(has_op(prof, 1, Kind::recv, 10, 55, 0));
  EXPECT_FALSE(path_visits(prof, 0));
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());

  // Once the run completed with every mailbox empty, the key's sends and
  // receives are equally many and pair up from their ends.
  snap.per_rank[1].stats.done = true;
  EXPECT_EQ(rt::profile_snapshot(snap).messages.size(), 1u);
}

TEST(OpStream, PostMortemClosesOpenWaitsAtTheDump) {
  auto snap = snapshot({
      {rec(0, Ev::mark), rec(10, Ev::recv_begin, 1, 7)},
      {rec(0, Ev::mark), rec(20, Ev::barrier_begin)},
  });
  for (auto& rs : snap.per_rank) rs.stats.done = false;
  const auto prof = rt::profile_snapshot(snap, 500);
  EXPECT_EQ(prof.makespan, 500);
  EXPECT_TRUE(has_op(prof, 0, Kind::recv_wait, 10, 500, -1));
  EXPECT_TRUE(has_op(prof, 1, Kind::recv_wait, 20, 500, -1));
  EXPECT_TRUE(prof.balanced());
  EXPECT_TRUE(prof.path_complete());
}

ir::Dist small_input(int p) {
  Rng rng(0x0b5 + static_cast<std::uint64_t>(p));
  ir::Dist input(static_cast<std::size_t>(p));
  for (auto& b : input) {
    b.reserve(4);
    for (int j = 0; j < 4; ++j) b.emplace_back(rng.uniform(-1, 1));
  }
  return input;
}

/// Every wait on a peer ends at a record the peer's ring still holds: a
/// send to this rank, or a barrier entry.
void expect_hops_to_retained_records(const rt::FleetSnapshot& snap,
                                     const obs::Profile& prof) {
  for (const obs::Op& op : prof.ops) {
    if (op.kind != Kind::recv_wait || op.peer < 0) continue;
    const auto& peer = snap.per_rank[static_cast<std::size_t>(op.peer)];
    const bool held = std::any_of(
        peer.records.begin(), peer.records.end(), [&](const rt::Record& r) {
          return static_cast<double>(r.t_ns) == op.end &&
                 ((r.kind == Ev::send && r.peer == op.rank) ||
                  r.kind == Ev::barrier_begin);
        });
    EXPECT_TRUE(held) << "rank " << op.rank << " waits on rank " << op.peer
                      << " until " << op.end;
  }
}

TEST(OpStream, RealLaunchesBalanceAndCoverTheMakespan) {
  const ir::Program program =
      ir::parse_program("scan(*) ; reduce(+) ; bcast ; allreduce(max)");
  for (const mpsim::Ranks ranks : {mpsim::Ranks::threads, mpsim::Ranks::fibers})
    for (int p = 1; p <= 9; ++p) {
      SCOPED_TRACE(std::string(ranks == mpsim::Ranks::fibers ? "fibers"
                                                             : "threads") +
                   " p=" + std::to_string(p));
      const auto run = exec::run_on_threads_instrumented(
          program, small_input(p), ir::DataPlane::Auto, ranks);
      ASSERT_TRUE(run.rt.enabled);
      const auto prof = rt::profile_snapshot(run.rt);
      std::uint64_t dropped = 0;
      for (const auto& rs : run.rt.per_rank) dropped += rs.dropped;
      if (dropped == 0) {
        EXPECT_TRUE(prof.balanced()) << prof.render_text();
        EXPECT_TRUE(prof.path_complete()) << prof.render_text();
      }
      EXPECT_EQ(prof.stages.size(), program.size());
      expect_hops_to_retained_records(run.rt, prof);
      expect_tiled(prof);
    }
}

TEST(OpStream, DroppedRecordsNeverHopToALostSend) {
  const rt::Config saved = rt::mutable_config();
  rt::mutable_config().ring_capacity = 16;
  const auto run = exec::run_on_threads_instrumented(
      ir::parse_program("scan(*) ; reduce(+) ; bcast ; allreduce(max)"),
      small_input(8));
  rt::mutable_config() = saved;

  const auto rep = rt::build_report(run.rt);
  EXPECT_GT(rep.dropped_total, 0u);
  EXPECT_NE(rep.render_text().find("ring dropped"), std::string::npos);
  std::ostringstream json;
  rep.write_json(json);
  EXPECT_NO_THROW((void)obs::json::parse(json.str()));
  const auto prof = rt::profile_snapshot(run.rt);
  // The run completed, so the messages both rings still hold pair up.
  EXPECT_FALSE(prof.messages.empty());
  expect_hops_to_retained_records(run.rt, prof);
  expect_tiled(prof);
  EXPECT_TRUE(prof.balanced()) << prof.render_text();
  EXPECT_TRUE(prof.path_complete()) << prof.render_text();
}

}  // namespace
}  // namespace colop
