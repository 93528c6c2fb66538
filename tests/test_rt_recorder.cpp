// Flight-recorder core: record packing, ring wrap/lap accounting, cursor
// drains, SPSC snapshot consistency under a live producer, and the disabled
// configurations that must cost nothing (satellite: zero-overhead when
// telemetry is off — no ring allocated, no events emitted).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/rt/flight_recorder.h"

namespace colop {
namespace {

using rt::Config;
using rt::Ev;
using rt::Fleet;
using rt::FleetSnapshot;
using rt::Record;
using rt::Recorder;

/// Restore the process-wide rt config after a test that mutates it.
struct ConfigGuard {
  Config saved = rt::mutable_config();
  ~ConfigGuard() { rt::mutable_config() = saved; }
};

std::chrono::steady_clock::time_point epoch() {
  return std::chrono::steady_clock::now();
}

TEST(Recorder, PackingRoundTrip) {
  Recorder rec(64, epoch());
  rec.set_stage(7);
  rec.log(Ev::send, 3, 4096, 42);
  rec.set_stage(Record::kNoStage);
  rec.log(Ev::mark, -1, 0, 9);

  const auto recs = rec.snapshot();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, Ev::send);
  EXPECT_EQ(recs[0].stage, 7);
  EXPECT_EQ(recs[0].peer, 3);
  EXPECT_EQ(recs[0].bytes, 4096u);
  EXPECT_EQ(recs[0].aux, 42u);
  EXPECT_EQ(recs[0].seq, 0u);
  EXPECT_EQ(recs[1].kind, Ev::mark);
  EXPECT_EQ(recs[1].stage, Record::kNoStage);
  EXPECT_EQ(recs[1].peer, -1);
  EXPECT_EQ(recs[1].seq, 1u);
  EXPECT_GE(recs[1].t_ns, recs[0].t_ns);
}

TEST(Recorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Recorder(1, epoch()).capacity(), 16u);
  EXPECT_EQ(Recorder(17, epoch()).capacity(), 32u);
  EXPECT_EQ(Recorder(1000, epoch()).capacity(), 1024u);
  EXPECT_EQ(Recorder(1024, epoch()).capacity(), 1024u);
}

TEST(Recorder, RingWrapKeepsNewestRecords) {
  Recorder rec(16, epoch());
  for (std::uint64_t i = 0; i < 40; ++i) rec.log(Ev::mark, -1, 0, i);
  EXPECT_EQ(rec.head(), 40u);

  const auto recs = rec.snapshot();
  ASSERT_EQ(recs.size(), 16u);
  EXPECT_EQ(recs.front().seq, 24u);
  EXPECT_EQ(recs.front().aux, 24u);
  EXPECT_EQ(recs.back().seq, 39u);
  EXPECT_EQ(recs.back().aux, 39u);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq, recs[i - 1].seq + 1);
    EXPECT_GE(recs[i].t_ns, recs[i - 1].t_ns);
  }
}

TEST(Recorder, DrainReturnsRecordsSinceTheCursorAndCountsLapped) {
  Recorder rec(16, epoch());
  std::uint64_t cursor = 0;
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < 5; ++i) rec.log(Ev::mark, -1, 0, i);
  EXPECT_EQ(rec.drain(cursor, out), 0u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(cursor, 5u);

  // 40 more: the ring keeps the newest 16, so 24 of them were lost.
  out.clear();
  for (std::uint64_t i = 5; i < 45; ++i) rec.log(Ev::mark, -1, 0, i);
  EXPECT_EQ(rec.drain(cursor, out), 24u);
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.front().aux, 29u);
  EXPECT_EQ(out.back().aux, 44u);
  EXPECT_EQ(cursor, 45u);

  out.clear();
  EXPECT_EQ(rec.drain(cursor, out), 0u);  // nothing new
  EXPECT_TRUE(out.empty());
}

// The SPSC contract: a consumer snapshotting while the producer laps the
// ring must never observe a torn record.  Every record carries bytes ==
// aux; a mismatch would mean words from two different log() calls.
TEST(Recorder, SnapshotIsConsistentUnderLiveProducer) {
  Recorder rec(64, epoch());
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      rec.log(Ev::mark, static_cast<std::int32_t>(i & 7), i, i);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    const auto recs = rec.snapshot();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      ASSERT_EQ(recs[i].kind, Ev::mark);
      ASSERT_EQ(recs[i].bytes, recs[i].aux) << "torn record";
      ASSERT_EQ(recs[i].bytes, recs[i].seq) << "lapped record not discarded";
      if (i > 0) {
        ASSERT_EQ(recs[i].seq, recs[i - 1].seq + 1);
      }
    }
  }
  stop.store(true);
  producer.join();
}

TEST(Fleet, DisabledConfigAllocatesNothing) {
  Config cfg;
  cfg.enabled = false;
  Fleet fleet(4, cfg);
  EXPECT_FALSE(fleet.enabled());
  EXPECT_EQ(fleet.recorder(0), nullptr);
  EXPECT_EQ(fleet.recorder(3), nullptr);
  // No ring, but the stats slots stay: they count every send.
  ASSERT_NE(fleet.stats(2), nullptr);
  EXPECT_EQ(fleet.stats(2)->sends.load(), 0u);

  const auto snap = fleet.snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.per_rank.empty());
}

TEST(Fleet, EnabledFleetKeepsPerRankSlots) {
  Config cfg;
  cfg.ring_capacity = 32;
  Fleet fleet(2, cfg);
  ASSERT_TRUE(fleet.enabled());
  fleet.recorder(0)->log(Ev::mark);
  fleet.recorder(1)->log(Ev::send, 0, 8, 1);
  fleet.stats(1)->sends.fetch_add(1, std::memory_order_relaxed);
  fleet.set_stage_labels({"scan(+)"});

  const auto snap = fleet.snapshot();
  EXPECT_TRUE(snap.enabled);
  ASSERT_EQ(snap.per_rank.size(), 2u);
  EXPECT_EQ(snap.per_rank[0].records.size(), 1u);
  EXPECT_EQ(snap.per_rank[1].records.size(), 1u);
  EXPECT_EQ(snap.per_rank[1].stats.sends, 1u);
  ASSERT_EQ(snap.stage_labels.size(), 1u);
  EXPECT_EQ(snap.stage_label(0), "scan(+)");
}

TEST(FleetSnapshot, StageLabelFallsBack) {
  FleetSnapshot snap;
  snap.stage_labels = {"scan(+)"};
  EXPECT_EQ(snap.stage_label(0), "scan(+)");
  EXPECT_EQ(snap.stage_label(5), "stage#5");
  EXPECT_EQ(snap.stage_label(Record::kNoStage), "");
}

// Satellite (zero overhead): with the recorder disabled at runtime a full
// threaded execution emits no telemetry at all — the snapshot is empty and
// the result is still correct.
TEST(Fleet, DisabledRuntimeEmitsNoEventsOnThreadedRun) {
  ConfigGuard guard;
  rt::mutable_config().enabled = false;

  ir::Program p;
  p.scan(ir::op_add()).bcast();
  const auto run =
      exec::run_on_threads_instrumented(p, ir::dist_of_ints({1, 2, 3, 4}));
  EXPECT_FALSE(run.rt.enabled);
  EXPECT_TRUE(run.rt.per_rank.empty());
  EXPECT_EQ(run.output.size(), 4u);
}

TEST(Fleet, EnabledRuntimeCapturesThreadedRun) {
  ConfigGuard guard;
  rt::mutable_config().enabled = true;

  ir::Program p;
  p.scan(ir::op_add()).bcast();
  const auto run =
      exec::run_on_threads_instrumented(p, ir::dist_of_ints({1, 2, 3, 4}));
  ASSERT_TRUE(run.rt.enabled);
  ASSERT_EQ(run.rt.per_rank.size(), 4u);
  ASSERT_EQ(run.rt.stage_labels.size(), p.size());
  std::uint64_t sends = 0;
  for (const auto& r : run.rt.per_rank) {
    EXPECT_GT(r.records.size(), 0u) << "rank " << r.rank;
    EXPECT_EQ(r.dropped, 0u);
    sends += r.stats.sends;
    EXPECT_TRUE(r.stats.done);
  }
  EXPECT_GT(sends, 0u);
  // The executor logs the chosen data plane as the first record.
  EXPECT_EQ(run.rt.per_rank[0].records.front().kind, Ev::plane);
}

TEST(Config, DefaultsAreUsable) {
  const Config& cfg = rt::config();
  EXPECT_GE(cfg.ring_capacity, 16u);
  EXPECT_GE(cfg.watchdog_ms, 0.0);
}

}  // namespace
}  // namespace colop
