// Live telemetry: the run lifecycle, the sampler's registry folding and
// snapshot JSON over hand-built fleets, exact counts over many short real
// launches, the wait_newer long-poll primitive, SSE framing goldens, and a
// launches-vs-scraper hammer that TSAN and the monotonic-counter
// assertions both watch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "colop/exec/thread_executor.h"
#include "colop/ir/binop.h"
#include "colop/ir/program.h"
#include "colop/obs/json.h"
#include "colop/obs/live.h"
#include "colop/obs/metrics.h"
#include "colop/rt/live.h"

namespace obs = colop::obs;
namespace rt = colop::rt;
namespace ir = colop::ir;
namespace exec = colop::exec;

namespace {

rt::Config fleet_config(std::size_t ring = 256) {
  rt::Config cfg;
  cfg.ring_capacity = ring;
  return cfg;
}

// One rank's stage on a hand-built fleet, recorded as run_rank does it.
void complete_stage(rt::Fleet& fleet, int rank, std::uint16_t stage) {
  rt::Recorder& rec = *fleet.recorder(rank);
  rt::RankStats& st = *fleet.stats(rank);
  rec.set_stage(stage);
  rec.log(rt::Ev::stage_begin);
  st.stage.store(stage);
  rec.log(rt::Ev::stage_end);
  rec.set_stage(rt::Record::kNoStage);
  st.stage.store(rt::Record::kNoStage);
  st.stages_done.fetch_add(1);
}

// One message on a hand-built fleet, recorded as Comm::send_raw does it.
void send(rt::Fleet& fleet, int rank, int dest, std::uint64_t bytes) {
  fleet.recorder(rank)->log(rt::Ev::send, dest, bytes);
  fleet.stats(rank)->sends.fetch_add(1);
  fleet.stats(rank)->send_bytes.fetch_add(bytes);
}

// One wait on a hand-built fleet: `begin`, then `end` about `ms` later,
// as Mailbox::take and Comm::recv_raw (or Comm::barrier) log them.
// Returns the time the two records span, in ns.
std::uint64_t wait(rt::Fleet& fleet, int rank, rt::Ev begin, rt::Ev end,
                   int ms) {
  rt::Recorder& rec = *fleet.recorder(rank);
  rec.log(begin);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  rec.log(end);
  const std::vector<rt::Record> records = rec.snapshot();
  return records.back().t_ns - records[records.size() - 2].t_ns;
}

// scan(+) ; reduce(+) ; bcast on p blocks of two small integers.
ir::Program three_stages() {
  ir::Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add()).bcast();
  return prog;
}

ir::Dist small_input(int p) {
  ir::Dist input(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r)
    input[static_cast<std::size_t>(r)] = {ir::Value(r), ir::Value(1)};
  return input;
}

TEST(LiveBus, RunLifecycleBumpsSeqOnEveryEdge) {
  obs::Registry reg;
  rt::LiveSampler live(reg);
  const auto s0 = live.run_state();
  EXPECT_FALSE(s0.active);

  rt::LiveRunInfo info;
  info.trace_id = "cafe";
  info.repeats = 3;
  live.begin_run(info);
  const auto s1 = live.run_state();
  EXPECT_TRUE(s1.active);
  EXPECT_GT(s1.seq, s0.seq);
  EXPECT_EQ(s1.info.trace_id, "cafe");

  live.note_repeat(2);
  EXPECT_EQ(live.run_state().repeat, 2);

  live.end_run();
  const auto s2 = live.run_state();
  EXPECT_FALSE(s2.active);
  EXPECT_GT(s2.seq, s1.seq);
  EXPECT_GE(s2.ended_ns, s2.started_ns);

  live.end_run();  // idempotent: no second edge
  EXPECT_EQ(live.run_state().seq, s2.seq);
}

TEST(LiveSampler, FoldsEventsIntoRegistryInstruments) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);  // no start(): drive sample_once()

  rt::LiveRunInfo info;
  info.trace_id = "deadbeef";
  info.program = "scan(+) ; reduce(+)";
  info.stage_labels = {"scan(+)", "reduce(+)"};
  info.ranks = 2;
  info.repeats = 1;
  sampler.begin_run(info);

  rt::Fleet fleet(2, fleet_config());
  {
    const rt::LiveLaunch launch(fleet);
    complete_stage(fleet, 0, 0);
    send(fleet, 0, 1, 512);
    const std::uint64_t recv_ns =
        wait(fleet, 1, rt::Ev::recv_begin, rt::Ev::recv_end, 3);
    const std::uint64_t barrier_ns =
        wait(fleet, 1, rt::Ev::barrier_begin, rt::Ev::barrier_end, 1);
    EXPECT_GE(recv_ns, 3'000'000u);
    EXPECT_GE(barrier_ns, 1'000'000u);
    sampler.sample_once();

    EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "stage_end"}}), 1);
    EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "send"}}), 1);
    EXPECT_EQ(reg.value("colop_live_stage_completions_total"), 1);
    EXPECT_EQ(reg.value("colop_live_sends_total"), 1);
    EXPECT_EQ(reg.value("colop_live_send_bytes_total"), 512);
    EXPECT_NEAR(
        reg.value("colop_live_recv_wait_seconds_total", {{"rank", "1"}}),
        static_cast<double>(recv_ns) / 1e9, 1e-9);
    EXPECT_NEAR(
        reg.value("colop_live_barrier_wait_seconds_total", {{"rank", "1"}}),
        static_cast<double>(barrier_ns) / 1e9, 1e-9);
    EXPECT_EQ(reg.value("colop_live_running"), 1);
    EXPECT_EQ(reg.value("colop_live_progress_stages_done"), 1);
    EXPECT_EQ(reg.value("colop_live_progress_stages"), 4);  // 2 stages × 2 ranks
    EXPECT_EQ(reg.value("colop_live_queue_depth", {{"rank", "0"}}), 0);

    const obs::LiveSnapshot snap = sampler.snapshot();
    EXPECT_EQ(snap.state, "running");
    EXPECT_EQ(snap.trace_id, "deadbeef");
    EXPECT_EQ(snap.stages_done, 1u);
    EXPECT_EQ(snap.stages_total, 4u);
    ASSERT_EQ(snap.ranks.size(), 2u);
    EXPECT_EQ(snap.ranks[0].sends, 1u);
    EXPECT_EQ(snap.ranks[0].send_bytes, 512u);
    EXPECT_NEAR(snap.ranks[1].comm_ms, static_cast<double>(recv_ns) / 1e6, 1e-9);
    EXPECT_NEAR(snap.ranks[1].idle_ms, static_cast<double>(barrier_ns) / 1e6,
                1e-9);

    // A second tick folds only what is new.
    sampler.sample_once();
    EXPECT_EQ(reg.value("colop_live_sends_total"), 1);
    EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "stage_end"}}), 1);
  }

  sampler.end_run();
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "done");
  EXPECT_EQ(reg.value("colop_live_running"), 0);

  // The exposition the sampler writes must satisfy the Prometheus lint the
  // exporter is pinned to.
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_TRUE(obs::prom_lint(os.str()).empty());
}

TEST(LiveSampler, StallEventFlagsRankAndState) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.ranks = 1;
  info.stage_labels = {"bcast"};
  sampler.begin_run(info);
  {
    rt::Fleet stalled(1, fleet_config());
    const rt::LiveLaunch launch(stalled);
    stalled.stats(0)->stalled.store(1);  // the watchdog's verdict
    sampler.sample_once();
    EXPECT_EQ(sampler.snapshot().state, "stalled");
    ASSERT_FALSE(sampler.snapshot().ranks.empty());
    EXPECT_TRUE(sampler.snapshot().ranks[0].stalled);
    EXPECT_EQ(reg.value("colop_live_stalled"), 1);
    EXPECT_EQ(reg.value("colop_live_rank_stalled", {{"rank", "0"}}), 1);
  }

  // The next launch on the rank clears the verdict.
  rt::Fleet next(1, fleet_config());
  const rt::LiveLaunch launch(next);
  complete_stage(next, 0, 0);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "running");
  sampler.end_run();
}

TEST(LiveSampler, IdleWithoutARunAndSeqQuiescesWhenNothingMoves) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "idle");
  const std::uint64_t seq = sampler.snapshot().seq;
  sampler.sample_once();
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().seq, seq);  // no events, no run: no bumps
}

TEST(LiveSampler, SnapshotJsonParsesAndCarriesProgress) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.trace_id = "0123456789abcdef";
  info.program = "bcast ; scan(+)";
  info.stage_labels = {"bcast", "scan(+)"};
  info.ranks = 1;
  info.repeats = 2;
  sampler.begin_run(info);
  sampler.note_repeat(1);
  rt::Fleet fleet(1, fleet_config());
  {
    const rt::LiveLaunch launch(fleet);
    complete_stage(fleet, 0, 0);
  }
  sampler.sample_once();

  const auto doc = obs::json::parse(sampler.snapshot().to_json());
  EXPECT_EQ(doc.get("state")->str, "running");
  EXPECT_EQ(doc.get("trace_id")->str, "0123456789abcdef");
  EXPECT_EQ(doc.get("program")->str, "bcast ; scan(+)");
  const auto* progress = doc.get("progress");
  ASSERT_TRUE(progress != nullptr);
  EXPECT_EQ(progress->get("stages_done")->num, 1);
  EXPECT_EQ(progress->get("stages_total")->num, 4);  // 2 stages × 2 repeats
  EXPECT_EQ(progress->get("repeat")->num, 1);
  EXPECT_EQ(progress->get("repeats")->num, 2);
  const auto* ranks = doc.get("ranks");
  ASSERT_TRUE(ranks != nullptr);
  ASSERT_EQ(ranks->items.size(), 1u);
  EXPECT_EQ(ranks->items[0]->get("stages_done")->num, 1);
  sampler.end_run();
}

TEST(LiveSampler, WaitNewerTimesOutAndWakes) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  sampler.sample_once();
  const std::uint64_t seq = sampler.snapshot().seq;

  // Nothing changes: the poll times out and returns the same snapshot.
  EXPECT_EQ(sampler.wait_newer(seq, 30).seq, seq);

  // A run starting, folded by a concurrent sample, wakes the waiter.
  std::thread waker([&] {
    sampler.begin_run(rt::LiveRunInfo{});
    sampler.sample_once();
  });
  const obs::LiveSnapshot fresh = sampler.wait_newer(seq, 5000);
  waker.join();
  EXPECT_GT(fresh.seq, seq);
  sampler.end_run();
}

TEST(LiveSampler, BackgroundThreadFoldsWithoutManualSampling) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  sampler.begin_run(rt::LiveRunInfo{});
  rt::Fleet fleet(1, fleet_config());
  const rt::LiveLaunch launch(fleet);
  fleet.recorder(0)->log(rt::Ev::mark);
  sampler.start(5);
  EXPECT_EQ(sampler.interval_ms(), 5);
  const obs::LiveSnapshot snap = sampler.wait_newer(0, 5000);
  EXPECT_GE(snap.events_total, 1u);
  sampler.stop();
  EXPECT_GE(reg.value("colop_live_samples_total"), 1);
  sampler.end_run();
}

// A thousand launches, each much shorter than a sampling interval and
// never sampled while in flight: detaching folds each one, so the live
// counters equal what the launches themselves report.  Each rank logs
// ~20 records per launch, ~20k in all — far more than any ring holds, so
// counts taken from drained records would come up short.
TEST(LiveSampler, CountsAreExactOverManyShortLaunches) {
  constexpr int kP = 8;
  constexpr int kLaunches = 1000;
  const ir::Program prog = three_stages();
  const ir::Dist input = small_input(kP);
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.ranks = kP;
  info.stage_labels = {"scan(+)", "reduce(+)", "bcast"};
  info.repeats = kLaunches;
  sampler.begin_run(info);
  double messages = 0;
  for (int i = 0; i < kLaunches; ++i) {
    sampler.note_repeat(i);
    messages += static_cast<double>(
        exec::run_on_threads_instrumented(prog, input).traffic.messages);
  }
  sampler.sample_once();

  const double stages = 3.0 * kP * kLaunches;
  EXPECT_EQ(reg.value("colop_live_stage_completions_total"), stages);
  EXPECT_EQ(reg.value("colop_live_sends_total"), messages);
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(static_cast<double>(snap.stages_done), stages);
  EXPECT_EQ(snap.stages_total, snap.stages_done);
  ASSERT_EQ(snap.ranks.size(), static_cast<std::size_t>(kP));
  for (const obs::LiveRankRow& row : snap.ranks) {
    EXPECT_EQ(row.stages_done, 3u * kLaunches);
    EXPECT_EQ(row.stage, -1);
  }
  sampler.end_run();
}

// With the flight recorder off there is nothing to read: the run still
// reports its lifecycle, without rank rows.
TEST(LiveSampler, RuntimeTelemetryOffKeepsRunStateWithoutRankRows) {
  rt::Config& cfg = rt::mutable_config();
  const rt::Config saved = cfg;
  cfg.enabled = false;
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.trace_id = "0ff0ff0ff0ff0ff0";
  info.ranks = 4;
  info.stage_labels = {"scan(+)", "reduce(+)", "bcast"};
  sampler.begin_run(info);
  for (int i = 0; i < 3; ++i)
    (void)exec::run_on_threads_instrumented(three_stages(), small_input(4));
  sampler.sample_once();
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.state, "running");
  EXPECT_EQ(snap.trace_id, "0ff0ff0ff0ff0ff0");
  EXPECT_TRUE(snap.ranks.empty());
  EXPECT_EQ(snap.stages_done, 0u);
  EXPECT_NO_THROW(obs::json::parse(snap.to_json()));
  sampler.end_run();
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "done");
  cfg = saved;
}

// Client threads launch real SPMD runs — each attaching and detaching its
// fleet — while a scraper thread interleaves sample_once() with full
// Prometheus expositions.  TSAN watches the locking and memory-order
// contract; the assertions watch counter monotonicity and that every
// record was either folded or counted as dropped.
TEST(LiveHammer, CountersStayMonotonicUnderConcurrentScrapes) {
  rt::Config& cfg = rt::mutable_config();
  const rt::Config saved = cfg;
  cfg.ring_capacity = 16;  // small rings force lap-and-drop paths
  constexpr int kClients = 3;
  constexpr int kLaunches = 40;
  constexpr int kP = 4;
  const ir::Program prog = three_stages();
  const ir::Dist input = small_input(kP);

  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.ranks = kP;
  info.stage_labels = {"scan(+)", "reduce(+)", "bcast"};
  info.repeats = kClients * kLaunches;
  sampler.begin_run(info);

  std::atomic<bool> go{false};
  std::atomic<int> finished{0};
  std::vector<std::uint64_t> logged(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kLaunches; ++i) {
        const auto run = exec::run_on_threads_instrumented(prog, input);
        for (const rt::RankSnapshot& rs : run.rt.per_rank)
          logged[static_cast<std::size_t>(c)] += rs.logged;
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }

  go.store(true, std::memory_order_release);
  double last_events = 0;
  double last_completions = 0;
  int scrapes = 0;
  while (finished.load(std::memory_order_acquire) < kClients || scrapes < 20) {
    sampler.sample_once();
    std::ostringstream os;
    reg.write_prometheus(os);
    const double events =
        reg.value("colop_live_events_total", {{"kind", "stage_end"}}) +
        reg.value("colop_live_dropped_events_total");
    const double completions =
        reg.value("colop_live_stage_completions_total");
    EXPECT_GE(events, last_events);
    EXPECT_GE(completions, last_completions);
    last_events = events;
    last_completions = completions;
    ++scrapes;
  }
  for (auto& th : clients) th.join();
  sampler.end_run();
  sampler.sample_once();
  cfg = saved;

  // Every record was either folded or counted as dropped; nothing vanished.
  std::uint64_t total = 0;
  for (const std::uint64_t n : logged) total += n;
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.events_total + snap.dropped_total, total);
  EXPECT_EQ(snap.stages_done,
            static_cast<std::uint64_t>(3 * kP * kClients * kLaunches));
  EXPECT_EQ(snap.state, "done");
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_TRUE(obs::prom_lint(os.str()).empty());
}

TEST(SseFrame, SingleLineGolden) {
  EXPECT_EQ(obs::sse_frame(7, "snapshot", R"({"seq":7})"),
            "id: 7\nevent: snapshot\ndata: {\"seq\":7}\n\n");
}

TEST(SseFrame, EndFrameGolden) {
  EXPECT_EQ(obs::sse_frame(42, "end", R"({"state":"done"})"),
            "id: 42\nevent: end\ndata: {\"state\":\"done\"}\n\n");
}

TEST(SseFrame, MultiLineDataSplitsPerSpec) {
  EXPECT_EQ(obs::sse_frame(1, "snapshot", "line1\nline2\nline3"),
            "id: 1\nevent: snapshot\n"
            "data: line1\ndata: line2\ndata: line3\n\n");
  // A trailing newline yields a final empty data field, still terminated.
  EXPECT_EQ(obs::sse_frame(2, "snapshot", "x\n"),
            "id: 2\nevent: snapshot\ndata: x\ndata: \n\n");
}

}  // namespace
