// Stall watchdog and post-mortem paths (satellite: worker exceptions
// propagate with rank + stage context and release peers blocked in recv).
//
// The acceptance scenario lives here: a deliberately stalled rank must
// trigger a watchdog post-mortem containing the last events of every rank,
// and the launcher must surface the stall as an error instead of hanging.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/mpsim/mpsim.h"
#include "colop/obs/json.h"
#include "colop/rt/flight_recorder.h"
#include "colop/rt/op_stream.h"
#include "colop/rt/watchdog.h"
#include "colop/support/error.h"

namespace colop {
namespace {

using rt::Config;
using rt::Ev;
using rt::Fleet;
using rt::StallInfo;
using rt::Watchdog;
using rt::WatchdogOptions;

struct ConfigGuard {
  Config saved = rt::mutable_config();
  ~ConfigGuard() { rt::mutable_config() = saved; }
};

constexpr mpsim::Ranks kBothModes[] = {mpsim::Ranks::threads,
                                       mpsim::Ranks::fibers};

const char* mode_name(mpsim::Ranks ranks) {
  return ranks == mpsim::Ranks::fibers ? "fibers" : "threads";
}

/// Count the message flow arrows ("msg" flows) in a Chrome trace and keep
/// the id of the last start and of the last end.
void count_message_flows(const std::string& trace, int& starts,
                         std::uint64_t& start_id, int& ends,
                         std::uint64_t& end_id) {
  const auto doc = obs::json::parse(trace);
  for (const auto& ev : doc.get("traceEvents")->items) {
    const auto* name = ev->get("name");
    if (name == nullptr || name->str != "msg") continue;
    const auto id = static_cast<std::uint64_t>(ev->get("id")->num);
    if (ev->get("ph")->str == "s") {
      ++starts;
      start_id = id;
    } else if (ev->get("ph")->str == "f") {
      ++ends;
      end_id = id;
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(Watchdog, DetectsSilentRank) {
  Config cfg;
  cfg.ring_capacity = 64;
  Fleet fleet(2, cfg);
  fleet.recorder(0)->log(Ev::mark);
  fleet.recorder(1)->log(Ev::mark);
  fleet.stats(1)->done.store(1, std::memory_order_release);

  std::atomic<int> aborts{0};
  std::vector<StallInfo> seen;
  WatchdogOptions opts;
  opts.deadline_ms = 20;
  opts.poll_ms = 5;
  opts.on_stall = [&](const std::vector<StallInfo>& s) { seen = s; };
  Watchdog dog(fleet, opts, [&] { aborts.fetch_add(1); });

  for (int i = 0; i < 400 && !dog.stalled(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(dog.stalled());
  dog.stop();

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].rank, 0);
  EXPECT_GT(seen[0].idle_ns, 0u);
  EXPECT_EQ(aborts.load(), 1);
  EXPECT_NE(dog.describe().find("rank 0"), std::string::npos);
}

TEST(Watchdog, DoneRanksAreNotStalls) {
  Config cfg;
  cfg.ring_capacity = 64;
  Fleet fleet(2, cfg);
  for (int r = 0; r < 2; ++r) {
    fleet.recorder(r)->log(Ev::mark);
    rt::RankStats* st = fleet.stats(r);
    ASSERT_NE(st, nullptr);
    st->done.store(1, std::memory_order_release);
  }
  WatchdogOptions opts;
  opts.deadline_ms = 10;
  opts.poll_ms = 2;
  Watchdog dog(fleet, opts, [] {});
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(dog.stalled());
  dog.stop();
}

// Acceptance scenario: one rank blocks forever in recv, the rest pile into
// a barrier behind it.  The launch must dump a post-mortem with the last
// events of EVERY rank, release the blocked ranks, and report the stall as
// a colop::Error.  On threads the watchdog finds the stall after its
// deadline and aborts the group; on fibers the launch sees at once that
// no rank can go on, and each blocked rank throws its own report.
TEST(Watchdog, StalledRecvTriggersPostMortemAndReleasesPeers) {
  ConfigGuard guard;
  auto& cfg = rt::mutable_config();
  cfg.enabled = true;
  cfg.watchdog_ms = 80;
  cfg.watchdog_poll_ms = 10;
  const std::string prefix = testing::TempDir() + "colop_rt_stall";
  cfg.dump_path = prefix;

  for (mpsim::Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    bool threw = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      mpsim::run_spmd(
          4,
          [](mpsim::Comm& comm) {
            if (comm.rank() == 0) {
              // Deliberate stall: nobody ever sends on this tag.
              (void)comm.recv<int>(1, 7);
            } else {
              comm.send(comm.rank(), 1, 3);  // a little self-traffic, then block
              (void)comm.recv<int>(comm.rank(), 3);
              comm.barrier();  // waits for rank 0, which never arrives
            }
          },
          ranks);
    } catch (const Error& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("stall"), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(threw) << "stall was not surfaced as an error";
    // The whole thing must resolve in bounded time — blocked peers released.
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));

    const std::string text = slurp(prefix + ".txt");
    ASSERT_FALSE(text.empty()) << "post-mortem text missing";
    for (int r = 0; r < 4; ++r)
      EXPECT_NE(text.find("rank " + std::to_string(r)), std::string::npos)
          << "post-mortem lacks rank " << r << ":\n"
          << text;
    EXPECT_NE(text.find("recv_begin"), std::string::npos) << text;
    EXPECT_NE(text.find("barrier_begin"), std::string::npos) << text;

    const std::string trace = slurp(prefix + ".trace.json");
    EXPECT_NE(trace.find("traceEvents"), std::string::npos);
    // Ranks 1..3 received their own messages before blocking: the dump
    // parses and draws those flows.
    int starts = 0, ends = 0;
    std::uint64_t start_id = 0, end_id = 0;
    EXPECT_NO_THROW(
        count_message_flows(trace, starts, start_id, ends, end_id));
    EXPECT_GE(starts, 1) << trace;
    EXPECT_EQ(starts, ends) << trace;
    std::remove((prefix + ".txt").c_str());
    std::remove((prefix + ".trace.json").c_str());
  }
}

// Satellite: a stage that throws reaches the caller with rank + stage
// context, not as a bare payload error or a deadlock.
TEST(ThreadExecutor, ExceptionCarriesRankAndStageContext) {
  ir::Program p = ir::parse_program("scan(band)");  // band needs integers
  ir::Dist in(4);
  for (auto& b : in) b = {ir::Value(1.5)};
  for (mpsim::Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    try {
      (void)exec::run_on_threads(p, in, ir::DataPlane::Auto, ranks);
      FAIL() << "expected a type error from band on doubles";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank "), std::string::npos) << what;
      EXPECT_NE(what.find("failed in stage 0"), std::string::npos) << what;
      EXPECT_NE(what.find("scan(band)"), std::string::npos) << what;
    }
  }
}

// Satellite: a rank exception releases a peer blocked in recv (the group
// abort wakes it), and with COLOP_RT_DUMP set the launcher leaves a
// post-mortem behind.
TEST(Watchdog, UncaughtExceptionDumpsPostMortemAndReleasesPeer) {
  ConfigGuard guard;
  auto& cfg = rt::mutable_config();
  cfg.enabled = true;
  cfg.watchdog_ms = 0;  // watchdog off: this is the exception path
  const std::string prefix = testing::TempDir() + "colop_rt_exc";
  cfg.dump_path = prefix;

  for (mpsim::Ranks ranks : kBothModes) {
    SCOPED_TRACE(mode_name(ranks));
    try {
      mpsim::run_spmd(
          2,
          [](mpsim::Comm& comm) {
            if (comm.rank() == 1) (void)comm.recv<int>(0, 9);  // never sent
            throw Error("boom on rank 0");
          },
          ranks);
      FAIL() << "expected the rank 0 exception";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("boom on rank 0"),
                std::string::npos);
    }

    const std::string text = slurp(prefix + ".txt");
    EXPECT_NE(text.find("uncaught rank exception"), std::string::npos) << text;
    std::remove((prefix + ".txt").c_str());
    std::remove((prefix + ".trace.json").c_str());
  }
}

TEST(OpStream, PairsSendsWithRecvFlowArrows) {
  Config cfg;
  cfg.ring_capacity = 32;
  Fleet fleet(2, cfg);
  fleet.recorder(0)->log(Ev::send, 1, 16, 5);
  fleet.recorder(1)->log(Ev::recv_begin, 0, 0, 5);
  fleet.recorder(1)->log(Ev::recv_end, 0, 16, 5);

  std::ostringstream trace;
  rt::profile_snapshot(fleet.snapshot()).write_chrome_trace(trace);
  std::uint64_t start_id = 0, end_id = 0;
  int starts = 0, ends = 0;
  count_message_flows(trace.str(), starts, start_id, ends, end_id);
  EXPECT_EQ(starts, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(start_id, end_id) << "send and recv must share a flow id";
}

}  // namespace
}  // namespace colop
