// Embedded stats server: pure routing (handle() needs no sockets), the
// /runs document, and one real loopback round trip — bind an ephemeral
// port, speak HTTP/1.0 over a raw socket, and check the Prometheus body.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "colop/obs/json.h"
#include "colop/obs/live.h"
#include "colop/obs/metrics.h"
#include "colop/obs/run_store.h"
#include "colop/obs/serve.h"
#include "colop/rt/live.h"

namespace obs = colop::obs;
namespace rt = colop::rt;

namespace {

obs::Registry& demo_registry() {
  static obs::Registry reg;
  static const bool init = [] {
    reg.counter("colop_mpsim_messages_total", "messages", {{"rank", "0"}})
        .inc(5);
    reg.gauge("colop_verify_sound", "soundness").set(1);
    return true;
  }();
  (void)init;
  return reg;
}

// Rank 0 of a hand-built fleet completes stage 0, recorded as the
// executor's stage loop does it.
void complete_stage(rt::Fleet& fleet) {
  fleet.recorder(0)->set_stage(0);
  fleet.recorder(0)->log(rt::Ev::stage_begin);
  fleet.recorder(0)->log(rt::Ev::stage_end);
  fleet.stats(0)->stages_done.fetch_add(1);
}

TEST(Serve, RoutesWithoutSockets) {
  obs::StatsServer server(demo_registry());
  EXPECT_EQ(server.handle("GET", "/healthz").status, 200);
  EXPECT_EQ(server.handle("GET", "/healthz").body, "ok state=idle\n");

  const auto metrics = server.handle("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("colop_mpsim_messages_total{rank=\"0\"} 5"),
            std::string::npos);

  const auto mjson = server.handle("GET", "/metrics.json");
  EXPECT_EQ(mjson.status, 200);
  EXPECT_EQ(mjson.content_type, "application/json");
  EXPECT_NO_THROW(obs::json::parse(mjson.body));

  EXPECT_EQ(server.handle("GET", "/nope").status, 404);
  EXPECT_EQ(server.handle("POST", "/metrics").status, 405);
}

TEST(Serve, RunsDocumentMostRecentFirst) {
  obs::StatsServer server(demo_registry());
  obs::RunSummary a;
  a.trace_id = "aaaaaaaaaaaaaaaa";
  a.program = "scan(+)";
  obs::RunSummary b;
  b.trace_id = "bbbbbbbbbbbbbbbb";
  b.program = "bcast";
  b.rewrites = 2;
  b.wall_ms = 1.5;
  server.add_run(a);
  server.add_run(b);

  const auto resp = server.handle("GET", "/runs");
  EXPECT_EQ(resp.status, 200);
  const auto doc = obs::json::parse(resp.body);
  const auto* runs = doc.get("runs");
  ASSERT_TRUE(runs != nullptr);
  ASSERT_EQ(runs->items.size(), 2u);
  EXPECT_EQ(runs->items[0]->get("trace_id")->str, "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(runs->items[0]->get("rewrites")->num, 2);
  EXPECT_EQ(runs->items[0]->get("wall_ms")->num, 1.5);
  EXPECT_EQ(runs->items[1]->get("trace_id")->str, "aaaaaaaaaaaaaaaa");
}

TEST(Serve, RunDetailEndpointServesArchivedManifest) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "serve_run_store";
  std::filesystem::remove_all(root);
  const obs::RunStore store(root.string());
  obs::RunBundle bundle;
  bundle.trace_id = "feedfacefeedface";
  bundle.timestamp = "2026-08-08 10:00:00";
  bundle.timestamp_ns = 42;
  bundle.machine = {8, 64, 400, 2};
  bundle.program_before = bundle.program_after = "scan(+)";
  store.save(bundle);

  obs::StatsServer server(demo_registry());

  // Without an attached store the endpoint 404s with a pointer to --record.
  const auto unattached = server.handle("GET", "/runs/feedfacefeedface");
  EXPECT_EQ(unattached.status, 404);
  EXPECT_NE(unattached.body.find("--record"), std::string::npos);

  server.set_run_store(root.string());
  const auto found = server.handle("GET", "/runs/feedfacefeedface");
  EXPECT_EQ(found.status, 200);
  EXPECT_EQ(found.content_type, "application/json");
  const auto doc = obs::json::parse(found.body);
  EXPECT_EQ(doc.get("kind")->str, "colop_run");
  EXPECT_EQ(doc.get("trace_id")->str, "feedfacefeedface");

  // Unknown id: 404 plus a listing hint naming the archived runs.
  const auto missing = server.handle("GET", "/runs/0123456789abcdef");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("feedfacefeedface"), std::string::npos)
      << missing.body;

  // Traversal-shaped ids never touch the filesystem.
  EXPECT_EQ(server.handle("GET", "/runs/../etc").status, 404);
}

TEST(Serve, UtcTimestampShape) {
  const std::string ts = obs::utc_timestamp();
  ASSERT_EQ(ts.size(), 19u);  // YYYY-mm-dd HH:MM:SS
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], ' ');
  EXPECT_EQ(ts[13], ':');
}

/// One HTTP/1.0 request against 127.0.0.1:`port`; returns the raw reply.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string reply;
  char buf[1024];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    reply.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return reply;
}

TEST(Serve, LoopbackRoundTrip) {
  obs::StatsServer server(demo_registry());
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;  // 0 = ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\r\n\r\nok state=idle\n"), std::string::npos) << health;

  const std::string metrics = http_get(server.port(), "/metrics?scrape=1");
  EXPECT_NE(metrics.find("# TYPE colop_mpsim_messages_total counter"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("colop_verify_sound 1"), std::string::npos);

  const std::string missing = http_get(server.port(), "/bogus");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos) << missing;

  server.stop();  // idempotent with the destructor's stop()
}

TEST(Serve, LiveEndpointsFourOhFourWithoutSampler) {
  obs::StatsServer server(demo_registry());
  const auto live = server.handle("GET", "/live");
  EXPECT_EQ(live.status, 404);
  EXPECT_NE(live.body.find("--live"), std::string::npos);
  const auto live_json = server.handle("GET", "/live.json");
  EXPECT_EQ(live_json.status, 404);
  EXPECT_NE(live_json.body.find("--live"), std::string::npos);
}

TEST(Serve, LiveEndpointsServeSamplerSnapshots) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.trace_id = "feedc0defeedc0de";
  info.program = "scan(+) ; bcast";
  info.stage_labels = {"scan(+)", "bcast"};
  info.ranks = 1;
  sampler.begin_run(info);
  rt::Fleet fleet(1, rt::Config{});
  {
    const rt::LiveLaunch launch(fleet);
    complete_stage(fleet);
  }
  sampler.sample_once();

  obs::StatsServer server(demo_registry());
  server.set_live(&sampler);

  // /healthz reflects the sampler's run state.
  EXPECT_EQ(server.handle("GET", "/healthz").body, "ok state=running\n");

  // /live.json: one parseable snapshot; since/wait_ms long-poll times out
  // to the current snapshot when nothing changes.
  const auto live_json = server.handle("GET", "/live.json");
  EXPECT_EQ(live_json.status, 200);
  EXPECT_EQ(live_json.content_type, "application/json");
  const auto doc = obs::json::parse(live_json.body);
  EXPECT_EQ(doc.get("trace_id")->str, "feedc0defeedc0de");
  EXPECT_EQ(doc.get("state")->str, "running");
  const std::uint64_t seq = static_cast<std::uint64_t>(doc.get("seq")->num);
  const auto polled = server.handle(
      "GET", "/live.json?since=" + std::to_string(seq) + "&wait_ms=30");
  EXPECT_EQ(polled.status, 200);
  EXPECT_NO_THROW(obs::json::parse(polled.body));

  // /live (socket-free fallback): one snapshot frame plus an end frame,
  // framed exactly as the SSE golden demands.
  const auto sse = server.handle("GET", "/live");
  EXPECT_EQ(sse.status, 200);
  EXPECT_EQ(sse.content_type, "text/event-stream");
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(sse.body,
            obs::sse_frame(snap.seq, "snapshot", snap.to_json()) +
                obs::sse_frame(snap.seq, "end",
                               "{\"state\":\"" + snap.state + "\"}"));

  sampler.end_run();
  sampler.sample_once();
  EXPECT_EQ(server.handle("GET", "/healthz").body, "ok state=idle\n");
}

TEST(Serve, RunsDocumentEmbedsLiveProgress) {
  obs::Registry reg;
  rt::LiveSampler sampler(reg);
  rt::LiveRunInfo info;
  info.trace_id = "beefbeefbeefbeef";
  info.stage_labels = {"bcast"};
  info.ranks = 1;
  sampler.begin_run(info);
  rt::Fleet fleet(1, rt::Config{});
  {
    const rt::LiveLaunch launch(fleet);
    complete_stage(fleet);
  }
  sampler.sample_once();

  obs::StatsServer server(demo_registry());
  server.set_live(&sampler);
  obs::RunSummary run;
  run.trace_id = "beefbeefbeefbeef";
  run.program = "bcast";
  run.state = "live";
  server.add_run(run);

  const auto resp = server.handle("GET", "/runs");
  const auto doc = obs::json::parse(resp.body);
  const auto* entry = doc.get("runs")->items[0].get();
  EXPECT_EQ(entry->get("state")->str, "live");
  const auto* live = entry->get("live");
  ASSERT_TRUE(live != nullptr);
  EXPECT_EQ(live->get("progress")->get("stages_done")->num, 1);

  // finish_run flips the state and drops the progress embedding.
  server.finish_run("beefbeefbeefbeef", 12.5);
  const auto after = obs::json::parse(server.handle("GET", "/runs").body);
  const auto* done = after.get("runs")->items[0].get();
  EXPECT_EQ(done->get("state")->str, "done");
  EXPECT_EQ(done->get("wall_ms")->num, 12.5);
  EXPECT_TRUE(done->get("live") == nullptr);
  sampler.end_run();
}

/// Open a TCP connection that sends nothing — a stuck client.
int open_idle_connection(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Slow-client regression: clients that connect and never send a byte must
// not starve other requests.  Workers shed them via the receive timeout,
// so a normal scrape completes while eight of them sit idle.
TEST(Serve, SlowClientsCannotStarveTheServer) {
  obs::StatsServer server(demo_registry());
  server.set_io_timeout_ms(200);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;

  std::vector<int> idle;
  for (int i = 0; i < 8; ++i) {
    const int fd = open_idle_connection(server.port());
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
  }

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;

  for (const int fd : idle) ::close(fd);
  server.stop();
}

}  // namespace
