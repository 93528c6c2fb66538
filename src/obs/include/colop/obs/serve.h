#pragma once
// Embedded stats server: a bounded-concurrency HTTP/1.0 responder exposing
// the telemetry hub over a loopback socket — the first brick of colopd.
//
// Endpoints:
//   GET /metrics       Prometheus text exposition of the Registry
//   GET /metrics.json  the same registry as JSON
//   GET /runs          recent runs (live first): trace id + state + summary
//   GET /runs/<id>     archived bundle manifest from the run store
//   GET /live          Server-Sent Events stream of live snapshots
//   GET /live.json     one snapshot; ?since=SEQ&wait_ms=T long-polls
//   GET /healthz       liveness + run state ("ok state=idle|running|stalled")
//
// Scope by design: HTTP/1.0, Connection: close, GET only, loopback bind.
// One accept thread feeds a bounded queue drained by a small worker pool;
// client sockets carry send/receive timeouts so a slow or wedged client
// can neither block the accept loop nor pin a worker forever (the queue
// overflowing answers 503 instead of stalling).  Request handling stays
// pure — handle() maps a method+path to a response, /live included (it
// returns a single-frame SSE document; the socket path upgrades it to a
// real stream) — so tests and future daemons can drive it without sockets.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace colop::obs {

class Registry;
class LiveView;

/// One run, as shown by GET /runs.  state is "live" while the execution
/// is still in flight (colopt --serve --live) and "done" afterwards.
struct RunSummary {
  std::string trace_id;
  std::string program;          ///< source program text
  std::string optimized;        ///< program after rewriting
  std::string started_at;       ///< wall-clock, "YYYY-mm-dd HH:MM:SS" UTC
  std::string state = "done";   ///< "live" | "done"
  int rewrites = 0;             ///< rules applied
  double model_cost_before = 0; ///< analytic cost, op units
  double model_cost_after = 0;
  double wall_ms = 0;           ///< threaded execution, 0 if none ran
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class StatsServer {
 public:
  explicit StatsServer(Registry& registry) : registry_(registry) {}
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;
  ~StatsServer() { stop(); }

  /// Record a run for /runs (most recent first; bounded history).
  void add_run(RunSummary run);

  /// Flip a live run to "done" and stamp its wall time; /runs then stops
  /// embedding mid-run progress for it.
  void finish_run(const std::string& trace_id, double wall_ms);

  /// Attach a run-store root for GET /runs/<trace_id> (archived bundle
  /// manifests).  Without one, the detail endpoint 404s with a hint.
  void set_run_store(std::string root);

  /// Attach the live view backing /live, /live.json, the healthz run
  /// state, and /runs progress embedding (colopt passes its
  /// rt::LiveSampler).  Must outlive the server.
  void set_live(const LiveView* live);

  /// Route one request.  `path` may carry a query string (used by
  /// /live.json's since/wait_ms).  Unknown paths give 404, non-GET 405.
  [[nodiscard]] HttpResponse handle(const std::string& method,
                                    const std::string& path) const;

  /// Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and serve
  /// on background threads.  Returns false with `*error` set on failure.
  bool start(int port, std::string* error = nullptr);
  /// The bound port; valid after start() succeeded.
  [[nodiscard]] int port() const { return port_; }
  /// Block until the server shuts down (stop(), SIGINT via
  /// install_signal_stop(), or process death).  colopt --serve's steady
  /// state.
  void wait();
  /// Shut the listener down, drain the queue, join all threads.  Idempotent.
  void stop();

  /// Route SIGINT/SIGTERM to a clean server shutdown: the handler performs
  /// an async-signal-safe ::shutdown of the listening socket, which pops
  /// the accept loop and lets wait() return.  Call after start().
  void install_signal_stop();

  /// The /runs document: {"runs":[...]} most recent first, live runs
  /// annotated with heartbeat + progress from the sampler.
  void write_runs_json(std::ostream& os) const;

  // Pool knobs; effective only before start().
  void set_workers(int n) { workers_wanted_ = n; }
  void set_queue_capacity(int n) { queue_capacity_ = n; }
  void set_io_timeout_ms(int ms) { io_timeout_ms_ = ms; }
  void set_max_streams(int n) { max_streams_ = n; }

 private:
  void accept_loop();
  void worker_loop();
  void serve_client(int fd);
  void stream_live(int fd);
  [[nodiscard]] std::string health_state() const;

  Registry& registry_;
  mutable std::mutex runs_mutex_;
  std::deque<RunSummary> runs_;          ///< front = most recent
  std::size_t max_runs_ = 64;
  std::string run_store_root_;           ///< "" = no store attached
  std::atomic<const LiveView*> live_{nullptr};

  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  int workers_wanted_ = 4;
  int queue_capacity_ = 64;
  int io_timeout_ms_ = 2000;
  int max_streams_ = 2;
  std::atomic<int> streams_active_{0};
  std::atomic<bool> stopping_{false};
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> client_queue_;
};

/// Serialize one SSE frame (re-exported from live.h for callers that only
/// include serve.h).
[[nodiscard]] std::string sse_frame(std::uint64_t id, std::string_view event,
                                    std::string_view data);

/// "YYYY-mm-dd HH:MM:SS" UTC now — the timestamp format used by /runs and
/// bench history snapshots.
[[nodiscard]] std::string utc_timestamp();

}  // namespace colop::obs
