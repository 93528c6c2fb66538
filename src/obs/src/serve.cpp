#include "colop/obs/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <sstream>
#include <utility>

#include "colop/obs/json.h"
#include "colop/obs/live.h"
#include "colop/obs/metrics.h"
#include "colop/obs/run_store.h"

namespace colop::obs {
namespace {

std::string status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Serialize a complete HTTP/1.0 response.
std::string render_response(const HttpResponse& r) {
  std::ostringstream os;
  os << "HTTP/1.0 " << r.status << " " << status_text(r.status) << "\r\n"
     << "Content-Type: " << r.content_type << "\r\n"
     << "Content-Length: " << r.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << r.body;
  return os.str();
}

/// Read until the end of the request head (or 4 KiB); we only need the
/// request line, the rest is drained for protocol hygiene.  The socket
/// carries SO_RCVTIMEO, so a wedged client surfaces as a short read here
/// instead of pinning the worker.
std::string read_request_head(int fd) {
  std::string head;
  char buf[1024];
  while (head.size() < 4096) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos)
      break;
  }
  return head;
}

/// Send everything or report failure (timeout / peer gone).
bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Pull an integer query parameter ("since=42") out of a query string.
std::uint64_t query_u64(std::string_view query, std::string_view key,
                        std::uint64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view item = query.substr(pos, amp - pos);
    if (item.size() > key.size() + 1 && item.substr(0, key.size()) == key &&
        item[key.size()] == '=') {
      const std::string digits(item.substr(key.size() + 1));
      char* end = nullptr;
      const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
      if (end != digits.c_str()) return v;
    }
    pos = amp + 1;
  }
  return fallback;
}

/// Listener fd for the async-signal-safe stop handler.  One server per
/// process installs it (colopt); last installer wins.
std::atomic<int> g_signal_fd{-1};

extern "C" void stats_server_signal_handler(int) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  // shutdown() is async-signal-safe; it pops the blocking accept().
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%d %H:%M:%S", &tm);
  return buf;
}

void StatsServer::add_run(RunSummary run) {
  const std::lock_guard<std::mutex> lock(runs_mutex_);
  runs_.push_front(std::move(run));
  while (runs_.size() > max_runs_) runs_.pop_back();
}

void StatsServer::finish_run(const std::string& trace_id, double wall_ms) {
  const std::lock_guard<std::mutex> lock(runs_mutex_);
  for (auto& r : runs_) {
    if (r.trace_id == trace_id) {
      r.state = "done";
      r.wall_ms = wall_ms;
      return;
    }
  }
}

void StatsServer::set_run_store(std::string root) {
  const std::lock_guard<std::mutex> lock(runs_mutex_);
  run_store_root_ = std::move(root);
}

void StatsServer::set_live(const LiveView* live) {
  live_.store(live, std::memory_order_release);
}

std::string StatsServer::health_state() const {
  const LiveView* live = live_.load(std::memory_order_acquire);
  if (live == nullptr) return "idle";
  const std::string state = live->snapshot().state;
  return state == "done" ? "idle" : state;
}

void StatsServer::write_runs_json(std::ostream& os) const {
  const LiveView* live = live_.load(std::memory_order_acquire);
  LiveSnapshot snap;
  if (live != nullptr) snap = live->snapshot();
  const std::lock_guard<std::mutex> lock(runs_mutex_);
  os << "{\"runs\":[";
  bool first = true;
  for (const auto& r : runs_) {
    if (!first) os << ",";
    first = false;
    os << "{\"trace_id\":" << json::quote(r.trace_id)
       << ",\"state\":" << json::quote(r.state)
       << ",\"program\":" << json::quote(r.program)
       << ",\"optimized\":" << json::quote(r.optimized)
       << ",\"started_at\":" << json::quote(r.started_at)
       << ",\"rewrites\":" << r.rewrites
       << ",\"model_cost_before\":" << json::number(r.model_cost_before)
       << ",\"model_cost_after\":" << json::number(r.model_cost_after)
       << ",\"wall_ms\":" << json::number(r.wall_ms);
    if (r.state == "live" && r.trace_id == snap.trace_id) {
      os << ",\"live\":{\"heartbeat_ms\":" << json::number(snap.heartbeat_ms)
         << ",\"elapsed_ms\":" << json::number(snap.elapsed_ms)
         << ",\"progress\":{\"stages_done\":" << snap.stages_done
         << ",\"stages_total\":" << snap.stages_total
         << ",\"repeat\":" << snap.repeat << ",\"repeats\":" << snap.repeats
         << ",\"eta_ms\":" << json::number(snap.eta_ms) << "},\"ranks\":[";
      for (std::size_t i = 0; i < snap.ranks.size(); ++i) {
        if (i > 0) os << ",";
        os << "{\"rank\":" << snap.ranks[i].rank << ",\"last_event_ms\":"
           << json::number(snap.ranks[i].last_event_ms) << "}";
      }
      os << "]}";
    }
    os << "}";
  }
  os << "]}\n";
}

HttpResponse StatsServer::handle(const std::string& method,
                                 const std::string& raw_path) const {
  if (method != "GET")
    return {405, "text/plain; charset=utf-8", "method not allowed\n"};
  std::string path = raw_path;
  std::string query;
  if (const auto q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path.resize(q);
  }
  if (path == "/healthz")
    return {200, "text/plain; charset=utf-8", "ok state=" + health_state() + "\n"};
  if (path == "/metrics") {
    std::ostringstream os;
    registry_.write_prometheus(os);
    return {200, "text/plain; version=0.0.4; charset=utf-8", os.str()};
  }
  if (path == "/metrics.json") {
    std::ostringstream os;
    registry_.write_json(os);
    return {200, "application/json", os.str()};
  }
  if (path == "/live.json") {
    const LiveView* live = live_.load(std::memory_order_acquire);
    if (live == nullptr)
      return {404, "text/plain; charset=utf-8",
              "no live sampler attached; run colopt --serve --live\n"};
    const std::uint64_t since = query_u64(query, "since", 0);
    const std::uint64_t wait_ms = query_u64(query, "wait_ms", 0);
    const LiveSnapshot snap =
        wait_ms > 0
            ? live->wait_newer(since, static_cast<double>(
                                          wait_ms > 30000 ? 30000 : wait_ms))
            : live->snapshot();
    return {200, "application/json", snap.to_json() + "\n"};
  }
  if (path == "/live") {
    // Socket-free fallback: one snapshot frame + a terminating end frame.
    // The socket path (stream_live) serves the real stream.
    const LiveView* live = live_.load(std::memory_order_acquire);
    if (live == nullptr)
      return {404, "text/plain; charset=utf-8",
              "no live sampler attached; run colopt --serve --live\n"};
    const LiveSnapshot snap = live->snapshot();
    std::string body = sse_frame(snap.seq, "snapshot", snap.to_json());
    body += sse_frame(snap.seq, "end", "{\"state\":\"" + snap.state + "\"}");
    return {200, "text/event-stream", std::move(body)};
  }
  if (path == "/runs") {
    std::ostringstream os;
    write_runs_json(os);
    return {200, "application/json", os.str()};
  }
  if (path.rfind("/runs/", 0) == 0) {
    const std::string id = path.substr(6);
    std::string root;
    {
      const std::lock_guard<std::mutex> lock(runs_mutex_);
      root = run_store_root_;
    }
    if (root.empty())
      return {404, "text/plain; charset=utf-8",
              "no run store attached; record runs with colopt --record\n"};
    const RunStore store(root);
    if (auto manifest = store.manifest_text(id))
      return {200, "application/json", std::move(*manifest)};
    std::string body = "run " + id + " not found; archived runs:\n";
    const auto ids = store.list();
    if (ids.empty()) body += "  (none)\n";
    for (const auto& known : ids) body += "  " + known + "\n";
    return {404, "text/plain; charset=utf-8", std::move(body)};
  }
  return {404, "text/plain; charset=utf-8",
          "not found; try /metrics /metrics.json /runs /runs/<trace_id> "
          "/live /live.json /healthz\n"};
}

bool StatsServer::start(int port, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return fail("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  stopping_.store(false, std::memory_order_release);
  listen_fd_.store(fd, std::memory_order_release);
  const int workers = workers_wanted_ < 1 ? 1 : workers_wanted_;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void StatsServer::install_signal_stop() {
  g_signal_fd.store(listen_fd_.load(std::memory_order_acquire),
                    std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = stats_server_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: accept() must return EINTR-or-fail
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void StatsServer::accept_loop() {
  for (;;) {
    const int fd = listen_fd_.load(std::memory_order_acquire);
    if (fd < 0) break;
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) {
        // A signal may have shut the listener down; the next accept then
        // fails for good and we exit the loop.
        continue;
      }
      break;  // listener closed by stop() or signal handler
    }
    timeval tv{};
    tv.tv_sec = io_timeout_ms_ / 1000;
    tv.tv_usec = (io_timeout_ms_ % 1000) * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    bool enqueued = false;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (!stopping_.load(std::memory_order_acquire) &&
          client_queue_.size() < static_cast<std::size_t>(queue_capacity_)) {
        client_queue_.push_back(client);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Overloaded (or stopping): shed load instead of stalling the run.
      write_all(client, render_response({503, "text/plain; charset=utf-8",
                                         "overloaded, retry later\n"}));
      ::close(client);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
}

void StatsServer::worker_loop() {
  for (;;) {
    int client = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               !client_queue_.empty();
      });
      if (!client_queue_.empty()) {
        client = client_queue_.front();
        client_queue_.pop_front();
      } else if (stopping_.load(std::memory_order_acquire)) {
        return;
      } else {
        continue;
      }
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(client);  // fast shutdown: drop queued work unanswered
      continue;
    }
    serve_client(client);
  }
}

void StatsServer::serve_client(int fd) {
  const std::string head = read_request_head(fd);
  std::string method, path;
  const std::size_t sp1 = head.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = head.find(' ', sp1 + 1);
    method = head.substr(0, sp1);
    path = head.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                         : sp2 - sp1 - 1);
  }
  if (method.empty()) {
    // Timed out or malformed before a full request line arrived.
    write_all(fd, render_response(
                      {408, "text/plain; charset=utf-8", "request timeout\n"}));
    ::close(fd);
    return;
  }
  const std::string route = path.substr(0, path.find('?'));
  if (method == "GET" && route == "/live" &&
      live_.load(std::memory_order_acquire) != nullptr) {
    // Bounded number of concurrent streams; beyond that, fall back to the
    // one-shot document so scrape endpoints keep a free worker.
    int active = streams_active_.load(std::memory_order_relaxed);
    bool stream = false;
    while (active < max_streams_) {
      if (streams_active_.compare_exchange_weak(active, active + 1,
                                                std::memory_order_relaxed)) {
        stream = true;
        break;
      }
    }
    if (stream) {
      stream_live(fd);
      streams_active_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      return;
    }
  }
  write_all(fd, render_response(handle(method, path)));
  ::close(fd);
}

void StatsServer::stream_live(int fd) {
  const LiveView* live = live_.load(std::memory_order_acquire);
  if (!write_all(fd,
                 "HTTP/1.0 200 OK\r\n"
                 "Content-Type: text/event-stream\r\n"
                 "Cache-Control: no-cache\r\n"
                 "Connection: close\r\n\r\n"))
    return;
  LiveSnapshot snap = live->snapshot();
  if (!write_all(fd, sse_frame(snap.seq, "snapshot", snap.to_json()))) return;
  std::uint64_t seq = snap.seq;
  // Keep streaming while the run is in flight; one frame per new snapshot,
  // keepalive comments while nothing changes.  Ends cleanly when the run
  // finishes (or never started), the client hangs up, or the server stops.
  while ((snap.state == "running" || snap.state == "stalled") &&
         !stopping_.load(std::memory_order_acquire)) {
    snap = live->wait_newer(seq, 500);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (snap.seq > seq) {
      seq = snap.seq;
      if (!write_all(fd, sse_frame(snap.seq, "snapshot", snap.to_json())))
        return;
    } else if (!write_all(fd, ": keepalive\n\n")) {
      return;
    }
  }
  write_all(fd, sse_frame(seq, "end", "{\"state\":\"" + snap.state + "\"}"));
}

void StatsServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop sets stopping_ on its way out; release the workers.
  queue_cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  std::deque<int> leftovers;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    leftovers.swap(client_queue_);
  }
  for (const int fd : leftovers) ::close(fd);
}

void StatsServer::stop() {
  stopping_.store(true, std::memory_order_release);
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    int expected = fd;  // detach the signal handler if it pointed at us
    g_signal_fd.compare_exchange_strong(expected, -1,
                                        std::memory_order_relaxed);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  queue_cv_.notify_all();
  wait();
}

}  // namespace colop::obs
