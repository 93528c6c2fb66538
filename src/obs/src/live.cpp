#include "colop/obs/live.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "colop/obs/json.h"

namespace colop::obs {

// --- LiveView --------------------------------------------------------------

void LiveView::publish(LiveSnapshot snap, bool active) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const bool changed = active || snap.state != snap_.state ||
                         snap.events_total != snap_.events_total ||
                         snap.repeat != snap_.repeat;
    snap.seq = snap_.seq + (changed ? 1 : 0);
    snap_ = std::move(snap);
  }
  cv_.notify_all();
}

LiveSnapshot LiveView::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snap_;
}

LiveSnapshot LiveView::wait_newer(std::uint64_t seq, double timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(std::max(timeout_ms, 0.0)),
      [&] { return snap_.seq > seq; });
  return snap_;
}

// --- snapshot JSON ---------------------------------------------------------

void LiveSnapshot::write_json(std::ostream& os) const {
  os << "{\"seq\":" << seq << ",\"state\":" << json::quote(state)
     << ",\"trace_id\":" << json::quote(trace_id)
     << ",\"program\":" << json::quote(program)
     << ",\"elapsed_ms\":" << json::number(elapsed_ms)
     << ",\"heartbeat_ms\":" << json::number(heartbeat_ms)
     << ",\"progress\":{\"stages_done\":" << stages_done
     << ",\"stages_total\":" << stages_total << ",\"repeat\":" << repeat
     << ",\"repeats\":" << repeats << ",\"eta_ms\":" << json::number(eta_ms)
     << "},\"events_total\":" << events_total
     << ",\"dropped_total\":" << dropped_total << ",\"ranks\":[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const LiveRankRow& r = ranks[i];
    if (i > 0) os << ",";
    os << "{\"rank\":" << r.rank << ",\"stage\":" << r.stage
       << ",\"stage_label\":" << json::quote(r.stage_label)
       << ",\"stages_done\":" << r.stages_done
       << ",\"busy_ms\":" << json::number(r.busy_ms)
       << ",\"comm_ms\":" << json::number(r.comm_ms)
       << ",\"idle_ms\":" << json::number(r.idle_ms)
       << ",\"queue_depth\":" << r.queue_depth << ",\"sends\":" << r.sends
       << ",\"send_bytes\":" << r.send_bytes
       << ",\"last_event_ms\":" << json::number(r.last_event_ms)
       << ",\"stalled\":" << (r.stalled ? "true" : "false") << "}";
  }
  os << "]}";
}

std::string LiveSnapshot::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

// --- SSE -------------------------------------------------------------------

std::string sse_frame(std::uint64_t id, std::string_view event,
                      std::string_view data) {
  std::string out = "id: " + std::to_string(id) + "\n";
  out += "event: ";
  out += event;
  out += "\n";
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = data.find('\n', start);
    out += "data: ";
    out += data.substr(start, nl == std::string_view::npos ? std::string_view::npos
                                                           : nl - start);
    out += "\n";
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  out += "\n";
  return out;
}

}  // namespace colop::obs
