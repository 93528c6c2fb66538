#pragma once
// Live in-flight telemetry, the obs half: the LiveSnapshot a monitored run
// is summarized into, the seq-stamped LiveView the stats server streams
// over /live (Server-Sent Events) and serves from /live.json, and SSE
// framing.  The producer — rt::LiveSampler, which reads the flight
// recorders of the SPMD launches in flight — lives in colop::rt, because
// obs sits below rt and cannot name an rt::Fleet.

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace colop::obs {

/// One rank's row in a snapshot.
struct LiveRankRow {
  int rank = 0;
  int stage = -1;             ///< current stage index, -1 between stages
  std::string stage_label;
  std::uint64_t stages_done = 0;
  double busy_ms = 0;         ///< the analyzer's busy: between records, not waiting
  double comm_ms = 0;         ///< blocked in recv (recv_begin..recv_end)
  double idle_ms = 0;         ///< in barriers (barrier_begin..barrier_end)
  std::uint64_t queue_depth = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  double last_event_ms = -1;  ///< age of newest event; -1 = none yet
  bool stalled = false;
};

/// Point-in-time view of the run, serialized as one JSON line for /live.
struct LiveSnapshot {
  std::uint64_t seq = 0;       ///< monotonic; wait_newer() blocks on it
  std::string state = "idle";  ///< idle | running | stalled | done
  std::string trace_id;
  std::string program;
  double elapsed_ms = 0;       ///< since begin_run (frozen at end_run)
  double heartbeat_ms = -1;    ///< age of the newest event run-wide
  std::uint64_t stages_done = 0;
  std::uint64_t stages_total = 0;  ///< stages × repeats × ranks
  int repeat = 0;
  int repeats = 0;
  double eta_ms = -1;          ///< linear extrapolation; -1 = unknown
  std::uint64_t events_total = 0;
  std::uint64_t dropped_total = 0;
  std::vector<LiveRankRow> ranks;

  void write_json(std::ostream& os) const;  ///< single line, no trailing \n
  [[nodiscard]] std::string to_json() const;
};

/// The latest LiveSnapshot of a run.  One producer publishes; any number
/// of readers (server workers, SSE streams) copy it or long-poll for a
/// newer one.
class LiveView {
 public:
  [[nodiscard]] LiveSnapshot snapshot() const;

  /// Block until a snapshot with seq > `seq` exists (or timeout); returns
  /// the current snapshot either way.
  LiveSnapshot wait_newer(std::uint64_t seq, double timeout_ms) const;

 protected:
  /// Replace the snapshot and wake the waiters.  The seq moves on only
  /// while a run is `active` or when the state, the event count or the
  /// repeat changed, so an idle view quiesces the SSE stream instead of
  /// emitting identical frames forever.
  void publish(LiveSnapshot snap, bool active);

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  LiveSnapshot snap_;
};

/// Serialize one Server-Sent Events frame:
///   "id: <id>\nevent: <event>\ndata: <line>\n...\n\n"
/// Multi-line payloads become one data: field per line, per the SSE spec.
[[nodiscard]] std::string sse_frame(std::uint64_t id, std::string_view event,
                                    std::string_view data);

}  // namespace colop::obs
