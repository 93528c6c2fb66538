#pragma once
// Stall watchdog + flight-recorder post-mortems.
//
// The watchdog is a sampling thread attached to one process group's rt
// Fleet for the duration of an SPMD run.  Every poll it reads each rank's
// recorder head (a single acquire load) and newest record; a rank that is
// not done, has made no progress, and whose newest record is older than
// the deadline is a stall, blocked if that record is an open begin.  On
// the first stall the watchdog dumps a
// post-mortem — the tail of every rank's flight recorder as text and,
// when a dump path is configured, as the run's op stream in Chrome's
// format (rt/op_stream.h: waits still open are closed at the dump, flow
// arrows join matched send/recv pairs) — and then (by default) aborts the
// group so ranks blocked in recv/barrier unwind instead of hanging the
// process forever.
//
// The same post-mortem writer serves the uncaught-exception path: the
// SPMD launcher calls dump_post_mortem() when a rank throws and
// COLOP_RT_DUMP is set.

#include <atomic>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "colop/rt/flight_recorder.h"

namespace colop::rt {

/// One stalled rank as seen by the watchdog.
struct StallInfo {
  int rank = 0;
  std::uint64_t idle_ns = 0;      ///< now - last event
  bool blocked = false;           ///< was waiting in recv/barrier
  std::string stage;              ///< label of the stage it was in, if known
};

struct WatchdogOptions {
  double deadline_ms = 250;      ///< idle time that counts as a stall
  double poll_ms = 0;            ///< 0 = deadline/4, clamped to [1, 50]
  bool abort_on_stall = true;    ///< release blocked peers via abort_fn
  std::string dump_path;         ///< "" = text post-mortem to stderr only
  /// Extra hook for tests/embedders; runs after the dump, before abort.
  std::function<void(const std::vector<StallInfo>&)> on_stall;
};

/// Fill options from the process-wide rt::Config.
[[nodiscard]] WatchdogOptions watchdog_options_from_config(const Config& cfg);

class Watchdog {
 public:
  /// Starts sampling `fleet` immediately.  `abort_fn` is invoked (once) on
  /// stall when options.abort_on_stall — the SPMD launcher passes
  /// Group::abort so blocked ranks observe the abort and unwind.
  Watchdog(const Fleet& fleet, WatchdogOptions options,
           std::function<void()> abort_fn);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// True once a stall has been detected (and dumped).
  [[nodiscard]] bool stalled() const noexcept {
    return stalled_.load(std::memory_order_acquire);
  }
  /// The stalls found on the triggering poll; stable after stalled().
  [[nodiscard]] const std::vector<StallInfo>& stalls() const noexcept {
    return stalls_;
  }
  /// Human-readable one-liner for error messages; "" when not stalled.
  [[nodiscard]] std::string describe() const;

  /// Stop sampling (idempotent; the destructor calls it).
  void stop();

 private:
  void run();

  const Fleet& fleet_;
  WatchdogOptions options_;
  std::function<void()> abort_fn_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stalled_{false};
  std::vector<StallInfo> stalls_;
  std::thread thread_;
};

// --- post-mortem ----------------------------------------------------------

/// Text post-mortem: per-rank status line (done/blocked, stats) and the
/// last `tail` records of every rank's flight recorder.
void write_post_mortem_text(const FleetSnapshot& snap, std::ostream& os,
                            const std::string& reason, std::size_t tail = 16);

/// Dump a post-mortem for `fleet`.  Text goes to stderr; when `path` is
/// non-empty, also writes <path>.txt and <path>.trace.json (the profile's
/// Chrome trace: ops, send->recv flow arrows and the critical path).
/// Returns the text that was emitted.
std::string dump_post_mortem(const Fleet& fleet, const std::string& reason,
                             const std::string& path);

}  // namespace colop::rt
