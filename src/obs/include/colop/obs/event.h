#pragma once
// colop::obs — the unified observability layer.
//
// One structured event vocabulary serves every exported trace.  Producers
// keep their own compact records — simnet's typed SimOps (SIMULATED time)
// and the thread runtime's flight recorder — and convert them to events
// only at export time (exec::trace_events, rt reports, post-mortems); the
// Chrome trace-event exporter (chrome_trace.h) makes any event list
// loadable in chrome://tracing or Perfetto.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace colop::obs {

/// Event phases, modeled on the Chrome trace-event phases they export to.
enum class Phase {
  begin,       ///< span start ("B")
  end,         ///< span end ("E")
  complete,    ///< span with a known duration ("X")
  instant,     ///< point event ("i")
  counter,     ///< sampled counter value ("C")
  flow_start,  ///< flow arrow origin ("s") — e.g. critical-path overlays
  flow_step,   ///< flow arrow waypoint ("t")
  flow_end,    ///< flow arrow target ("f", binding to the enclosing slice)
};

/// One structured event.  `ts` is microseconds for wall-clock sources and
/// op units for simulated sources — a single export never mixes the two.
struct Event {
  Phase phase = Phase::instant;
  std::string name;  ///< what happened, e.g. "mpsim.bcast", "send"
  std::string cat;   ///< source subsystem: "mpsim", "simnet", "exec", "rules"
  double ts = 0;     ///< timestamp (us wall clock or simulated op units)
  double dur = 0;    ///< duration, complete events only
  int pid = 0;       ///< process row in the viewer (0 unless an exporter groups)
  int tid = 0;       ///< per-rank / per-processor attribution
  double value = 0;  ///< counter events: the sampled value
  std::uint64_t id = 0;  ///< flow events: arrows with equal id are connected
  /// Free-form key/value annotations, exported as Chrome `args`.
  std::vector<std::pair<std::string, std::string>> args;
};

}  // namespace colop::obs
