#pragma once
// Trace-context propagation: one TraceId per run.
//
// A driver (colopt, and eventually colopd per request) mints a TraceId at
// entry and installs it process-wide.  Every artifact the run produces —
// Chrome traces, profile/drift/rt/verify JSON exports, BENCH_*.json
// documents, the /runs endpoint of the stats server — stamps the current
// TraceId, so a single ID printed on stdout correlates everything that
// run emitted.
//
// The context is deliberately process-global rather than threaded through
// every signature: instrumentation sites and exporters live many layers
// apart, and the runs they describe are process-scoped today (colopt is
// one run per process).  colopd will swap this for a per-request context.

#include <cstdint>
#include <string>

namespace colop::obs {

/// Mint a fresh 16-hex-digit trace id (random, time-seeded; never empty).
[[nodiscard]] std::string mint_trace_id();

/// Install `id` as the process-wide current trace id ("" clears it).
void set_trace_id(std::string id);

/// The current trace id; empty when no driver installed one.
[[nodiscard]] std::string trace_id();

/// RAII installation: mints (or adopts) a trace id on construction and
/// restores the previous one on destruction.  Tests use this to keep the
/// global context clean.
class ScopedTrace {
 public:
  ScopedTrace() : ScopedTrace(mint_trace_id()) {}
  explicit ScopedTrace(std::string id);
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace();

  [[nodiscard]] const std::string& id() const { return id_; }

 private:
  std::string id_;
  std::string prev_;
};

/// `,"trace_id":"<id>"` when a trace is active, "" otherwise — the snippet
/// JSON exporters splice after their opening brace so every document a run
/// writes carries the run's id.
[[nodiscard]] std::string trace_id_json_field();

}  // namespace colop::obs
