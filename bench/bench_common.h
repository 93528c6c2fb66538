#pragma once
// Shared helpers for the benchmark harnesses.
//
// Machine calibration: the paper measured a Parsytec 64-processor network
// with MPICH 1.0 (transputer-class nodes).  We model one elementary
// operation as 1 microsecond (a few MFLOPS node), a message start-up of
// ts = 1500 ops and a per-word transfer time of tw = 25 ops (~0.3 MB/s per
// 8-byte word link) — chosen so the simulated absolute times land in the
// paper's "seconds" range for 64 processors and 32*10^3-element blocks.
// Only the SHAPE of the curves (who wins, where crossovers fall) is
// claimed; see EXPERIMENTS.md.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "colop/model/machine.h"
#include "colop/obs/metrics.h"
#include "colop/obs/run_store.h"
#include "colop/obs/serve.h"
#include "colop/obs/trace_context.h"

namespace colop::bench {

inline constexpr double kUnitSeconds = 1e-6;  ///< one op = 1 microsecond
inline constexpr double kTs = 1500;           ///< start-up (ops)
inline constexpr double kTw = 25;             ///< per-word transfer (ops)

inline model::Machine parsytec(int p, double m) {
  return model::Machine{.p = p, .m = m, .ts = kTs, .tw = kTw};
}

inline double seconds(double ops) { return ops * kUnitSeconds; }

/// Stamp the experimental configuration into the registry so every
/// BENCH_*.json records WHAT was measured (p, m, machine parameters)
/// alongside the measurements — `bench_history diff` then compares like
/// with like, and a baseline from a different configuration is visible as
/// a changed scalar instead of a silently different experiment.
inline void record_machine(obs::MetricsRegistry& reg,
                           const model::Machine& mach) {
  reg.set("machine_p", mach.p);
  reg.set("machine_m", mach.m);
  reg.set("machine_ts", mach.ts);
  reg.set("machine_tw", mach.tw);
}

/// The best-effort commit identity of this measurement: $COLOP_GIT_SHA,
/// else $GITHUB_SHA (CI), else "unknown".  Stamped into every BENCH_*.json
/// so bench_history can anchor snapshots to commits.
inline std::string bench_git_sha() {
  for (const char* var : {"COLOP_GIT_SHA", "GITHUB_SHA"})
    if (const char* sha = std::getenv(var); sha != nullptr && *sha != '\0')
      return sha;
  return "unknown";
}

/// Write `reg` as BENCH_<name>.json in $COLOP_BENCH_DIR (default:
/// bench/out under the working directory, created on demand) — the
/// machine-readable artifact CI uploads next to each harness's printed
/// table and bench_history appends to the trajectory.  Before writing,
/// the document is stamped with the snapshot identity: bench name,
/// git sha, UTC timestamp, and the run's trace id (minted here when no
/// driver installed one).
inline void write_bench_json(const std::string& name,
                             obs::MetricsRegistry& reg) {
  const char* env_dir = std::getenv("COLOP_BENCH_DIR");
  const std::string dir = env_dir != nullptr ? env_dir : "bench/out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open reports
  if (obs::trace_id().empty()) obs::set_trace_id(obs::mint_trace_id());
  reg.set_info("bench", name);
  reg.set_info("git_sha", bench_git_sha());
  reg.set_info("timestamp", obs::utc_timestamp());
  reg.set_info("trace_id", obs::trace_id());
  const std::string path = dir + "/BENCH_" + name + ".json";
  std::ofstream f(path);
  reg.write_json(f);
  std::cout << "metrics written to " << path << "\n";

  // Retention: $COLOP_RUN_RETENTION bounds the artifact directory the same
  // way it bounds .colop/runs.  Only the age axis applies here — bench/out
  // keeps ONE file per bench, so count-based eviction would delete sibling
  // benches' current artifacts, not old history.
  std::string warning;
  obs::RetentionPolicy policy = obs::RetentionPolicy::from_env(&warning);
  if (!warning.empty()) std::cerr << "warning: " << warning << "\n";
  policy.max_count = 0;
  if (!policy.unlimited())
    for (const auto& evicted :
         obs::prune_files(dir, "BENCH_", ".json", policy))
      std::cout << "retention: evicted " << evicted << "\n";
}

}  // namespace colop::bench
