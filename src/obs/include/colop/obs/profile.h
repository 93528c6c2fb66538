#pragma once
// Critical-path profiler: where does simulated time actually go?
//
// The drift report (drift.h) says WHETHER the cost model and the simnet
// measurement agree; this module says WHY a schedule takes the time it
// takes.  It analyzes one simulated trace (exec::trace_on_simnet) — the
// per-processor machine ops the SimMachine records (compute / send /
// recv_wait / exchange, each carrying its partner rank and stage) plus the
// stage walk's spans — into:
//
//   * a per-rank busy/comm/idle breakdown whose parts sum to the makespan
//     (an invariant the tests enforce on every traced schedule);
//   * the critical path through the happens-before graph: walking back
//     from the rank that finishes last, a blocking receive hops to the
//     sender, an exchange hops to the later partner, local work walks its
//     own rank — yielding a gap-free chain of segments covering
//     [0, makespan];
//   * per-stage attribution of critical-path time, labeled with the
//     optimizer rule that produced each stage (provenance from
//     rules::OptimizeResult) and with the cost calculus' per-stage
//     prediction, so "the profiler's bottleneck" and "the model's
//     bottleneck" can be compared directly.
//
// Exports: text, JSON, and a Chrome-trace overlay whose flow arrows follow
// the critical path across ranks (stage spans and machine ops are separate
// process rows, ranks are named threads).

#include <iosfwd>
#include <string>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/exec/timeline.h"
#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/simnet/machine.h"

namespace colop::obs {

/// Where one processor's time went.  busy = local computation, comm =
/// time driving the link (send + exchange), idle = blocking-receive waits
/// plus schedule gaps plus trailing idle until the makespan.
struct RankProfile {
  int rank = 0;
  double busy = 0;
  double comm = 0;
  double idle = 0;
  [[nodiscard]] double total() const { return busy + comm + idle; }
};

/// One segment of the critical path (chronological; segments abut).
struct CriticalSegment {
  int rank = 0;
  double start = 0;
  double end = 0;
  std::string kind;  ///< "compute" | "send" | "exchange" | "idle" | "start"
  int stage = -1;    ///< index into Profile::stages, -1 when unattributed
  [[nodiscard]] double duration() const { return end - start; }
};

struct StageProfile {
  int index = 0;
  std::string label;       ///< ir::Stage::show()
  std::string rule;        ///< optimizer rule that produced it, "" = source
  double critical = 0;     ///< critical-path time attributed to this stage
  double busy = 0;         ///< summed compute time across ranks
  double comm = 0;         ///< summed link time across ranks
  double model_time = 0;   ///< cost calculus' prediction for this stage
  /// True when the stage sits inside an istart..wait overlap window.  The
  /// whole window's time is attributed to the istart stage: its collective
  /// and the interior local work the collective did not hide.  Interior
  /// maps and the wait show zero.
  bool overlapped = false;
};

struct Profile {
  std::string program;
  int procs = 0;
  double makespan = 0;
  /// Makespan of the same schedule replayed synchronously (every istart
  /// priced as its blocking twin, no window discount); 0 when the program
  /// has no overlap windows.  makespan <= blocking_makespan always holds —
  /// the report prints the gap as "hidden by overlap".
  double blocking_makespan = 0;
  std::vector<RankProfile> ranks;
  std::vector<CriticalSegment> critical_path;
  std::vector<StageProfile> stages;
  /// The trace that was analyzed (empty when built by profile_events).
  exec::SimTrace trace;

  /// The per-rank accounting invariant: busy + comm + idle == makespan for
  /// every rank (within `tol` relative error).
  [[nodiscard]] bool balanced(double tol = 1e-9) const;
  /// Critical-path segments abut and cover [0, makespan] within `tol`.
  [[nodiscard]] bool path_complete(double tol = 1e-9) const;

  /// Stage with the largest critical-path share; nullptr when empty.
  [[nodiscard]] const StageProfile* bottleneck() const;
  /// Stage the cost calculus predicts to dominate; nullptr when empty.
  [[nodiscard]] const StageProfile* model_bottleneck() const;

  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
  /// Chrome trace with per-rank thread names: stage spans (pid 0) above
  /// the machine ops (pid 1), the critical path drawn as flow arrows
  /// across ranks.
  void write_chrome_trace(std::ostream& os) const;
};

struct ProfileOptions {
  exec::SimSchedules sched{};
  /// Per-stage provenance (rules::stage_provenance of an OptimizeResult);
  /// entries beyond the program's length are ignored.
  std::vector<std::string> provenance{};
};

/// Trace `prog` on a fresh simnet machine (exec::trace_on_simnet) and
/// analyze the trace.
[[nodiscard]] Profile profile_program(const ir::Program& prog,
                                      const model::Machine& mach,
                                      const ProfileOptions& opts = {});

/// Analyze recorded machine ops (SimMachine::set_trace); ops on ranks
/// outside [0, procs) are ignored.  `makespan` < 0 derives it from the
/// latest op end.
[[nodiscard]] Profile profile_events(
    const std::vector<simnet::SimOp>& machine_ops, int procs,
    double makespan = -1);

}  // namespace colop::obs
