#pragma once
// Critical-path profiler on the simulated clock: where does simulated time
// actually go?
//
// The drift report (drift.h) says WHETHER the cost model and the simnet
// measurement agree; this module says WHY a schedule takes the time it
// takes.  profile_program traces a program on a fresh simnet machine
// (exec::trace_on_simnet) — the per-processor ops the SimMachine records
// — and runs the analyzer every clock shares (critical_path.h) over them,
// then labels each stage with its text, the optimizer rule that produced
// it (provenance from rules::OptimizeResult) and the cost calculus'
// per-stage prediction.  Thread runs go through the same analyzer on the
// wall clock (rt/report.h).

#include "colop/exec/sim_executor.h"
#include "colop/exec/timeline.h"
#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/obs/critical_path.h"

namespace colop::obs {

struct ProfileOptions {
  /// Per-stage provenance (rules::stage_provenance of an OptimizeResult);
  /// entries beyond the program's length are ignored.
  std::vector<std::string> provenance{};
};

/// Trace `prog` on a fresh simnet machine (exec::trace_on_simnet) and
/// analyze the trace.
[[nodiscard]] Profile profile_program(const ir::Program& prog,
                                      const model::Machine& mach,
                                      const ProfileOptions& opts = {});

}  // namespace colop::obs
