#pragma once
// Per-processor stage timelines on the simulated machine — the executable
// counterpart of the paper's Figures 1 and 3 (control flows of the
// processors through local and collective stages; "time saved" after a
// rule application is directly visible).

#include <string>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/simnet/machine.h"

namespace colop::exec {

/// One simulated run: the stage walk's spans and every machine op beneath
/// them, each op stamped with the index of the stage (for an overlap
/// window: of its istart) it belongs to.
struct SimTrace {
  std::vector<StageSpan> spans;
  std::vector<simnet::SimOp> ops;
  double makespan = 0;
  int procs = 0;
};

/// Run `prog` once through run_on_simnet on a fresh, traced SimMachine —
/// overlap windows priced exactly as the untraced run prices them.
[[nodiscard]] SimTrace trace_on_simnet(const ir::Program& prog,
                                       const model::Machine& mach);

/// ASCII Gantt chart: one row per processor, letters identify stages, '.'
/// is idle/waiting time; a legend follows.  `width` is the number of time
/// buckets; `scale_to` (0 = this trace's makespan) lets two renderings
/// share one time axis so "time saved" shows as trailing idle space.
[[nodiscard]] std::string render_timeline(const SimTrace& trace,
                                          int width = 72,
                                          double scale_to = 0);

}  // namespace colop::exec
