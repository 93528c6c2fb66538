#pragma once
// Simulation executor: predict a program's running time on the paper's
// machine model by executing its collective schedules on the simnet
// discrete-event simulator.  Each stage kind runs the one schedule
// model::stage_cost prices (the butterfly family of Eq 15-17).  Unlike
// model::program_time (closed forms), this accounts for schedule effects at
// non-powers of two and pipeline slack between unsynchronized stages.

#include <cstdint>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/simnet/machine.h"

namespace colop::exec {

struct SimRunResult {
  double time = 0;           ///< simulated makespan (op units)
  std::uint64_t messages = 0;
  double words = 0;          ///< total words transferred
};

/// One step of the stage walk on every processor: a stage, or a whole
/// istart..wait overlap window (labelled "overlap{istart ; ... ; wait}").
struct StageSpan {
  std::string label;
  std::vector<double> start;  ///< per-processor start time
  std::vector<double> end;    ///< per-processor completion time
};

/// Execute every stage of `prog` on a fresh SimMachine(mach.p, {ts, tw})
/// with blocks of mach.m elements.
[[nodiscard]] SimRunResult run_on_simnet(const ir::Program& prog,
                                         const model::Machine& mach);

/// As above but on an existing machine (clocks accumulate across calls).
/// This is the one stage walker: it stamps each stage's index on the
/// machine (SimMachine::set_stage) before simulating it, prices overlap
/// windows, and, given `spans`, appends one StageSpan per step.
void run_on_simnet(const ir::Program& prog, simnet::SimMachine& mach, double m,
                   std::vector<StageSpan>* spans = nullptr);

}  // namespace colop::exec
