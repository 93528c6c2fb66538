#pragma once
// Simulation executor: predict a program's running time on the paper's
// machine model by executing its collective schedules on the simnet
// discrete-event simulator.  Unlike model::program_time (closed forms),
// this accounts for schedule effects at non-powers of two, pipeline slack
// between unsynchronized stages, and alternative schedule choices.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/simnet/machine.h"

namespace colop::exec {

/// Which concrete schedules implement the collectives (the paper notes the
/// cost calculus is implementation-relative, Section 4.1).
struct SimSchedules {
  enum class Bcast { butterfly, binomial, vdg, pipelined };
  enum class Reduce { butterfly, binomial, vdg };
  Bcast bcast = Bcast::butterfly;
  Reduce reduce = Reduce::butterfly;  ///< vdg applies to allreduce stages
};

/// Simulate every broadcast schedule on `mach` and return the fastest one
/// with its predicted time — a small autotuner in the spirit of the
/// paper's "the cost estimation must be repeated" (Section 4.1).
[[nodiscard]] std::pair<SimSchedules::Bcast, double> best_bcast_schedule(
    const model::Machine& mach);

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
                                         const model::Machine& mach,
                                         SimSchedules sched = {});

/// As above but on an existing machine (clocks accumulate across calls).
/// This is the one stage walker: it stamps each stage's index on the
/// machine (SimMachine::set_stage) before simulating it, prices overlap
/// windows, and, given `spans`, appends one StageSpan per step.
void run_on_simnet(const ir::Program& prog, simnet::SimMachine& mach, double m,
                   SimSchedules sched = {},
                   std::vector<StageSpan>* spans = nullptr);

}  // namespace colop::exec
