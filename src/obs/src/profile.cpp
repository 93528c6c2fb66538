#include "colop/obs/profile.h"

#include "colop/ir/overlap.h"
#include "colop/model/cost.h"

namespace colop::obs {

Profile profile_program(const ir::Program& prog, const model::Machine& mach,
                        const ProfileOptions& opts) {
  exec::SimTrace trace = exec::trace_on_simnet(prog, mach);
  Profile prof = profile_events(std::move(trace.ops), mach.p, trace.makespan);
  prof.program = prog.show();

  // Stage metadata: label, cost-calculus prediction, rule provenance.
  const auto& stages = prog.stages();
  const auto windows = ir::overlap_windows(prog);
  std::vector<StageProfile> meta(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    meta[i].label = stages[i]->show();
    meta[i].model_time = model::stage_cost(*stages[i]).eval(mach);
    meta[i].overlapped = ir::in_overlap_window(windows, i);
    if (i < opts.provenance.size()) meta[i].rule = opts.provenance[i];
  }
  prof.set_stages(std::move(meta));

  // Synchronous baseline: replay stage by stage (an istart alone prices as
  // its blocking twin) so the report can say how much the windows hid.
  if (!windows.empty()) {
    simnet::SimMachine blocking(mach.p, simnet::NetParams{mach.ts, mach.tw});
    for (const auto& stage : stages) {
      ir::Program single;
      single.push(stage);
      exec::run_on_simnet(single, blocking, mach.m);
    }
    prof.blocking_makespan = blocking.makespan();
  }
  return prof;
}

}  // namespace colop::obs
