// Split-phase overlap: hide elementwise work under a collective.
//
// The blocking spelling  allreduce(+) ; map  pays comm + local; the
// split-phase spelling  istart_allreduce(+) ; map ; wait  starts the
// collective, does the local work while it is in flight, and completes it
// with the wait — the cost calculus prices the window at max(comm, local).
// Both spellings compute bit-identical results (the executor's segmented
// pipeline is a pure scheduling change), and the V22x contract analysis
// proves the window well-formed before anything runs.  Windows run on
// either data plane; this one stays boxed because `smooth` is a plain
// lambda with no packed kernel (a window whose maps all have kernels runs
// on PackedBlock segments).
//
// Build & run:   ./build/examples/overlap_pipeline

#include <algorithm>
#include <iostream>

#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/model/cost.h"
#include "colop/support/rng.h"
#include "colop/support/table.h"
#include "colop/verify/splitphase.h"

int main() {
  using namespace colop;

  // A latency-bound machine: high start-up cost, cheap links — the shape
  // where overlap pays (the collective's span is mostly waiting).
  const model::Machine mach{.p = 8, .m = 512, .ts = 1500, .tw = 25};

  // Local post-processing with real per-element work to hide.
  const ir::ElemFn smooth{
      "smooth",
      [](const ir::Value& v) { return ir::Value(v.as_int() / 2 + 1); },
      40.0,
      nullptr,
      {}};

  ir::Program blocking;
  blocking.allreduce(ir::op_add()).map(smooth);
  ir::Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(smooth).wait(1);

  std::cout << "blocking   : " << blocking.show() << "\n";
  std::cout << "split-phase: " << split.show() << "\n\n";

  // The static gatekeeper: the window honors the V22x contracts.
  const auto contracts = verify::analyze_splitphase(split);
  std::cout << "V22x contract analysis: "
            << (contracts.empty() ? "clean" : contracts.render_text()) << "\n";

  // Both spellings produce the same distributed value.
  Rng rng(7);
  ir::Dist input(static_cast<std::size_t>(mach.p));
  for (auto& b : input) {
    b.resize(16);
    for (auto& v : b) v = ir::Value(rng.uniform(-100, 100));
  }
  const auto run_blocking = exec::run_on_threads_instrumented(blocking, input);
  const auto run_split = exec::run_on_threads_instrumented(split, input);
  const bool identical = run_blocking.output == run_split.output;
  std::cout << "threaded outputs identical: " << (identical ? "yes" : "NO")
            << "\n\n";

  // What the overlap buys on this machine.
  const double t_block = model::program_time(blocking, mach);
  const double t_split = model::program_time(split, mach);
  const auto sim_block = exec::run_on_simnet(blocking, mach);
  const auto sim_split = exec::run_on_simnet(split, mach);

  Table t("predicted time (op units)",
          {"version", "analytic", "simnet", "messages"});
  t.add("blocking", t_block, sim_block.time, sim_block.messages);
  t.add("split-phase", t_split, sim_split.time, sim_split.messages);
  t.print(std::cout);
  std::cout << "\noverlap hides "
            << 100.0 * (t_block - t_split) / std::max(1.0, t_block)
            << "% of the schedule: window = max(comm, local) instead of "
               "comm + local\n";

  return identical && contracts.empty() && sim_split.time < sim_block.time
             ? 0
             : 1;
}
