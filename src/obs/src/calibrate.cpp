#include "colop/obs/calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/binop.h"
#include "colop/ir/program.h"
#include "colop/mpsim/collectives.h"
#include "colop/mpsim/spmd.h"
#include "colop/support/error.h"

namespace colop::obs {
namespace {

ir::Program single_collective(model::Collective what) {
  ir::Program prog;
  switch (what) {
    case model::Collective::bcast:
      prog.bcast();
      break;
    case model::Collective::reduce:
      prog.reduce(ir::op_add());
      break;
    case model::Collective::scan:
      prog.scan(ir::op_add());
      break;
  }
  return prog;
}

}  // namespace

std::vector<model::Timing> measure_simnet_timings(const model::Machine& mach,
                                                  const CalibrateOptions& opts) {
  COLOP_REQUIRE(!opts.procs.empty() && !opts.block_sizes.empty(),
                "calibrate: empty measurement grid");
  std::vector<model::Timing> timings;
  timings.reserve(3 * opts.procs.size() * opts.block_sizes.size());
  for (const model::Collective what :
       {model::Collective::bcast, model::Collective::reduce,
        model::Collective::scan}) {
    const ir::Program prog = single_collective(what);
    for (const int p : opts.procs)
      for (const double m : opts.block_sizes) {
        model::Machine grid = mach;
        grid.p = p;
        grid.m = m;
        const auto run = exec::run_on_simnet(prog, grid);
        timings.push_back({what, p, m, run.time});
      }
  }
  return timings;
}

std::vector<model::Timing> measure_mpsim_timings(const CalibrateOptions& opts) {
  COLOP_REQUIRE(!opts.procs.empty() && !opts.block_sizes.empty(),
                "calibrate: empty measurement grid");
  COLOP_REQUIRE(opts.repetitions >= 1, "calibrate: need >= 1 repetition");
  using clock = std::chrono::steady_clock;
  const auto vec_add = [](const std::vector<double>& a,
                          const std::vector<double>& b) {
    std::vector<double> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };

  std::vector<model::Timing> timings;
  timings.reserve(3 * opts.procs.size() * opts.block_sizes.size());
  for (const model::Collective what :
       {model::Collective::bcast, model::Collective::reduce,
        model::Collective::scan}) {
    for (const int p : opts.procs)
      for (const double m : opts.block_sizes) {
        const auto words = static_cast<std::size_t>(std::max(m, 1.0));
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < opts.repetitions; ++rep) {
          const auto t0 = clock::now();
          mpsim::run_spmd(p, [&](mpsim::Comm& comm) {
            std::vector<double> block(words,
                                      static_cast<double>(comm.rank() + 1));
            switch (what) {
              case model::Collective::bcast:
                block = mpsim::bcast(comm, block);
                break;
              case model::Collective::reduce:
                block = mpsim::reduce(comm, block, vec_add);
                break;
              case model::Collective::scan:
                block = mpsim::scan(comm, block, vec_add);
                break;
            }
            if (block.empty()) throw Error("calibrate: empty block");
          });
          const std::chrono::duration<double, std::micro> dt =
              clock::now() - t0;
          best = std::min(best, dt.count());
        }
        timings.push_back({what, p, m, best});
      }
  }
  return timings;
}

model::Machine calibrated_machine(const model::Machine& configured,
                                  const CalibrateOptions& opts,
                                  model::CalibrationResult* result) {
  auto fit = model::fit_machine(measure_simnet_timings(configured, opts));
  fit.source = "simnet";
  const model::Machine mach = fit.machine(configured.p, configured.m);
  if (result) *result = std::move(fit);
  return mach;
}

}  // namespace colop::obs
