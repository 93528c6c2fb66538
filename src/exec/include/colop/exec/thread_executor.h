#pragma once
// Thread executor: run an ir::Program on the mpsim SPMD runtime, with
// blocks of Values as rank-local state and the real collective schedules
// moving data.  This is the "MPI execution" of a program; tests use it to
// confirm that every optimization rule is a semantic equality on the wire,
// not just in the reference semantics.  `ranks` picks how the p ranks run
// (mpsim/rank_pool.h): Ranks::threads, the default, puts rank 0 on the
// calling thread and the others on the persistent rank pool; rule
// certification passes Ranks::fibers, which runs the same stage loop and
// collectives as fibers on the calling thread.  Outputs and traffic are
// the same either way.
//
// When the program and data are packable (colop/ir/packed_eval.h) the
// executor runs on the flat data plane instead: rank-local state is a
// PackedBlock, the collective schedules move flat buffers, and local
// stages call the compiled kernels.  One stage loop serves both planes:
// each stage kind is one case of exec_stage<B>, and a split-phase overlap
// window pipelines Block or PackedBlock segments alike (ir/plane.h).
// Results, traffic byte counts and message counts are identical on the
// two planes — the fuzz tests assert this bit for bit.

#include <chrono>

#include "colop/ir/packed_eval.h"
#include "colop/ir/program.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rt/flight_recorder.h"

namespace colop::exec {

/// Execute `prog` with input.size() ranks; element i of the result is the
/// final block held by processor i.  `overlap_segments` is the pipeline
/// depth of each split-phase overlap window (ir/overlap.h; values below 1
/// count as 1, which runs the window as its blocking twin).
[[nodiscard]] ir::Dist run_on_threads(
    const ir::Program& prog, ir::Dist input,
    ir::DataPlane plane = ir::DataPlane::Auto,
    mpsim::Ranks ranks = mpsim::Ranks::threads, int overlap_segments = 4);

struct ThreadRunResult {
  ir::Dist output;
  mpsim::TrafficCounters traffic;  ///< messages/bytes actually sent
  double wall_seconds = 0;  ///< the launch: every rank's stage loop
  bool used_packed = false;  ///< ran on the flat data plane
  /// The boxed<->packed boundary around the launch (0 on a boxed run).
  double pack_seconds = 0;
  double unpack_seconds = 0;
  /// Flight-recorder capture of the run (stage spans, send/recv, waits,
  /// queue depths).  `rt.enabled` is false when COLOP_RT=0.  The
  /// analyzer reads an enabled capture through rt::profile_snapshot;
  /// rt::build_report adds the mailbox counters and the model's drift.
  rt::FleetSnapshot rt;
};

/// As run_on_threads, plus traffic counters and wall-clock time.
/// `plane` Auto runs packed iff the program and data are packable; Boxed
/// and Packed force the path (Packed throws when the program or data do
/// not fit the flat plane).
[[nodiscard]] ThreadRunResult run_on_threads_instrumented(
    const ir::Program& prog, ir::Dist input,
    ir::DataPlane plane = ir::DataPlane::Auto,
    mpsim::Ranks ranks = mpsim::Ranks::threads, int overlap_segments = 4);

/// Execute a single stage on one rank (exposed for custom SPMD drivers), on
/// either data plane: B is ir::Block or ir::PackedBlock.  The packed plane
/// needs every kernel the stage calls (the callers check with
/// ir::packable()).  An istart runs as its blocking twin and wait does
/// nothing; only the executor's own loop pipelines overlap windows.
template <typename B>
void exec_stage(const ir::Stage& stage, mpsim::Comm& comm, B& block);

extern template void exec_stage<ir::Block>(const ir::Stage&, mpsim::Comm&,
                                           ir::Block&);
extern template void exec_stage<ir::PackedBlock>(const ir::Stage&,
                                                 mpsim::Comm&, ir::PackedBlock&);

}  // namespace colop::exec
