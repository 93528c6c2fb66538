#pragma once
// Measurement harnesses for cost-model auto-calibration.
//
// model::fit_machine (model/calib.h) is pure math: it turns timing samples
// into fitted (ts, tw, op_cost).  This header PRODUCES those samples, from
// either of the two executors the repo has:
//
//   * simnet  — deterministic: run single-collective programs on the
//     discrete-event simulator across a p × m grid and read the simulated
//     makespans.  Every stage runs the butterfly schedule the fit assumes,
//     and at powers of two it realizes the closed forms, so this
//     round-trips the configured machine exactly and doubles as an
//     end-to-end self test of the whole calibration loop.
//   * mpsim   — wall-clock: time the thread-backed collectives with
//     steady_clock.  Noisy and machine-dependent, but the only source of
//     timings that says anything about the host this process runs on.
//
// calibrated_machine() is the closed loop: measure, fit, and return a
// Machine carrying the fitted parameters — `colopt --machine=calibrated`
// optimizes against it instead of the configured one.

#include <vector>

#include "colop/model/calib.h"
#include "colop/model/machine.h"

namespace colop::obs {

struct CalibrateOptions {
  /// Processor counts to sample (powers of two: there the schedules
  /// realize the closed forms exactly and the fit is unbiased).
  std::vector<int> procs = {2, 4, 8, 16};
  /// Block sizes to sample.
  std::vector<double> block_sizes = {1, 4, 16, 64};
  /// Wall-clock repetitions per mpsim sample (the minimum is kept, the
  /// standard noise-rejection for timing microbenchmarks).
  int repetitions = 5;
};

/// Time bcast / reduce / scan on the simnet simulator across the grid.
/// `mach` supplies ts and tw; its p and m are ignored in favour of the
/// grid.  Deterministic.
[[nodiscard]] std::vector<model::Timing> measure_simnet_timings(
    const model::Machine& mach, const CalibrateOptions& opts = {});

/// Time bcast / reduce / scan on the mpsim thread runtime (wall clock,
/// microseconds).  Block size acts as the per-element payload repetition
/// count.  Nondeterministic — do not assert on the values in tests.
[[nodiscard]] std::vector<model::Timing> measure_mpsim_timings(
    const CalibrateOptions& opts = {});

/// The closed loop: measure `configured` on the simnet harness, fit, and
/// return a machine with the fitted parameters (p and m copied from
/// `configured`).  `result`, when non-null, receives the full fit for
/// reporting.
[[nodiscard]] model::Machine calibrated_machine(
    const model::Machine& configured, const CalibrateOptions& opts = {},
    model::CalibrationResult* result = nullptr);

}  // namespace colop::obs
