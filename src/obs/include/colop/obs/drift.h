#pragma once
// Model-vs-measured drift report.
//
// The cost calculus (Section 4) predicts running time with the closed
// forms (15)-(17); the simnet executor measures the same program by
// discrete-event simulation of the actual communication schedules.  The
// two must agree at powers of two (the butterfly schedules realize the
// model exactly, and phases synchronize the participating ranks so no
// inter-stage slack accumulates); where they diverge, either the model,
// the schedule, or an optimization's cost annotation is wrong.  This
// report quantifies that drift per processor count — for time AND for the
// traffic the rules are supposed to save (message and word totals,
// predicted from the schedule structure under the model's assumptions).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/calib.h"
#include "colop/model/machine.h"

namespace colop::obs {

/// Predicted total traffic of one program on p processors: the message
/// and word counts implied by the schedule definitions the cost model
/// assumes (the butterfly family and the balanced trees), counted by
/// twins written apart from simnet's schedules.  Exact for every p, not
/// only powers of two.
struct PredictedTraffic {
  std::uint64_t messages = 0;
  double words = 0;
};

[[nodiscard]] PredictedTraffic predicted_traffic(const ir::Program& prog,
                                                 const model::Machine& mach);

struct DriftRow {
  int p = 0;
  double model_time = 0;  ///< closed-form program cost T(p, m)
  double sim_time = 0;    ///< simnet makespan
  double time_rel_err = 0;
  std::uint64_t predicted_messages = 0;
  std::uint64_t sim_messages = 0;
  double predicted_words = 0;
  double sim_words = 0;
  bool ok = false;  ///< all three quantities within tolerance
};

struct DriftReport {
  std::string program;     ///< ir::Program::show() of the subject
  double tolerance = 0;    ///< relative tolerance applied per row
  std::vector<DriftRow> rows;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

struct DriftOptions {
  std::vector<int> procs = {2, 4, 8, 16, 32, 64};
  /// Relative tolerance on time; messages must match exactly and words
  /// within the same relative tolerance.
  double tolerance = 1e-9;
};

/// Run `prog` on the simnet machine for every processor count in
/// `opts.procs` (keeping mach.m/ts/tw fixed) and compare with the model.
[[nodiscard]] DriftReport drift_report(const ir::Program& prog,
                                       const model::Machine& mach,
                                       const DriftOptions& opts = {});

/// Drift between the CONFIGURED machine parameters and the ones a
/// calibration fit recovered from measurements.  Where the per-program
/// DriftReport checks that model and simulator agree on a given machine,
/// this alert checks that the machine itself is what the optimizer was
/// told it is — when it is not, every "Improved if" threshold
/// (ts_crossover) the rules were selected by is suspect.
struct MachineDriftAlert {
  model::Machine configured;
  model::Machine fitted;   ///< calibration result normalized to op units
  double ts_rel_err = 0;
  double tw_rel_err = 0;
  double tolerance = 0;
  bool ok = false;

  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

[[nodiscard]] MachineDriftAlert machine_drift(
    const model::Machine& configured, const model::CalibrationResult& fit,
    double tolerance = 0.15);

}  // namespace colop::obs
