#pragma once
// Runtime report: what the thread executor actually did, merged with what
// the cost calculus said it would do.
//
// Input is a FleetSnapshot captured after a run_on_threads execution (the
// executor returns one in ThreadRunResult::rt) plus the model's per-stage
// predictions in op units.  The snapshot goes through the analyzer every
// clock shares (rt/op_stream.h -> obs::profile_events), so a thread run
// gets what a simulated one gets, in wall-clock ns: the busy/comm/idle
// split, the critical path, and per-stage critical time labelled with the
// optimizer rule that produced the stage.  On top of that Profile:
//
//   * per-rank counts — sends/bytes, inbound queue depth (max / mean) and
//     bytes in flight, records logged and dropped — and recv-wait and
//     barrier-wait time from the records (lower bounds if any dropped);
//   * per-stage wall-vs-predicted drift.  A stage's wall time is the max
//     (and mean) over ranks of the time its ops cover.  Wall clock is in
//     nanoseconds and the model in abstract op units, so the comparison
//     normalizes both sides to shares of their totals (equivalently: fits
//     the single scale factor s = Σwall/Σmodel and reports
//     wall/(model*s) - 1).  A stage whose drift is positive eats more of
//     the real makespan than the calculus predicted — exactly the
//     imbalance signal the paper's rules cannot see;
//   * repeat statistics (min/median/stddev over --repeat runs) so numbers
//     from loaded CI machines carry their own error bars.
//
// Exporters: render_text, write_json, write_html (self-contained timeline +
// summary page on the shared obs/html.h shell).  The Chrome trace is the
// profile's own (obs::Profile::write_chrome_trace).

#include <iosfwd>
#include <string>
#include <vector>

#include "colop/obs/critical_path.h"
#include "colop/rt/flight_recorder.h"

namespace colop::rt {

struct RankReport {
  int rank = 0;
  std::uint64_t events = 0;      ///< flight-recorder records logged
  std::uint64_t dropped = 0;     ///< overwritten by the ring
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t recvs = 0;
  double recv_wait_ms = 0;       ///< recv_begin..recv_end, summed
  double barrier_wait_ms = 0;    ///< barrier_begin..barrier_end, summed
  double busy_ms = 0;            ///< compute time in the profile
  std::uint64_t queue_depth_max = 0;
  double queue_depth_mean = 0;
  std::uint64_t queue_bytes_max = 0;
  /// False when the ring dropped records: the waits are lower bounds.
  [[nodiscard]] bool waits_exact() const noexcept { return dropped == 0; }
};

struct StageReport {
  int index = 0;
  std::string label;
  double wall_ms = 0;        ///< max per-rank time covered by its ops
  double wall_mean_ms = 0;   ///< mean of that over the ranks observed
  double model_time = 0;     ///< cost calculus prediction, op units
  double measured_share = 0; ///< wall_ms / Σ wall_ms
  double predicted_share = 0;///< model_time / Σ model_time
  double drift = 0;          ///< wall/(model*scale) - 1; 0 when not comparable
  int ranks_observed = 0;    ///< ranks with ops in this stage
};

struct RepeatStats {
  int repeats = 1;
  int warmups = 0;
  double min_ms = 0;
  double median_ms = 0;
  double mean_ms = 0;
  double stddev_ms = 0;

  /// min/median/mean/stddev of `samples_ms` (non-empty).
  static RepeatStats of(std::vector<double> samples_ms, int warmups = 0);
};

struct RtReport {
  int procs = 0;
  bool used_packed = false;
  double wall_ms = 0;        ///< measured wall time of the reported run
  double pack_ms = 0;        ///< boxed->packed boundary before it (0 boxed)
  double unpack_ms = 0;      ///< packed->boxed boundary after it (0 boxed)
  double scale_ns_per_op = 0;///< fitted wall-ns per model op unit
  RepeatStats timing;
  std::vector<RankReport> ranks;
  std::vector<StageReport> stages;
  std::uint64_t dropped_total = 0;
  /// The run through the analyzer (clock "ns"); stages[i] and
  /// profile.stages[i] describe the same program stage.
  obs::Profile profile;

  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
  void write_html(std::ostream& os) const;
};

struct RtReportOptions {
  /// Per-stage model predictions in op units, indexed like stage labels;
  /// empty = no drift section.
  std::vector<double> model_stage_times;
  /// Per-stage provenance (rules::stage_provenance), indexed likewise.
  std::vector<std::string> provenance;
  double wall_seconds = 0;   ///< executor-measured wall time of the run
  double pack_seconds = 0;   ///< ThreadRunResult::pack_seconds
  double unpack_seconds = 0; ///< ThreadRunResult::unpack_seconds
  bool used_packed = false;
  RepeatStats timing{};
};

/// Build the report from a snapshot.
[[nodiscard]] RtReport build_report(const FleetSnapshot& snap,
                                    const RtReportOptions& opts = {});

}  // namespace colop::rt

namespace colop::obs {
class Registry;
}  // namespace colop::obs

namespace colop::rt {
/// Publish the measured run into the telemetry-hub registry (metrics.h
/// Registry) — the live surface the embedded stats server exposes:
///   colop_mpsim_messages_total{rank} / colop_mpsim_bytes_total{rank}
///   colop_mpsim_recv_wait_seconds_total{rank} / .._barrier_wait_seconds..
///   colop_rt_queue_depth_max{rank} (gauge), colop_rt_dropped_records_total
///   colop_exec_stage_seconds{stage,index} (histogram of per-rank maxima)
///   colop_exec_runs_total{plane}, colop_exec_run_seconds (histogram)
void publish_registry(const RtReport& report, obs::Registry& registry);
}  // namespace colop::rt
