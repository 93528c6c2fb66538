#pragma once
// The critical-path analyzer: where did a run's time go, on either clock?
//
// Its input is an op stream: per-rank intervals, each stamped with its
// stage and, for message ops, its partner rank.  Two sources write one:
// simnet's SimMachine traces a simulated run in op units (simnet::SimOp is
// this Op; profile.h drives it), and rt::profile_snapshot converts a
// thread run's flight-recorder records into wall-clock ns (rt/op_stream.h;
// the rt report drives it).  profile_events turns either into:
//   * a per-rank busy/comm/idle breakdown whose parts sum to the makespan;
//   * the critical path through the happens-before graph: walking back
//     from the rank that finishes last, a wait hops to its peer when the
//     peer has an op ending where the wait ends, an exchange hops to the
//     later partner, local work walks its own rank — yielding a gap-free
//     chain of segments covering [0, makespan];
//   * per-stage attribution of critical-path time, which the drivers label
//     with the stage's text, the rule that produced it and the cost
//     calculus' prediction, so the measured and the predicted bottleneck
//     can be compared on both clocks.
// Exports: text, JSON, and the one Chrome trace writer for op streams.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace colop::obs {

/// One op on one rank: an interval in the stream's clock.  `peer` is the
/// message counterpart (-1 for local computation).
struct Op {
  enum class Kind : std::uint8_t {
    compute,    ///< local work
    send,       ///< driving a message out (a point on the wall clock)
    recv_wait,  ///< blocked until `peer` sent, or entered a barrier last
    exchange,   ///< simultaneous bidirectional transfer (simnet)
    recv,       ///< a receive, from its message's send (or the call, if
                ///< the message was already queued) until it returns
    barrier,    ///< leaving a barrier, from the last entry until return
  };
  int rank = 0;
  Kind kind = Kind::compute;
  int peer = -1;
  int stage = -1;  ///< stage index current at the op, -1 outside stages
  double start = 0;
  double end = 0;
  double words = 0;  ///< words (simnet) or bytes (wall clock) moved
};

/// "compute", "send", "recv_wait", "exchange", "recv" or "barrier".
[[nodiscard]] const char* kind_name(Op::Kind kind);

/// A matched send -> receive pair, drawn as a flow arrow.
struct Message {
  int from = 0;
  double sent = 0;
  int to = 0;
  double received = 0;
};

/// Where one rank's time went.  busy = local computation, comm = time
/// moving messages (send, exchange, recv, barrier), idle = waits plus
/// schedule gaps plus trailing idle until the makespan.
struct RankProfile {
  int rank = 0;
  double busy = 0;
  double comm = 0;
  double idle = 0;
  [[nodiscard]] double total() const { return busy + comm + idle; }
};

/// One segment of the critical path (chronological; segments abut).
struct CriticalSegment {
  int rank = 0;
  double start = 0;
  double end = 0;
  std::string kind;  ///< an op kind, "idle" or "start"
  int stage = -1;    ///< index into Profile::stages, -1 when unattributed
  [[nodiscard]] double duration() const { return end - start; }
};

struct StageProfile {
  int index = 0;
  std::string label;       ///< ir::Stage::show()
  std::string rule;        ///< optimizer rule that produced it, "" = source
  double critical = 0;     ///< critical-path time attributed to this stage
  double busy = 0;         ///< summed compute time across ranks
  double comm = 0;         ///< summed message time across ranks
  double model_time = 0;   ///< cost calculus' prediction for this stage
  /// True when the stage sits inside an istart..wait overlap window.  The
  /// whole window's time is attributed to the istart stage: its collective
  /// and the interior local work the collective did not hide.  Interior
  /// maps and the wait show zero.
  bool overlapped = false;
};

struct Profile {
  std::string program;
  std::string clock = "op units";  ///< unit of every time: "op units" or "ns"
  int procs = 0;
  double makespan = 0;
  /// Makespan of the same schedule replayed synchronously (every istart
  /// priced as its blocking twin, no window discount); 0 when the program
  /// has no overlap windows.  makespan <= blocking_makespan always holds —
  /// the report prints the gap as "hidden by overlap".
  double blocking_makespan = 0;
  std::vector<RankProfile> ranks;
  std::vector<CriticalSegment> critical_path;
  std::vector<StageProfile> stages;
  std::vector<Op> ops;            ///< the stream that was analyzed
  std::vector<Message> messages;  ///< matched pairs (wall-clock runs)

  /// The per-rank accounting invariant: busy + comm + idle == makespan for
  /// every rank (within `tol` relative error).
  [[nodiscard]] bool balanced(double tol = 1e-9) const;
  /// Critical-path segments abut and cover [0, makespan] within `tol`.
  [[nodiscard]] bool path_complete(double tol = 1e-9) const;

  /// Stage with the largest critical-path share; nullptr when empty.
  [[nodiscard]] const StageProfile* bottleneck() const;
  /// Stage the cost calculus predicts to dominate; nullptr when empty.
  [[nodiscard]] const StageProfile* model_bottleneck() const;
  /// "bottleneck: stage I LABEL (S of the critical path); the cost model
  /// agrees" (or "predicts stage J ..."), newline-terminated; "" when
  /// there are no stages.
  [[nodiscard]] std::string bottleneck_line() const;

  /// Replace the measured stage rows by one row per program stage, in
  /// order: meta[i] gives the label, rule, model time and overlap flag,
  /// the measurement of stage i its critical, busy and comm time.  Time
  /// outside every stage stays on the critical path but gets no row.
  void set_stages(std::vector<StageProfile> meta);

  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
  /// The critical path as a JSON array of {rank, start, end, kind, stage}.
  void write_path_json(std::ostream& os) const;
  /// Chrome trace with per-rank thread names: stage spans (pid 0) above
  /// the ops (pid 1), message flows from `messages` and the critical path
  /// as one flow chain.  Wall-clock ns are written as Chrome's us.
  void write_chrome_trace(std::ostream& os,
                          const std::string& title = "colop-profile") const;
};

/// Analyze an op stream; ops on ranks outside [0, procs) are ignored.
/// `makespan` < 0 derives it from the latest op end.  The ops are kept in
/// Profile::ops.
[[nodiscard]] Profile profile_events(std::vector<Op> ops, int procs,
                                     double makespan = -1);

}  // namespace colop::obs
