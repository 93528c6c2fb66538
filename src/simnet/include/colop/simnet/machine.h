#pragma once
// simnet: a simulator of the paper's machine model (Section 4.1) — a
// virtual, fully connected system with bidirectional links.  Sending m
// words costs ts + m*tw; one computation operation is one time unit;
// senders are busy for the whole transfer (one-port model, which makes a
// binomial broadcast cost log p sequential sends at the root, exactly as
// the paper's estimates assume).
//
// The engine's unit of work is a butterfly round, as in the paper's cost
// calculus (Eqs 15-17: a sum over log p rounds of ts + m*tw plus the
// combine sweep): exchange_xor() and the compute sweeps advance every
// clock of a round in one contiguous loop and update the counters once.
// Point-to-point send/recv/exchange/compute remain for the schedules that
// are not round-structured, and are the per-message fallback each round
// primitive replays when the machine is traced or the topology is not
// fully connected — so traced runs see exactly one record per message.
//
// The simulator executes the SAME communication schedules as the mpsim
// thread runtime, but advances virtual per-processor clocks instead of
// moving data.  It is the substitute for the paper's 64-processor
// Parsytec wall-clock measurements (DESIGN.md §2): this container has one
// CPU core, so genuine 64-way timings are impossible, while the virtual
// clocks reproduce the model the paper itself evaluates against.

#include <cstdint>
#include <vector>

#include "colop/support/error.h"

namespace colop::simnet {

/// Interconnect topology.  The paper assumes a virtual, fully connected
/// system; hypercube and 2D-mesh models add a per-hop latency so the
/// schedule/topology interaction can be studied (the butterfly's XOR
/// partners are single hops on a hypercube but long walks on a mesh).
enum class Topology { fully_connected, hypercube, mesh2d };

struct NetParams {
  double ts = 100;  ///< start-up time per message (in op units)
  double tw = 2;    ///< per-word transfer time (in op units)
  Topology topology = Topology::fully_connected;
  double th = 0;    ///< extra latency per hop beyond the first
};

/// Number of hops between two processors under the topology: 1 for the
/// fully connected model, Hamming distance on the hypercube, Manhattan
/// distance on a (near-)square 2D mesh.
[[nodiscard]] int topology_hops(Topology topo, int p, int a, int b);

/// One traced machine op on one processor, in simulated time (op units).
/// `peer` is the message counterpart of a send/recv_wait/exchange (-1 for
/// local computation), so trace consumers (obs::profile) can rebuild the
/// happens-before graph without re-running the schedule.
struct SimOp {
  enum class Kind : std::uint8_t { compute, send, recv_wait, exchange };
  int rank = 0;
  Kind kind = Kind::compute;
  int peer = -1;
  int stage = -1;  ///< stage index current at the op (SimMachine::set_stage)
  double start = 0;
  double end = 0;
  double words = 0;
};

/// "compute", "send", "recv_wait" or "exchange".
[[nodiscard]] const char* kind_name(SimOp::Kind kind);

class SimMachine {
 public:
  SimMachine(int p, NetParams net);

  [[nodiscard]] int size() const noexcept { return p_; }
  [[nodiscard]] const NetParams& net() const noexcept { return net_; }

  /// Local computation: advance proc's clock by `ops` time units.
  void compute(int proc, double ops);

  /// Time for one transfer of `words` words between two processors under
  /// the configured topology.
  [[nodiscard]] double transfer_time(int from, int to, double words) const;

  /// One-way send of `words` words; the sender is busy for the whole
  /// transfer, the message becomes receivable at the sender's new clock.
  void send(int from, int to, double words);

  /// Blocking receive: the receiver's clock advances to at least the
  /// message arrival time (FIFO per (from, to) channel).
  void recv(int at, int from);

  /// Simultaneous bidirectional exchange over one link (the model's
  /// Tsend_recv): both clocks advance to max(clock_a, clock_b) + ts + w*tw.
  void exchange(int a, int b, double words);

  // --- round primitives ----------------------------------------------------
  // Each is exactly the per-message loop in its comment (same clocks,
  // counters and, when traced, the same records in the same order),
  // executed as one bulk update when the machine is not traced (and, for
  // exchange_xor, the topology is fully connected, so every pair has the
  // same transfer time).

  /// One butterfly round: exchange(r, r ^ mask, words) for every r < p with
  /// r < r ^ mask < p, in ascending r.  `mask` is a power of two below p.
  void exchange_xor(int mask, double words);

  /// compute(r, ops) for every r in [first, last), in ascending r.
  void compute_range(int first, int last, double ops);
  /// compute(r, ops) on every processor.
  void compute_all(double ops) { compute_range(0, p_, ops); }

  /// The combine sweep after exchange_xor(mask, ...): compute(r, lo) on the
  /// lower end of every pair (r < r ^ mask) and compute(r, hi) on the upper
  /// end, in ascending r; ranks whose partner is >= p do nothing.
  void compute_xor(int mask, double lo, double hi);

  /// Completion time so far: max over all processor clocks.
  [[nodiscard]] double makespan() const;
  [[nodiscard]] double clock(int proc) const;

  /// Advance proc's clock to at least `t` (no-op if already past).  Used by
  /// the overlap window pricing: after simulating an istart's collective,
  /// each rank's clock is raised to issue-time + local work, so the window
  /// costs max(comm, local) instead of their sum.  A move is traced as a
  /// compute op: the local work the collective did not hide.
  void advance_to(int proc, double t);

  /// Align all clocks to the current makespan (models the implicit wait at
  /// the start of an experiment round; NOT used between collective stages,
  /// which the paper explicitly leaves unsynchronized).
  void barrier();

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] double words_sent() const noexcept { return words_; }

  void reset();

  /// Append a SimOp to `ops` for every send/recv_wait/exchange/compute
  /// from now on (nullptr stops tracing).  The trace is per machine, so
  /// simulated and wall-clock timestamps never mix in one stream.
  void set_trace(std::vector<SimOp>* ops) noexcept { trace_ = ops; }
  /// Stage index stamped on every later SimOp, so a program-level driver
  /// (exec::run_on_simnet) can attribute machine ops to stages.
  void set_stage(int stage) noexcept { stage_ = stage; }

 private:
  void trace(SimOp::Kind kind, int proc, double start, double end,
             double words, int peer = -1) const {
    if (trace_ != nullptr)
      trace_->push_back({proc, kind, peer, stage_, start, end, words});
  }
  void check(int proc) const {
    COLOP_REQUIRE(proc >= 0 && proc < p_, "simnet: processor out of range");
  }
  void check_mask(int mask) const;

  /// A message in flight: its sender and the time it becomes receivable.
  struct Pending {
    int from;
    double arrival;
  };

  int p_;
  NetParams net_;
  std::vector<double> clock_;
  /// Per-receiver FIFO of in-flight messages in send order (FIFO per
  /// channel = first entry with the matching sender).  Allocated on the
  /// first send; reset() clears the queues but keeps their capacity.
  std::vector<std::vector<Pending>> inbox_;
  std::uint64_t messages_ = 0;
  double words_ = 0;
  std::vector<SimOp>* trace_ = nullptr;
  int stage_ = -1;
};

}  // namespace colop::simnet
