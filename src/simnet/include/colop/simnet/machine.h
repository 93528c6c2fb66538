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
// primitive replays when a trace sink is attached or the topology is not
// fully connected — so traced runs see exactly one event per message.
//
// The simulator executes the SAME communication schedules as the mpsim
// thread runtime, but advances virtual per-processor clocks instead of
// moving data.  It is the substitute for the paper's 64-processor
// Parsytec wall-clock measurements (DESIGN.md §2): this container has one
// CPU core, so genuine 64-way timings are impossible, while the virtual
// clocks reproduce the model the paper itself evaluates against.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colop/obs/sink.h"
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
  // counters and, with a trace sink attached, the same events in the same
  // order), executed as one bulk update when no sink is attached (and, for
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
  /// costs max(comm, local) instead of their sum.
  void advance_to(int proc, double t);

  /// Align all clocks to the current makespan (models the implicit wait at
  /// the start of an experiment round; NOT used between collective stages,
  /// which the paper explicitly leaves unsynchronized).
  void barrier();

  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] double words_sent() const noexcept { return words_; }

  void reset();

  /// Attach an event sink; every send/recv/exchange/compute then emits a
  /// complete event stamped with SIMULATED time (op units), tid = the
  /// processor.  The sink is per machine: simulated and wall-clock
  /// timestamps must never mix in one stream.
  void set_trace_sink(obs::Sink* sink) noexcept { trace_ = sink; }
  [[nodiscard]] obs::Sink* trace_sink() const noexcept { return trace_; }

  /// Label prepended to traced event names (e.g. the current schedule),
  /// so a program-level driver can attribute machine ops to stages.
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  [[nodiscard]] const std::string& trace_label() const noexcept {
    return trace_label_;
  }

 private:
  /// `peer` is the partner processor of a send/recv_wait/exchange (the
  /// message counterpart), -1 for local computation.  Recorded as an event
  /// arg so trace consumers (obs::profile) can rebuild the happens-before
  /// graph without re-running the schedule.
  void trace(const char* what, int proc, double start, double end,
             double words, int peer = -1) const;
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
  obs::Sink* trace_ = nullptr;
  std::string trace_label_;
};

}  // namespace colop::simnet
