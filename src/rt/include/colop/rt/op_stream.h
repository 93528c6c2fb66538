#pragma once
// A thread run as the analyzer's op stream.
//
// profile_snapshot turns a FleetSnapshot's flight-recorder records into
// the per-rank interval ops obs::profile_events reads
// (obs/critical_path.h), in wall-clock ns since the fleet epoch, and
// analyzes them.  On each rank the ops tile the time from its first
// retained record to its last:
//   * time between two records is compute; a send record splits it and is
//     a zero-length send op;
//   * a receive logs recv_begin only when it is about to block.
//     recv_begin..recv_end is a recv_wait on the sender that ends at the
//     send, then a recv op until recv_end (only the recv op if the send
//     came first); a recv_end without its recv_begin found its message
//     queued and waited zero time: a zero-length recv op;
//   * barrier_begin..barrier_end is a recv_wait on the rank that entered
//     last, ending at that entry, then a barrier op until barrier_end.
// A wait thus ends exactly where its peer's op ends, and the analyzer's
// backward walk hops along that edge.
//
// Sends and receives match by (source, dest, tag) in FIFO order, the
// mailbox's delivery guarantee: a key's k-th retained recv takes its k-th
// retained send.  That count is exact only while neither ring dropped
// records.  When one did, the pairs are aligned at their ends instead if
// the run completed (every rank done and every mailbox empty, so each key
// saw as many receives as sends), and left unmatched otherwise.  An
// unmatched receive is drawn like a queued one: no wait ever hops to a
// send the ring no longer holds.  Barriers match the same way, by their
// count on each rank.

#include <algorithm>
#include <cstdint>

#include "colop/obs/critical_path.h"
#include "colop/rt/flight_recorder.h"

namespace colop::rt {

/// A receive about to block or a barrier entered: the rank waits.
[[nodiscard]] constexpr bool opens_wait(Ev kind) noexcept {
  return kind == Ev::recv_begin || kind == Ev::barrier_begin;
}

/// The pairing rule: an end right after its begin covers [begin, end]; an
/// end after anything else waited zero time.
[[nodiscard]] constexpr bool closes_wait(Ev prev, Ev kind) noexcept {
  return opens_wait(prev) &&
         kind == (prev == Ev::recv_begin ? Ev::recv_end : Ev::barrier_end);
}

/// One rank's records folded oldest first: the time from each record to
/// the next is a receive or barrier wait if the pair closes one, else busy
/// (the analyzer's compute).  Carries an open begin from batch to batch.
struct WaitFold {
  std::uint64_t busy_ns = 0, recv_wait_ns = 0, barrier_wait_ns = 0;
  std::uint64_t last_ns = 0;  ///< the newest record's time
  Ev last = Ev::none;         ///< its kind; none: the next one starts afresh

  void add(const Record& r) noexcept {
    const std::uint64_t at = std::max(r.t_ns, last_ns);
    if (last != Ev::none)
      (!closes_wait(last, r.kind) ? busy_ns
       : r.kind == Ev::recv_end   ? recv_wait_ns
                                  : barrier_wait_ns) += at - last_ns;
    last = r.kind;
    last_ns = at;
  }
  /// Records were lost before the next one: it closes nothing, adds nothing.
  void gap() noexcept { last = Ev::none; }
  [[nodiscard]] bool open() const noexcept { return opens_wait(last); }
};

/// The snapshot's op stream analyzed by obs::profile_events: clock "ns",
/// the matched messages, program and stage rows from the stage labels.
/// With `close_at_ns` > 0 (a post-mortem of a live run), a receive or
/// barrier still waiting is closed there as a wait on no peer, and the
/// makespan is `close_at_ns`.
[[nodiscard]] obs::Profile profile_snapshot(const FleetSnapshot& snap,
                                            std::uint64_t close_at_ns = 0);

}  // namespace colop::rt
