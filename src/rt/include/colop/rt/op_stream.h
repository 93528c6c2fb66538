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
//   * recv_begin..recv_end is a receive.  If it blocked (its message was
//     sent after the call) it is a recv_wait on the sender that ends at the
//     send, then a recv op until recv_end; a message already queued gives
//     only the recv op.  A recv_end without its recv_begin waited zero time;
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

#include <cstdint>

#include "colop/obs/critical_path.h"
#include "colop/rt/flight_recorder.h"

namespace colop::rt {

/// The snapshot's op stream analyzed by obs::profile_events: clock "ns",
/// the matched messages, program and stage rows from the stage labels.
/// With `close_at_ns` > 0 (a post-mortem of a live run), a receive or
/// barrier still waiting is closed there as a wait on no peer, and the
/// makespan is `close_at_ns`.
[[nodiscard]] obs::Profile profile_snapshot(const FleetSnapshot& snap,
                                            std::uint64_t close_at_ns = 0);

}  // namespace colop::rt
