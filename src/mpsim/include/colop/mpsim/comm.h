#pragma once
// Comm: a rank's handle on a process group — the MPI_Comm analogue.
//
// Point-to-point semantics: send is asynchronous-eager (never blocks, value
// is moved), recv blocks until a matching (source, tag) message arrives.
// Typed: recv<T> must name the sent type, otherwise colop::Error is thrown.
//
// Collective calls allocate tags from a reserved tag space via a per-rank
// sequence counter; because SPMD ranks execute collectives in identical
// program order, the counters agree across ranks and successive collectives
// never cross-talk even without inter-collective synchronization (the paper
// explicitly does not require synchronization between collective stages).

#include <memory>
#include <utility>
#include <vector>

#include "colop/mpsim/group.h"
#include "colop/rt/flight_recorder.h"
#include "colop/support/error.h"

namespace colop::mpsim {

/// First tag reserved for collectives; user tags must be below this.
inline constexpr int kCollectiveTagBase = 1 << 20;

class Comm {
 public:
  Comm() = default;  ///< invalid communicator (e.g. split with color < 0)
  Comm(std::shared_ptr<Group> group, int rank)
      : group_(std::move(group)),
        rank_(rank),
        rec_(group_ ? group_->fleet().recorder(rank) : nullptr),
        rt_stats_(group_ ? group_->fleet().stats(rank) : nullptr) {}

  [[nodiscard]] bool valid() const noexcept { return group_ != nullptr; }
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return group_ ? group_->size() : 0; }
  [[nodiscard]] Group& group() const { return *group_; }

  /// Send `value` to `dest` with `tag` (user tags only; < kCollectiveTagBase).
  template <typename T>
  void send(int dest, T value, int tag = 0) const {
    COLOP_REQUIRE(tag >= 0 && tag < kCollectiveTagBase,
                  "mpsim: user tag out of range");
    send_raw(dest, std::move(value), tag);
  }

  /// Blocking typed receive from (source, tag).
  template <typename T>
  [[nodiscard]] T recv(int source, int tag = 0) const {
    COLOP_REQUIRE(tag >= 0 && tag < kCollectiveTagBase,
                  "mpsim: user tag out of range");
    return recv_raw<T>(source, tag);
  }

  /// Simultaneous exchange with one partner (bidirectional link; the
  /// machine model charges this as a single ts + m*tw step).
  template <typename T>
  [[nodiscard]] T sendrecv(int partner, T value, int tag = 0) const {
    send(partner, std::move(value), tag);
    return recv<T>(partner, tag);
  }

  /// Non-blocking probe: true iff a message from (source, tag) is queued.
  [[nodiscard]] bool probe(int source, int tag = 0) const {
    COLOP_REQUIRE(source >= 0 && source < size(),
                  "mpsim: probe of invalid rank");
    return group_->mailbox(rank_).probe(source, tag);
  }

  /// Number of messages queued for this rank (any source/tag).
  [[nodiscard]] std::size_t pending() const {
    return group_->mailbox(rank_).pending();
  }

  void barrier() const {
    if (rec_ != nullptr) rec_->log(rt::Ev::barrier_begin);
    group_->barrier(rank_);
    if (rec_ != nullptr) {
      rt_stats_->barriers.fetch_add(1, std::memory_order_relaxed);
      rec_->log(rt::Ev::barrier_end);
    }
  }

  /// This rank's flight recorder; nullptr when telemetry is disabled.
  [[nodiscard]] rt::Recorder* flight_recorder() const noexcept { return rec_; }
  /// This rank's counts (no times: waits come from the records).  sends and
  /// send_bytes count every send; the rest move only while the recorder is
  /// non-null.  Null only for an invalid Comm.
  [[nodiscard]] rt::RankStats* rank_stats() const noexcept { return rt_stats_; }

  /// MPI_Comm_split analogue.  Collective over the group.  Ranks passing
  /// color < 0 receive an invalid Comm.  Within a color, new ranks are
  /// ordered by (key, old rank).
  [[nodiscard]] Comm split(int color, int key) const;

  // --- internals shared with the collectives headers ---------------------

  /// Allocate the tag for the next collective call on this communicator.
  [[nodiscard]] int next_collective_tag() const {
    return kCollectiveTagBase + static_cast<int>(collective_seq_++ & 0xfffff);
  }

  /// Internal sendrecv usable with collective tags.
  template <typename T>
  [[nodiscard]] T sendrecv_tagged(int partner, T value, int tag) const {
    send_raw(partner, std::move(value), tag);
    return recv_raw<T>(partner, tag);
  }

  template <typename T>
  void send_raw(int dest, T value, int tag) const {
    COLOP_REQUIRE(dest >= 0 && dest < size(), "mpsim: send to invalid rank");
    const std::size_t bytes = wire_size(value);
    rt_stats_->sends.fetch_add(1, std::memory_order_relaxed);
    rt_stats_->send_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (rec_ != nullptr)
      rec_->log(rt::Ev::send, dest, bytes, static_cast<std::uint64_t>(tag));
    group_->mailbox(dest).put(
        Message{Payload(std::move(value)), bytes, rank_, tag});
  }

  template <typename T>
  [[nodiscard]] T recv_raw(int source, int tag) const {
    COLOP_REQUIRE(source >= 0 && source < size(),
                  "mpsim: recv from invalid rank");
    Message msg = group_->mailbox(rank_).take(source, tag);
    if (rec_ != nullptr) {
      rec_->log(rt::Ev::recv_end, source, msg.bytes,
                static_cast<std::uint64_t>(tag));
      rt_stats_->recvs.fetch_add(1, std::memory_order_relaxed);
    }
    T* v = msg.payload.get<T>();
    COLOP_REQUIRE(v != nullptr, "mpsim: recv type does not match sent type");
    return std::move(*v);
  }

 private:
  std::shared_ptr<Group> group_;
  int rank_ = -1;
  rt::Recorder* rec_ = nullptr;       ///< this rank's flight recorder
  rt::RankStats* rt_stats_ = nullptr; ///< this rank's telemetry slot
  mutable std::uint64_t collective_seq_ = 0;
};

}  // namespace colop::mpsim
