#pragma once
// Per-rank mailbox with (source, tag) matching.
//
// Semantics follow MPI's eager protocol on an infinite buffer: send never
// blocks, recv blocks until a matching message is available.  Messages from
// the same (source, tag) are delivered FIFO, which the collectives rely on
// to separate successive phases that reuse one tag.
//
// Queued messages sit in cells the mailbox owns and recycles: a (source,
// tag) queue is a linked list of cells, and a taken message's cell goes to
// a free list.  Groups are reused across launches (group.h), so once a
// mailbox has held as many messages at once as a launch needs, a hop with
// a payload that fits inline (message.h) allocates nothing.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "colop/mpsim/message.h"
#include "colop/rt/flight_recorder.h"

namespace colop::mpsim {

class Mailbox {
 public:
  /// Deposit a message; wakes any blocked receiver.  Never blocks.
  void put(Message msg);

  /// Block until a message from (source, tag) is available and remove it.
  /// Throws colop::Error if the group is aborted while waiting, or if the
  /// owner runs on a fiber and its launch deadlocks.
  Message take(int source, int tag);

  /// Non-blocking probe: true iff a matching message is queued.
  [[nodiscard]] bool probe(int source, int tag) const;

  /// Number of queued messages across all (source, tag) keys, O(1).
  [[nodiscard]] std::size_t pending() const;

  /// Wake all blocked receivers so they can observe an abort.
  void notify_abort();

  /// Install the group's abort flag (set once at group construction).
  void set_abort_flag(const std::atomic<bool>* aborted) { aborted_ = aborted; }

  /// Name the owning rank and its group's telemetry.  put() then accounts
  /// queue depth / bytes in flight in the rank's slot (when the fleet is
  /// enabled), take() accounts blocked receive time, and a deadlocked
  /// take() names the rank and its stage.
  void set_owner(int rank, rt::Fleet& fleet) {
    owner_ = rank;
    fleet_ = &fleet;
    stats_ = fleet.enabled() ? fleet.stats(rank) : nullptr;
  }

 private:
  struct Key {
    int source;
    int tag;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.source)) << 32) |
          static_cast<std::uint32_t>(k.tag));
    }
  };

  struct Cell {
    Message msg;
    Cell* next = nullptr;
  };
  struct Queue {
    Cell* head = nullptr;
    Cell* tail = nullptr;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<Key, Queue, KeyHash> queues_;
  std::vector<std::unique_ptr<Cell>> cells_;  ///< every cell, queued or free
  Cell* free_ = nullptr;                      ///< cells holding no message
  std::size_t queued_ = 0;                    ///< messages in queues_
  const std::atomic<bool>* aborted_ = nullptr;
  int owner_ = 0;
  rt::Fleet* fleet_ = nullptr;
  rt::RankStats* stats_ = nullptr;
};

}  // namespace colop::mpsim
