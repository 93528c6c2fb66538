#pragma once
// Shared state of one process group: mailboxes, barrier, telemetry fleet
// (which holds the traffic counters), abort flag, and coordination state
// for communicator splits.
//
// A Group is the moral equivalent of an MPI communicator's shared side.
// Ranks interact with it through Comm handles (comm.h).

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "colop/mpsim/mailbox.h"
#include "colop/mpsim/stats.h"
#include "colop/rt/flight_recorder.h"

namespace colop::mpsim {

class Group {
 public:
  explicit Group(int size);

  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// A group of `size` ranks for one SPMD launch.  Hands out the idle group
  /// of that size a previous launch left behind, reset to the state of a
  /// new one, when its rt::Fleet was built from the current rt::config();
  /// otherwise constructs a group.  When the last reference drops, the
  /// group goes back on the idle list (at most one per size) only if it
  /// ended clean: not aborted, every mailbox empty, no barrier or split
  /// half done.  Anything else is destroyed.
  [[nodiscard]] static std::shared_ptr<Group> make(int size);

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] Mailbox& mailbox(int rank);

  /// Messages and bytes sent so far: the sum of every rank's
  /// rt::RankStats sends/send_bytes, which Comm counts on each send.
  [[nodiscard]] TrafficCounters traffic() noexcept;

  /// The group's runtime-telemetry fleet (flight recorders + wait/queue
  /// accounting, one slot per rank).  Disabled fleets hand out nullptr
  /// recorders, which is the whole hot-path check; their stats slots still
  /// count traffic.
  [[nodiscard]] rt::Fleet& fleet() noexcept { return fleet_; }
  [[nodiscard]] const rt::Fleet& fleet() const noexcept { return fleet_; }

  /// Block `rank` until all `size()` ranks have entered; reusable
  /// (generational).  Throws colop::Error if the group is aborted while
  /// waiting, or if the ranks run on fibers and the launch deadlocks.
  void barrier(int rank);

  /// Mark the group as aborted and wake every blocked rank.  Used when one
  /// SPMD thread throws so the others do not deadlock in recv/barrier.
  void abort();
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  // --- split coordination (used by Comm::split) -------------------------
  // All ranks of the group must call these collectively, in program order.

  /// Phase 1: publish (color, key) for `rank`, then wait for everyone.
  void split_publish(int rank, int color, int key);
  /// Phase 2: read everyone's (color, key); valid after split_publish.
  [[nodiscard]] std::vector<std::pair<int, int>> split_slots() const;
  /// Phase 3: obtain (creating once) the shared subgroup for `color` with
  /// `members` ranks; then wait for everyone before the epoch advances.
  std::shared_ptr<Group> split_retrieve(int color, int members);
  /// Phase 4: leave the split epoch (final barrier + epoch cleanup).
  void split_finish(int rank);

 private:
  [[nodiscard]] bool reusable() const;
  void reset();
  static void recycle(Group* group) noexcept;

  int size_;
  rt::Fleet fleet_;  // before mailboxes_: they hold pointers into it
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<bool> aborted_{false};

  std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;

  std::mutex split_mutex_;
  std::vector<std::pair<int, int>> split_slots_;
  std::map<int, std::shared_ptr<Group>> split_groups_;  // color -> subgroup
};

}  // namespace colop::mpsim
