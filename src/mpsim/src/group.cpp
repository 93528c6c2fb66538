#include "colop/mpsim/group.h"

#include <algorithm>
#include <utility>

#include "colop/mpsim/rank_pool.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

// Idle groups are kept for sizes up to this, one per size: a bounded cache
// covering the small groups that launch thousands of times (certification
// runs p = 1..9), not the odd large run.
constexpr int kMaxIdleGroupSize = 64;

struct IdleGroups {
  std::mutex mutex;
  std::vector<std::unique_ptr<Group>> by_size =
      std::vector<std::unique_ptr<Group>>(kMaxIdleGroupSize + 1);
};

IdleGroups& idle_groups() {
  static IdleGroups idle;
  return idle;
}

}  // namespace

std::shared_ptr<Group> Group::make(int size) {
  COLOP_REQUIRE(size >= 1, "mpsim: group size must be >= 1");
  std::unique_ptr<Group> group;
  if (size <= kMaxIdleGroupSize) {
    IdleGroups& idle = idle_groups();
    std::lock_guard lk(idle.mutex);
    group = std::move(idle.by_size[static_cast<std::size_t>(size)]);
  }
  if (group && group->fleet_.built_from(rt::config()))
    group->reset();
  else
    group = std::make_unique<Group>(size);  // a stale idle group dies here
  return {group.release(), &Group::recycle};
}

bool Group::reusable() const {
  if (aborted() || barrier_count_ != 0 || !split_groups_.empty()) return false;
  return std::all_of(mailboxes_.begin(), mailboxes_.end(),
                     [](const auto& mb) { return mb->pending() == 0; });
}

void Group::reset() {
  fleet_.reset();
  barrier_generation_ = 0;
  std::fill(split_slots_.begin(), split_slots_.end(), std::pair{-1, 0});
}

void Group::recycle(Group* group) noexcept {
  // The last reference is gone, so every rank that used the group has
  // finished with it: reading its state needs no lock.
  std::unique_ptr<Group> owned(group);
  if (group->size_ > kMaxIdleGroupSize || !group->reusable()) return;
  IdleGroups& idle = idle_groups();
  std::lock_guard lk(idle.mutex);
  auto& slot = idle.by_size[static_cast<std::size_t>(group->size_)];
  if (!slot) slot = std::move(owned);
}

Group::Group(int size)
    : size_(size),
      fleet_(size, rt::config()),
      split_slots_(static_cast<std::size_t>(size), {-1, 0}) {
  COLOP_REQUIRE(size >= 1, "mpsim: group size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->set_abort_flag(&aborted_);
    mailboxes_.back()->set_owner(i, fleet_);
  }
}

TrafficCounters Group::traffic() noexcept {
  TrafficCounters total;
  for (int r = 0; r < size_; ++r) {
    const rt::RankStats& s = *fleet_.stats(r);
    total.messages += s.sends.load(std::memory_order_relaxed);
    total.bytes += s.send_bytes.load(std::memory_order_relaxed);
  }
  return total;
}

Mailbox& Group::mailbox(int rank) {
  COLOP_ASSERT(rank >= 0 && rank < size_, "mailbox rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void Group::barrier(int rank) {
  std::unique_lock lk(barrier_mutex_);
  const std::uint64_t gen = barrier_generation_;
  detail::note_progress();
  if (++barrier_count_ == size_) {
    barrier_count_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    detail::wait_until(
        lk, barrier_cv_,
        [&] { return barrier_generation_ != gen || aborted(); },
        detail::WaitSite{rank, &fleet_});
  }
  if (aborted()) throw Error("mpsim: group aborted while waiting in barrier");
}

void Group::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& mb : mailboxes_) mb->notify_abort();
  { std::lock_guard lk(barrier_mutex_); }  // see Mailbox::notify_abort
  barrier_cv_.notify_all();
}

void Group::split_publish(int rank, int color, int key) {
  {
    std::lock_guard lk(split_mutex_);
    split_slots_[static_cast<std::size_t>(rank)] = {color, key};
  }
  barrier(rank);
}

std::vector<std::pair<int, int>> Group::split_slots() const {
  // Safe to read without the lock: split_publish ended with a barrier, and
  // no rank mutates the slots until split_finish's barrier.
  return split_slots_;
}

std::shared_ptr<Group> Group::split_retrieve(int color, int members) {
  std::lock_guard lk(split_mutex_);
  auto it = split_groups_.find(color);
  if (it == split_groups_.end())
    it = split_groups_.emplace(color, std::make_shared<Group>(members)).first;
  COLOP_REQUIRE(it->second->size() == members,
                "mpsim: inconsistent split membership");
  return it->second;
}

void Group::split_finish(int rank) {
  barrier(rank);
  if (rank == 0) {
    std::lock_guard lk(split_mutex_);
    split_groups_.clear();
    for (auto& slot : split_slots_) slot = {-1, 0};
  }
  barrier(rank);
}

}  // namespace colop::mpsim
