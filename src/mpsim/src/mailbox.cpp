#include "colop/mpsim/mailbox.h"

#include <algorithm>
#include <atomic>

#include "colop/mpsim/rank_pool.h"
#include "colop/support/error.h"

namespace colop::mpsim {

constexpr auto kRelaxed = std::memory_order_relaxed;

void Mailbox::put(Message msg) {
  {
    std::lock_guard lk(mutex_);
    Cell* cell = free_;
    if (cell != nullptr) {
      free_ = cell->next;
      cell->next = nullptr;
    } else {
      cell = cells_.emplace_back(std::make_unique<Cell>()).get();
    }
    Queue& q = queues_[Key{msg.source, msg.tag}];
    cell->msg = std::move(msg);
    (q.tail != nullptr ? q.tail->next : q.head) = cell;
    q.tail = cell;
    ++queued_;
    if (stats_ != nullptr) {  // the queue fields change only under this lock
      rt::RankStats& s = *stats_;
      const std::uint64_t depth = queued_;
      const std::uint64_t qb = s.queue_bytes.load(kRelaxed) + cell->msg.bytes;
      s.queue_depth.store(depth, kRelaxed);
      s.queue_bytes.store(qb, kRelaxed);
      s.queue_depth_max.store(std::max(depth, s.queue_depth_max.load(kRelaxed)),
                              kRelaxed);
      s.queue_bytes_max.store(std::max(qb, s.queue_bytes_max.load(kRelaxed)), kRelaxed);
      s.queue_depth_sum.fetch_add(depth, kRelaxed);
      s.queued_total.fetch_add(1, kRelaxed);
    }
  }
  detail::note_progress();
  cv_.notify_all();
}

Message Mailbox::take(int source, int tag) {
  std::unique_lock lk(mutex_);
  const Key key{source, tag};
  const auto queued = [&] {
    auto it = queues_.find(key);
    return it != queues_.end() && it->second.head != nullptr;
  };
  auto ready = [&] {
    if (aborted_ && aborted_->load(std::memory_order_acquire)) return true;
    return queued();
  };
  if (!ready()) {
    // About to block: the recv_end Comm logs next closes this wait.
    if (rec_ != nullptr)
      rec_->log(rt::Ev::recv_begin, source, 0, static_cast<std::uint64_t>(tag));
    detail::wait_until(lk, cv_, ready, detail::WaitSite{owner_, fleet_, source, tag});
  }
  if (aborted_ && aborted_->load(std::memory_order_acquire) && !queued())
    throw Error("mpsim: group aborted while waiting in recv");
  Queue& q = queues_[key];
  Cell* cell = q.head;
  q.head = cell->next;
  if (q.head == nullptr) q.tail = nullptr;
  Message msg = std::move(cell->msg);
  cell->next = free_;
  free_ = cell;
  --queued_;
  if (stats_ != nullptr) {
    stats_->queue_depth.store(queued_, kRelaxed);
    stats_->queue_bytes.store(stats_->queue_bytes.load(kRelaxed) - msg.bytes, kRelaxed);
  }
  return msg;
}

bool Mailbox::probe(int source, int tag) const {
  std::lock_guard lk(mutex_);
  auto it = queues_.find(Key{source, tag});
  return it != queues_.end() && it->second.head != nullptr;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lk(mutex_);
  return queued_;
}

void Mailbox::notify_abort() {
  // The abort flag is set without this lock.  Passing through it before
  // notifying means a receiver that checked the flag is already waiting,
  // so it cannot miss the wake-up between its check and its wait.
  { std::lock_guard lk(mutex_); }
  cv_.notify_all();
}

}  // namespace colop::mpsim
