#include "colop/mpsim/mailbox.h"

#include <atomic>
#include <chrono>

#include "colop/mpsim/rank_pool.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

// Monotone max for relaxed atomics (telemetry only; exactness under a lost
// race is irrelevant, absence of data races is not).
void relaxed_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Mailbox::put(Message msg) {
  const std::size_t bytes = msg.bytes;
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
  }
  detail::note_progress();
  if (stats_ != nullptr) {
    const std::uint64_t depth =
        stats_->queue_depth.fetch_add(1, std::memory_order_relaxed) + 1;
    relaxed_max(stats_->queue_depth_max, depth);
    stats_->queue_depth_sum.fetch_add(depth, std::memory_order_relaxed);
    stats_->queued_total.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t qb =
        stats_->queue_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    relaxed_max(stats_->queue_bytes_max, qb);
  }
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
    // About to block: account the wait so per-rank blocked time and the
    // watchdog's liveness view reflect real contention, not just traffic.
    const detail::WaitSite site{owner_, fleet_, source, tag};
    if (stats_ != nullptr) {
      stats_->blocked.store(1, std::memory_order_relaxed);
      const std::uint64_t t0 = steady_ns();
      detail::wait_until(lk, cv_, ready, site);
      stats_->recv_wait_ns.fetch_add(steady_ns() - t0,
                                     std::memory_order_relaxed);
      stats_->blocked.store(0, std::memory_order_relaxed);
    } else {
      detail::wait_until(lk, cv_, ready, site);
    }
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
    stats_->queue_depth.fetch_sub(1, std::memory_order_relaxed);
    stats_->queue_bytes.fetch_sub(msg.bytes, std::memory_order_relaxed);
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
