#include "colop/mpsim/rank_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace colop::mpsim::detail {
namespace {

// Idle workers kept parked; a worker finishing while this many are idle
// exits instead.  Covers certification's p <= 9 and a few concurrent or
// nested launches; a rare wide launch spawns what it needs and sheds it.
constexpr std::size_t kMaxParkedWorkers = 64;

// One launch's shared state, on the launching thread's stack.
class Launch {
 public:
  Launch(RankTask task, void* ctx, int workers)
      : task_(task), ctx_(ctx), pending_(workers) {}

  void run(int rank) const { task_(ctx_, rank); }

  // A worker's last touch of the launch.  Only the final one takes the
  // lock, and it notifies under it, so the launcher cannot return (and
  // free this object) before the notify is done.
  void finish_one() {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    std::lock_guard lk(mutex_);
    done_ = true;
    cv_.notify_one();
  }

  void wait() {
    std::unique_lock lk(mutex_);
    cv_.wait(lk, [this] { return done_; });
  }

 private:
  RankTask task_;
  void* ctx_;
  std::atomic<int> pending_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
};

class RankPool {
 public:
  static RankPool& global() {
    static RankPool pool;
    return pool;
  }

  RankPool() = default;
  RankPool(const RankPool&) = delete;
  RankPool& operator=(const RankPool&) = delete;

  ~RankPool() {
    std::vector<std::unique_ptr<Worker>> all;
    {
      std::lock_guard lk(mutex_);
      all = std::move(workers_);
      for (auto& w : retired_) all.push_back(std::move(w));
      retired_.clear();
      idle_.clear();
    }
    for (auto& w : all) {
      {
        std::lock_guard lk(w->mutex);
        w->stop = true;
      }
      w->cv.notify_one();
    }
    for (auto& w : all) w->thread.join();
  }

  void run(int n, RankTask task, void* ctx) {
    Launch launch(task, ctx, n - 1);
    if (n > 1) hire(n - 1, launch);
    launch.run(0);
    if (n > 1) launch.wait();
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable cv;
    Launch* launch = nullptr;  // the job handed over; guarded by mutex
    int rank = 0;
    bool stop = false;
    std::thread thread;
  };

  // Give ranks 1..count to idle workers, spawning the shortfall.
  void hire(int count, Launch& launch) {
    std::vector<std::unique_ptr<Worker>> retired;
    std::vector<Worker*> hired;
    {
      std::lock_guard lk(mutex_);
      retired.swap(retired_);
      const auto take = std::min(idle_.size(), static_cast<std::size_t>(count));
      hired.assign(idle_.end() - static_cast<std::ptrdiff_t>(take), idle_.end());
      idle_.resize(idle_.size() - take);
    }
    for (auto& w : retired) w->thread.join();
    int rank = 1;
    for (Worker* w : hired) {
      {
        std::lock_guard lk(w->mutex);
        w->launch = &launch;
        w->rank = rank++;
      }
      w->cv.notify_one();
    }
    for (; rank <= count; ++rank) {
      auto w = std::make_unique<Worker>();
      w->launch = &launch;
      w->rank = rank;
      // Started and registered under the pool lock: the worker cannot
      // park (and possibly retire) before it is in workers_.
      std::lock_guard lk(mutex_);
      w->thread = std::thread([this, raw = w.get()] { work(*raw); });
      workers_.push_back(std::move(w));
    }
  }

  void work(Worker& w) {
    for (;;) {
      Launch* launch = nullptr;
      int rank = 0;
      {
        std::unique_lock lk(w.mutex);
        w.cv.wait(lk, [&w] { return w.launch != nullptr || w.stop; });
        if (w.launch == nullptr) return;
        launch = std::exchange(w.launch, nullptr);
        rank = w.rank;
      }
      launch->run(rank);
      // Park before reporting completion, so a launcher that starts again
      // at once finds this worker idle rather than spawning another.
      const bool retire = !park(w);
      launch->finish_one();
      if (retire) return;
    }
  }

  // Back onto the idle list; false when it is full and `w` must exit.
  bool park(Worker& w) {
    std::lock_guard lk(mutex_);
    if (idle_.size() < kMaxParkedWorkers) {
      idle_.push_back(&w);
      return true;
    }
    const auto it = std::find_if(workers_.begin(), workers_.end(),
                                 [&w](const auto& x) { return x.get() == &w; });
    retired_.push_back(std::move(*it));
    workers_.erase(it);
    return false;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< every live worker
  std::vector<Worker*> idle_;                     ///< parked, LIFO
  std::vector<std::unique_ptr<Worker>> retired_;  ///< exiting, to be joined
};

}  // namespace

void run_on_pool(int n, RankTask task, void* ctx) {
  RankPool::global().run(n, task, ctx);
}

}  // namespace colop::mpsim::detail
