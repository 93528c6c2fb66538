#include "colop/mpsim/rank_pool.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "colop/rt/flight_recorder.h"
#include "colop/support/error.h"

#if defined(__SANITIZE_ADDRESS__)
#define COLOP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COLOP_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define COLOP_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define COLOP_TSAN_FIBERS 1
#endif
#endif
#ifdef COLOP_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef COLOP_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace colop::mpsim::detail {
namespace {

class FiberLaunch;

// The fiber launch whose rank is running on this thread; null on a plain
// thread, and while a fiber rank runs rank 0 of a nested thread launch.
thread_local FiberLaunch* t_launch = nullptr;

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

// A fiber rank that launches on threads runs that launch's rank 0 itself,
// and there it must wait on condition variables like any thread: its
// peers are OS threads, not fibers it could hand over to.
class OffFiber {
 public:
  OffFiber() : outer_(std::exchange(t_launch, nullptr)) {}
  ~OffFiber() { t_launch = outer_; }
  OffFiber(const OffFiber&) = delete;
  OffFiber& operator=(const OffFiber&) = delete;

 private:
  FiberLaunch* outer_;
};

// --- fibers ------------------------------------------------------------------

// Stack per fiber rank, enough for sanitizer builds' larger frames too.
// Only the pages a rank touches are ever backed.
constexpr std::size_t kFiberStackBytes = std::size_t{1} << 20;

// An execution context: a fiber's, or the launching thread's own.
struct Context {
  ucontext_t uc;
  void* stack = nullptr;  // lowest usable address (ASAN learns the thread's)
  std::size_t stack_size = 0;
  void* tsan = nullptr;  // TSAN's handle on the context
};

// One rank's fiber: a context on its own stack, with a PROT_NONE page
// below the stack so an overflow faults instead of corrupting memory.
struct Fiber {
  Fiber() {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapping_bytes = page + kFiberStackBytes;
    mapping = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
    COLOP_REQUIRE(mapping != MAP_FAILED, "mpsim: cannot map a fiber stack");
    if (mprotect(mapping, page, PROT_NONE) != 0) {
      munmap(mapping, mapping_bytes);
      throw Error("mpsim: cannot guard a fiber stack");
    }
    ctx.stack = static_cast<char*>(mapping) + page;
    ctx.stack_size = kFiberStackBytes;
#ifdef COLOP_TSAN_FIBERS
    ctx.tsan = __tsan_create_fiber(0);
#endif
  }
  ~Fiber() {
#ifdef COLOP_TSAN_FIBERS
    __tsan_destroy_fiber(ctx.tsan);
#endif
    munmap(mapping, mapping_bytes);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  Context ctx;
  void* mapping = nullptr;
  std::size_t mapping_bytes = 0;
  std::uint64_t stuck_at = 0;  // progress count at its last failed wait check
  bool done = false;
};

// A thread's fiber state, kept for every fiber launch the thread makes.
struct FiberThread {
  FiberThread() { getcontext(&proto); }

  std::vector<std::unique_ptr<Fiber>> fibers;  // grows to the widest launch
  Context main;                                // the launching context
  ucontext_t proto;  // captured once; every fiber context starts as a copy
  bool busy = false;  // a fiber launch is in progress on this thread
};

thread_local FiberThread t_fibers;

// Suspend `from` and resume `to`; returns when something resumes `from`.
void swap(Context& from, const Context& to) {
#ifdef COLOP_ASAN_FIBERS
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, to.stack, to.stack_size);
#endif
#ifdef COLOP_TSAN_FIBERS
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  swapcontext(&from.uc, &to.uc);
#ifdef COLOP_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

// Leave a finished fiber for good: nothing resumes it, its stack is dead.
[[noreturn]] void leave(const Context& to) {
#ifdef COLOP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, to.stack, to.stack_size);
#endif
#ifdef COLOP_TSAN_FIBERS
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
  setcontext(&to.uc);
  std::abort();  // setcontext returns only on failure
}

std::string deadlock_message(const WaitSite& site) {
  std::string what = "mpsim: deadlock, every live rank stalled: rank " +
                     std::to_string(site.rank);
  if (rt::RankStats* st =
          site.fleet != nullptr ? site.fleet->stats(site.rank) : nullptr) {
    const std::uint16_t stage = st->stage.load(std::memory_order_relaxed);
    if (stage != rt::Record::kNoStage) {
      what += " in stage " + std::to_string(stage);
      const auto& labels = site.fleet->stage_labels();
      if (stage < labels.size()) what += " (" + labels[stage] + ")";
    }
  }
  if (site.source < 0) return what + " waits in barrier";
  return what + " waits in recv from rank " + std::to_string(site.source) +
         ", tag " + std::to_string(site.tag);
}

// One fiber launch, on the launching thread's stack.  Ranks run until they
// block or finish and then hand the CPU to the next runnable rank.
class FiberLaunch {
 public:
  FiberLaunch(FiberThread& t, int n, RankTask task, void* ctx)
      : t_(t), task_(task), ctx_(ctx), n_(n) {
    for (int r = 0; r < n; ++r) {
      Fiber& f = fiber(r);
      f.ctx.uc = t.proto;
      f.ctx.uc.uc_stack.ss_sp = f.ctx.stack;
      f.ctx.uc.uc_stack.ss_size = f.ctx.stack_size;
      f.ctx.uc.uc_link = nullptr;
      makecontext(&f.ctx.uc, &FiberLaunch::entry, 0);
      f.stuck_at = 0;
      f.done = false;
    }
  }

  void run() {
    t_.busy = true;
    t_launch = this;
#ifdef COLOP_TSAN_FIBERS
    t_.main.tsan = __tsan_get_current_fiber();
#endif
    swap(t_.main, fiber(0).ctx);
    t_launch = nullptr;
    t_.busy = false;
  }

  // The calling rank's wait is unmet: hand over to the next rank that can
  // run, or fail the launch when none can.
  void yield(std::unique_lock<std::mutex>& lk, const WaitSite& site) {
    if (!deadlocked_) {
      const int self = current_;
      fiber(self).stuck_at = progress_;
      const int next = next_runnable();
      if (next < 0) {
        deadlocked_ = true;
      } else {
        lk.unlock();
        current_ = next;
        swap(fiber(self).ctx, fiber(next).ctx);
        lk.lock();
      }
    }
    if (deadlocked_) throw Error(deadlock_message(site));
  }

  void progress() noexcept { ++progress_; }

 private:
  Fiber& fiber(int r) const { return *t_.fibers[static_cast<std::size_t>(r)]; }

  // The next live rank after the current one, in round-robin order, that
  // is not known to be stuck since the last progress; -1 when none is.
  [[nodiscard]] int next_runnable() const {
    for (int k = 1; k <= n_; ++k) {
      const int r = (current_ + k) % n_;
      const Fiber& f = fiber(r);
      if (!f.done && f.stuck_at != progress_) return r;
    }
    return -1;
  }

  static void entry() {
    FiberLaunch& self = *t_launch;
    const int rank = self.current_;
#ifdef COLOP_ASAN_FIBERS
    // Rank 0 always starts from the launching context: learn its stack.
    const void* from = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(nullptr, &from, &from_size);
    if (rank == 0) {
      self.t_.main.stack = const_cast<void*>(from);
      self.t_.main.stack_size = from_size;
    }
#endif
    self.task_(self.ctx_, rank);
    fiber_done(self);
  }

  [[noreturn]] static void fiber_done(FiberLaunch& self) {
    self.fiber(self.current_).done = true;
    ++self.progress_;
    const int next = self.next_runnable();
    if (next < 0) leave(self.t_.main);
    self.current_ = next;
    leave(self.fiber(next).ctx);
  }

  FiberThread& t_;
  RankTask task_;
  void* ctx_;
  int n_;
  int current_ = 0;
  std::uint64_t progress_ = 1;
  bool deadlocked_ = false;
};

}  // namespace

void run_on_pool(int n, RankTask task, void* ctx) {
  const OffFiber off;
  RankPool::global().run(n, task, ctx);
}

void run_on_fibers(int n, RankTask task, void* ctx) {
  FiberThread& t = t_fibers;
  if (t.busy) {
    run_on_pool(n, task, ctx);
    return;
  }
  while (t.fibers.size() < static_cast<std::size_t>(n))
    t.fibers.push_back(std::make_unique<Fiber>());
  FiberLaunch launch(t, n, task, ctx);
  launch.run();
}

bool on_fiber() noexcept { return t_launch != nullptr; }

void fiber_yield(std::unique_lock<std::mutex>& lk, const WaitSite& site) {
  t_launch->yield(lk, site);
}

void note_progress() noexcept {
  if (t_launch != nullptr) t_launch->progress();
}

}  // namespace colop::mpsim::detail
