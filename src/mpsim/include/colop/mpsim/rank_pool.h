#pragma once
// The two ways to run the p ranks of an SPMD launch, and the one wait
// primitive both share.
//
// Ranks::threads (the default) uses a persistent pool of OS threads.  Rank
// threads are parked between launches instead of being spawned and joined
// each time: a launch hands ranks 1..n-1 to idle workers, spawning more
// when too few are idle, and runs rank 0 on the calling thread.  A launch
// from several client threads at once, or from inside a rank body, simply
// takes more workers.  Workers left idle beyond a fixed cap exit, and all
// of them are joined when the process exits.
//
// Ranks::fibers runs all n ranks as ucontext fibers on the calling thread.
// A rank whose recv or barrier cannot go on hands the CPU straight to the
// next live rank in round-robin order; ranks known to be still blocked are
// skipped.  When every live rank has re-checked its wait since the last
// progress (a message put, a barrier arrival or a rank finishing) the
// launch is deadlocked, and each blocked rank throws a colop::Error naming
// itself, its stage and what it waits for.  Fiber contexts and their
// mmap'd, guard-paged stacks belong to the thread and are reused by every
// launch it makes.  A launch made from inside a fiber launch runs on
// threads.  A short launch is mostly blocking hand-offs between ranks;
// fibers make each one a user-space switch instead of an OS context switch
// and a futex wake.  Only a blocking recv or barrier hands over, so a rank
// on a fiber must not spin on probe() or RecvRequest::ready(); and the
// C++ runtime's caught-exception stack is per thread, so it must not block
// inside a catch handler.
//
// Only the launcher and wait_until know the mode: the collectives are the
// same code either way, and since every mpsim receive names its source,
// results and traffic do not depend on the interleaving.

#include <condition_variable>
#include <mutex>

namespace colop::rt {
class Fleet;
}

namespace colop::mpsim {

/// How a launch runs its ranks: pooled OS threads, or fibers on the
/// calling thread.
enum class Ranks { threads, fibers };

namespace detail {

/// One rank of a launch: called as task(ctx, rank).  Must not throw.
using RankTask = void (*)(void* ctx, int rank);

/// Run task(ctx, r) for every r in [0, n): rank 0 on the calling thread,
/// the others on pool workers.  Returns once all n calls have returned.
void run_on_pool(int n, RankTask task, void* ctx);

/// Run task(ctx, r) for every r in [0, n) as fibers on the calling thread.
/// Returns once all n calls have returned.
void run_on_fibers(int n, RankTask task, void* ctx);

/// What a blocked rank waits for; named in a deadlock report.
struct WaitSite {
  int rank;                  ///< the waiting rank, in its group
  rt::Fleet* fleet;          ///< its group's telemetry, for the stage
  int source = -1;           ///< recv source; -1 for a barrier
  int tag = 0;
};

/// True while the caller runs as a rank of a fiber launch.
[[nodiscard]] bool on_fiber() noexcept;

/// Suspend the calling fiber rank, `lk` released, until the next live rank
/// hands back.  Throws colop::Error if the launch is deadlocked.
void fiber_yield(std::unique_lock<std::mutex>& lk, const WaitSite& site);

/// Record progress in the caller's fiber launch: a message put or a
/// barrier arrival may unblock a rank.  No-op off a fiber.
void note_progress() noexcept;

/// Block the calling rank until `ready()` holds, `lk` held at each check:
/// on a thread by waiting on `cv`, on a fiber by yielding.
template <typename Ready>
void wait_until(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                Ready ready, const WaitSite& site) {
  if (!on_fiber()) {
    cv.wait(lk, ready);
    return;
  }
  while (!ready()) fiber_yield(lk, site);
}

}  // namespace detail
}  // namespace colop::mpsim
