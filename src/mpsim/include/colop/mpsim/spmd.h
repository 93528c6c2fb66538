#pragma once
// SPMD launcher: run one function body on p ranks, exactly like
// `mpirun -np p` over a shared-memory transport.  A Ranks argument
// (rank_pool.h) picks how the ranks run.  Ranks::threads, the default, runs
// rank 0 on the calling thread and ranks 1..p-1 on parked workers of a
// persistent pool.  Ranks::fibers runs all p ranks as fibers on the
// calling thread, which more than halves the cost of a short launch and
// turns a deadlock into an immediate error naming each blocked rank; rule
// certification launches that way.  The group's shared state comes from
// Group::make, which reuses the one a previous clean launch of the same
// size left behind.
//
// Exception safety: if any rank throws, the group is aborted so that ranks
// blocked in recv/barrier wake up and unwind; the first "real" exception is
// rethrown to the caller after every rank returned.
//
// Runtime telemetry: when the group's rt::Fleet is enabled and a watchdog
// deadline is configured (COLOP_RT_WATCHDOG_MS or rt::mutable_config()),
// every launch is supervised by an rt::Watchdog — a rank that stops
// logging flight-recorder events past the deadline triggers a post-mortem
// dump and a group abort, and the launcher reports the stall as a
// colop::Error instead of hanging forever.  An uncaught rank exception
// also dumps a post-mortem when COLOP_RT_DUMP is set.  Either way the
// group ends aborted, so Group::make never hands it out again.

#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "colop/mpsim/comm.h"
#include "colop/mpsim/rank_pool.h"
#include "colop/rt/live.h"
#include "colop/rt/watchdog.h"
#include "colop/support/error.h"

namespace colop::mpsim {

namespace detail {

template <typename Body>
void run_spmd_impl(int nprocs, Body&& body, const std::shared_ptr<Group>& group,
                   Ranks ranks) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));

  // While a live run is active its sampler reads this launch's fleet.
  const rt::LiveLaunch live(group->fleet());
  std::optional<rt::Watchdog> watchdog;
  if (group->fleet().enabled() && rt::config().watchdog_ms > 0)
    watchdog.emplace(group->fleet(),
                     rt::watchdog_options_from_config(rt::config()),
                     [g = group.get()] { g->abort(); });

  auto rank_main = [&](int r) {
    Comm comm(group, r);
    try {
      body(comm);
      group->fleet().stats(r)->done.store(1, std::memory_order_release);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      group->abort();
    }
  };
  const RankTask task = [](void* ctx, int r) {
    (*static_cast<decltype(rank_main)*>(ctx))(r);
  };
  if (ranks == Ranks::fibers)
    run_on_fibers(nprocs, task, &rank_main);
  else
    run_on_pool(nprocs, task, &rank_main);
  if (watchdog) watchdog->stop();

  // Prefer the originating exception over secondary "group aborted" ones.
  std::exception_ptr first;
  bool first_is_abort = false;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!first) {
      first = e;
      first_is_abort = true;
    }
    try {
      std::rethrow_exception(e);
    } catch (const Error& err) {
      const std::string what = err.what();
      if (what.find("group aborted") == std::string::npos) {
        first = e;
        first_is_abort = false;
        break;
      }
    } catch (...) {
      first = e;
      first_is_abort = false;
      break;
    }
  }
  if (watchdog && watchdog->stalled() && (!first || first_is_abort)) {
    // The only failures are the watchdog's own abort waking blocked ranks:
    // surface the stall itself, post-mortem already dumped.
    throw Error(watchdog->describe() +
                " — post-mortem dumped, group aborted to release blocked "
                "ranks");
  }
  if (first) {
    if (!first_is_abort && group->fleet().enabled() &&
        !rt::config().dump_path.empty()) {
      std::string reason = "uncaught rank exception";
      try {
        std::rethrow_exception(first);
      } catch (const std::exception& e) {
        reason += std::string(": ") + e.what();
      } catch (...) {
      }
      rt::dump_post_mortem(group->fleet(), reason, rt::config().dump_path);
    }
    std::rethrow_exception(first);
  }
}

}  // namespace detail

/// Run `body(Comm&)` on `nprocs` ranks and wait for completion.
template <typename Body>
void run_spmd(int nprocs, Body&& body, Ranks ranks = Ranks::threads) {
  COLOP_REQUIRE(nprocs >= 1, "mpsim: need at least one rank");
  auto group = Group::make(nprocs);
  detail::run_spmd_impl(nprocs, std::forward<Body>(body), group, ranks);
}

/// Run `body(Comm&) -> R` on `nprocs` ranks; returns the per-rank results
/// indexed by rank.  This is the main entry point used by tests: the result
/// vector is exactly the paper's distributed list [x1, ..., xn].
template <typename R, typename Body>
[[nodiscard]] std::vector<R> run_spmd_collect(int nprocs, Body&& body,
                                              Ranks ranks = Ranks::threads) {
  static_assert(!std::is_same_v<R, bool>,
                "run_spmd_collect<bool> races: vector<bool> bit-packs and "
                "ranks write their slots concurrently — collect int or char");
  COLOP_REQUIRE(nprocs >= 1, "mpsim: need at least one rank");
  auto group = Group::make(nprocs);
  std::vector<R> results(static_cast<std::size_t>(nprocs));
  detail::run_spmd_impl(
      nprocs,
      [&](Comm& comm) { results[static_cast<std::size_t>(comm.rank())] = body(comm); },
      group, ranks);
  return results;
}

/// As run_spmd_collect, but on a caller-constructed group — the thread
/// executor uses this to prime the group's rt::Fleet (stage labels) before
/// the ranks start and to snapshot it after they finish.
template <typename R, typename Body>
[[nodiscard]] std::pair<std::vector<R>, TrafficCounters>
run_spmd_collect_traffic_on(const std::shared_ptr<Group>& group, Body&& body,
                            Ranks ranks = Ranks::threads) {
  static_assert(!std::is_same_v<R, bool>,
                "collecting bool races: vector<bool> bit-packs and ranks "
                "write their slots concurrently — collect int or char");
  COLOP_REQUIRE(group != nullptr, "mpsim: null group");
  std::vector<R> results(static_cast<std::size_t>(group->size()));
  detail::run_spmd_impl(
      group->size(),
      [&](Comm& comm) { results[static_cast<std::size_t>(comm.rank())] = body(comm); },
      group, ranks);
  return {std::move(results), group->traffic()};
}

/// As run_spmd_collect, but also returns the group's traffic counters.
/// Rank r runs `body(comm, std::move(values[r]))` and its result replaces
/// values[r]: a launch that maps one value per rank holds one vector, not
/// an input and an output one.
template <typename T, typename Body>
[[nodiscard]] TrafficCounters run_spmd_in_place_on(
    const std::shared_ptr<Group>& group, std::vector<T>& values, Body&& body,
    Ranks ranks = Ranks::threads) {
  COLOP_REQUIRE(group != nullptr, "mpsim: null group");
  COLOP_REQUIRE(values.size() == static_cast<std::size_t>(group->size()),
                "mpsim: one value per rank");
  detail::run_spmd_impl(
      group->size(),
      [&](Comm& comm) {
        T& slot = values[static_cast<std::size_t>(comm.rank())];
        slot = body(comm, std::move(slot));
      },
      group, ranks);
  return group->traffic();
}

template <typename R, typename Body>
[[nodiscard]] std::pair<std::vector<R>, TrafficCounters> run_spmd_collect_traffic(
    int nprocs, Body&& body, Ranks ranks = Ranks::threads) {
  COLOP_REQUIRE(nprocs >= 1, "mpsim: need at least one rank");
  auto group = Group::make(nprocs);
  return run_spmd_collect_traffic_on<R>(group, std::forward<Body>(body), ranks);
}

/// As run_spmd, but also returns the group's traffic counters.
template <typename Body>
[[nodiscard]] TrafficCounters run_spmd_traffic(int nprocs, Body&& body) {
  COLOP_REQUIRE(nprocs >= 1, "mpsim: need at least one rank");
  auto group = Group::make(nprocs);
  detail::run_spmd_impl(nprocs, std::forward<Body>(body), group,
                        Ranks::threads);
  return group->traffic();
}

}  // namespace colop::mpsim
